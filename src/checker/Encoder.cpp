//===--- Encoder.cpp - end-to-end problem encoding --------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checker/Encoder.h"

#include "support/Format.h"
#include "support/Timing.h"

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::encode;
using namespace checkfence::trans;

ProblemEncoding::ProblemEncoding(CnfBuilder &CnfB,
                                 std::shared_ptr<const Unrolling> Unrolled,
                                 const ProblemConfig &Cfg)
    : Cnf(&CnfB), U(std::move(Unrolled)), Flat(U->Flat) {
  if (!U->ok()) {
    fail(U->Error);
    return;
  }
  Timer EncodeTimer;
  Stats.UnrolledInstrs = Flat.UnrolledInstrCount;
  Stats.Loads = Flat.numLoads();
  Stats.Stores = Flat.numStores();

  // 1. Thread-local encoding.
  EncodeOptions EO;
  EO.FixConstants = Cfg.RangeAnalysis;
  EO.MinimalWidths = Cfg.RangeAnalysis;
  EO.AliasPruning = Cfg.RangeAnalysis;
  Values = std::make_unique<ValueEncoder>(*Cnf, Flat, U->Ranges, EO);
  if (!Values->encodeAll()) {
    fail("value encoding failed: " + Values->error());
    return;
  }

  // 2. Memory model.
  Model = std::make_unique<memmodel::MemoryModelEncoder>(
      *Values, Flat, U->Ranges, Cfg.Model, EO);
  Model->encode();

  // 3. Side conditions, error flag, loop bounds.
  encodeChecksAndBounds(Cfg);

  Stats.EncodeSeconds = EncodeTimer.seconds();
}

void ProblemEncoding::encodeChecksAndBounds(const ProblemConfig &Cfg) {
  (void)Cfg;
  std::vector<Lit> ErrorTerms;
  for (const FlatCheck &C : Flat.Checks) {
    Lit G = Values->guardLit(C.Guard);
    const EncValue &E = Values->value(C.Cond);
    Lit UndefL = Cnf->andLit(~E.IsInt, ~E.IsPtr);
    switch (C.K) {
    case FlatCheck::Kind::Assume: {
      Lit Truthy = Values->truthyLit(E);
      // Executions continue past an assume only if it holds or its
      // condition is undefined (which raises the error flag).
      Cnf->addClause(~G, UndefL, Truthy);
      Lit Term = Cnf->andLit(G, UndefL);
      if (!Cnf->isFalse(Term)) {
        ErrorTerms.push_back(Term);
        ErrorSources.push_back(
            {Term, formatString("assume() on undefined value (thread %d, "
                                "line %d)",
                                C.Thread, C.Loc.Line)});
      }
      break;
    }
    case FlatCheck::Kind::Assert: {
      Lit Truthy = Values->truthyLit(E);
      Lit Term = Cnf->andLit(G, Cnf->orLit(UndefL, ~Truthy));
      if (!Cnf->isFalse(Term)) {
        ErrorTerms.push_back(Term);
        ErrorSources.push_back(
            {Term, formatString("assertion failed (thread %d, line %d)",
                                C.Thread, C.Loc.Line)});
      }
      break;
    }
    case FlatCheck::Kind::CheckAddr: {
      Lit Term = Cnf->andLit(G, ~E.IsPtr);
      if (!Cnf->isFalse(Term)) {
        ErrorTerms.push_back(Term);
        ErrorSources.push_back(
            {Term, formatString("invalid or undefined address dereferenced "
                                "(thread %d, line %d)",
                                C.Thread, C.Loc.Line)});
      }
      break;
    }
    case FlatCheck::Kind::CheckBranch: {
      Lit Term = Cnf->andLit(G, UndefL);
      if (!Cnf->isFalse(Term)) {
        ErrorTerms.push_back(Term);
        ErrorSources.push_back(
            {Term, formatString("branch on undefined value (thread %d, "
                                "line %d)",
                                C.Thread, C.Loc.Line)});
      }
      break;
    }
    case FlatCheck::Kind::CheckDef: {
      Lit Term = Cnf->andLit(G, UndefL);
      if (!Cnf->isFalse(Term)) {
        ErrorTerms.push_back(Term);
        ErrorSources.push_back(
            {Term, formatString("undefined value used in a computation "
                                "(thread %d, line %d)",
                                C.Thread, C.Loc.Line)});
      }
      break;
    }
    }
  }
  ErrorLit = Cnf->orLits(ErrorTerms);

  // Loop bounds (Sec. 3.3). Restricted marks are pinned off. Every other
  // mark stays free and is controlled per solve call: within-bounds
  // checking assumes each one off; the probe assumes the activation
  // literal, whose clause demands that at least one mark fires. This keeps
  // both modes available on one incremental solver.
  std::vector<Lit> ProbeLits;
  for (const FlatBoundMark &M : Flat.BoundMarks) {
    Lit L = Values->guardLit(M.Guard);
    if (M.Restricted) {
      Cnf->addClause(~L);
      continue;
    }
    ProbeLits.push_back(L);
    ProbeMarks.push_back({L, M.LoopKey});
    WithinAssumptions.push_back(~L);
  }
  ProbeAct = Cnf->fresh();
  std::vector<Lit> ProbeClause{~ProbeAct};
  ProbeClause.insert(ProbeClause.end(), ProbeLits.begin(), ProbeLits.end());
  Cnf->addClause(ProbeClause);
}

Observation ProblemEncoding::decodeObservation(const sat::Solver &S) const {
  Observation O;
  O.Error = S.modelValue(ErrorLit) == sat::LBool::True;
  for (const FlatObservation &Slot : Flat.Observations)
    O.Values.push_back(Values->decode(S, Slot.Val));
  return O;
}

bool ProblemEncoding::addMismatch(const Observation &O,
                                  sat::Lit Activation) {
  std::vector<Lit> Clause;
  // Error-flag component.
  Clause.push_back(O.Error ? ~ErrorLit : ErrorLit);
  assert(O.Values.size() == Flat.Observations.size() &&
         "observation arity mismatch");
  for (size_t I = 0; I < Flat.Observations.size(); ++I) {
    Lit Match = Values->eqConstLit(Flat.Observations[I].Val, O.Values[I]);
    if (Cnf->isTrue(Match))
      continue; // this component always matches; cannot contribute
    Clause.push_back(~Match);
  }
  if (Activation != sat::LitUndef)
    Clause.push_back(~Activation);
  return Cnf->addClause(Clause);
}

bool ProblemEncoding::requireObservation(const Observation &O) {
  if (O.Values.size() != Flat.Observations.size())
    return false;
  bool Ok = Cnf->addClause(O.Error ? ErrorLit : ~ErrorLit);
  for (size_t I = 0; I < Flat.Observations.size(); ++I) {
    Lit Match = Values->eqConstLit(Flat.Observations[I].Val, O.Values[I]);
    Ok = Cnf->addClause(Match) && Ok;
  }
  return Ok;
}

std::vector<std::string> ProblemEncoding::observationLabels() const {
  std::vector<std::string> Labels;
  for (const FlatObservation &Slot : Flat.Observations)
    Labels.push_back(Slot.Label);
  return Labels;
}

Trace ProblemEncoding::decodeTrace(const sat::Solver &S) const {
  Trace T;
  T.Obs = decodeObservation(S);
  T.ObsLabels = observationLabels();
  for (const ErrorSource &E : ErrorSources)
    if (S.modelValue(E.L) == sat::LBool::True)
      T.Errors.push_back(E.Description);

  for (int Ev : Model->modelOrderedAccesses(S)) {
    const FlatEvent &E = Flat.Events[Ev];
    TraceEntry Entry;
    Entry.Thread = E.Thread;
    Entry.IsStore = E.isStore();
    Entry.Addr = Values->decode(S, E.Addr);
    Entry.Data = Values->decode(S, E.Data);
    Entry.Loc = E.Loc;
    Entry.PoIndex = E.IndexInThread;
    Entry.CallLines = E.CallLines;
    Entry.OpInvId = E.OpInvId;
    if (E.OpInvId >= 0 &&
        E.OpInvId < static_cast<int>(Flat.OpInvocations.size()))
      Entry.OpName = Flat.OpInvocations[E.OpInvId].Name;
    T.MemoryOrder.push_back(Entry);
  }
  return T;
}

std::vector<std::string>
ProblemEncoding::exceededLoops(const sat::Solver &S) const {
  std::vector<std::string> Keys;
  for (const MarkLit &M : ProbeMarks)
    if (S.modelValue(M.L) == sat::LBool::True)
      Keys.push_back(M.Key);
  return Keys;
}
