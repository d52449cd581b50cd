//===--- CommitPointChecker.cpp - the CAV'06 baseline method ----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "baseline/CommitPointChecker.h"

#include "checker/Unrolling.h"
#include "frontend/Lowering.h"
#include "support/Timing.h"

#include <cassert>

using namespace checkfence;
using namespace checkfence::baseline;
using namespace checkfence::encode;
using namespace checkfence::trans;

namespace {

/// One program encoded into a shared CNF: flatten, range-analyze, encode
/// values and memory model, then assumes/asserts/bounds.
class SubEncoding {
public:
  std::shared_ptr<const checker::Unrolling> U;
  std::unique_ptr<ValueEncoder> VE;
  std::unique_ptr<memmodel::MemoryModelEncoder> MME;
  Lit ErrorLit;

  bool build(CnfBuilder &Cnf, const lsl::Program &Prog,
             const std::vector<std::string> &Threads,
             const LoopBounds &Bounds, memmodel::ModelParams Model,
             std::string &Err) {
    U = checker::unroll(Prog, Threads, Bounds);
    if (!U->ok()) {
      Err = U->Error;
      return false;
    }
    const FlatProgram &Flat = U->Flat;
    EncodeOptions EO;
    VE = std::make_unique<ValueEncoder>(Cnf, Flat, U->Ranges, EO);
    if (!VE->encodeAll()) {
      Err = "value encoding failed: " + VE->error();
      return false;
    }
    MME = std::make_unique<memmodel::MemoryModelEncoder>(*VE, Flat, U->Ranges,
                                                         Model, EO);
    MME->encode();

    // Side conditions: assumes are hard, asserts/type checks feed the
    // error flag, loop bounds are assumed within range.
    std::vector<Lit> ErrorTerms;
    for (const FlatCheck &C : Flat.Checks) {
      Lit G = VE->guardLit(C.Guard);
      const EncValue &E = VE->value(C.Cond);
      Lit UndefL = Cnf.andLit(~E.IsInt, ~E.IsPtr);
      switch (C.K) {
      case FlatCheck::Kind::Assume:
        Cnf.addClause(~G, UndefL, VE->truthyLit(E));
        ErrorTerms.push_back(Cnf.andLit(G, UndefL));
        break;
      case FlatCheck::Kind::Assert:
        ErrorTerms.push_back(
            Cnf.andLit(G, Cnf.orLit(UndefL, ~VE->truthyLit(E))));
        break;
      case FlatCheck::Kind::CheckAddr:
        ErrorTerms.push_back(Cnf.andLit(G, ~E.IsPtr));
        break;
      case FlatCheck::Kind::CheckBranch:
      case FlatCheck::Kind::CheckDef:
        ErrorTerms.push_back(Cnf.andLit(G, UndefL));
        break;
      }
    }
    ErrorLit = Cnf.orLits(ErrorTerms);
    for (const FlatBoundMark &M : Flat.BoundMarks)
      Cnf.addClause(~VE->guardLit(M.Guard));
    return true;
  }

  /// First access index of invocation \p Inv, or -1.
  int firstAccessOf(int Inv) const {
    const FlatProgram &Flat = U->Flat;
    for (size_t E = 0; E < Flat.Events.size(); ++E)
      if (Flat.Events[E].isAccess() && Flat.Events[E].OpInvId == Inv)
        return MME->accessOfEvent(static_cast<int>(E));
    return -1;
  }
};

} // namespace

CommitPointResult checkfence::baseline::checkCommitPoints(
    const lsl::Program &ImplProg, const lsl::Program &RefProg,
    const std::vector<std::string> &ThreadProcs,
    const CommitPointOptions &Opts) {
  CommitPointResult Result;
  Timer Total;
  Timer EncodeTimer;

  sat::Solver Solver;
  Solver.ConflictBudget = Opts.ConflictBudget;
  CnfBuilder Cnf(Solver);

  SubEncoding Impl, Ref;
  if (!Impl.build(Cnf, ImplProg, ThreadProcs, Opts.Bounds, Opts.Model,
                  Result.Error))
    return Result;
  if (!Ref.build(Cnf, RefProg, ThreadProcs, /*Bounds=*/{},
                 memmodel::ModelParams::serial(), Result.Error))
    return Result;

  if (Impl.U->Flat.CommitMarks.empty()) {
    Result.Error = "implementation has no commit() annotations (compile "
                   "with the COMMIT_POINTS define)";
    return Result;
  }
  if (Impl.U->Flat.Observations.size() != Ref.U->Flat.Observations.size()) {
    Result.Error = "observation layouts differ between implementation and "
                   "reference";
    return Result;
  }

  // Commit-access selectors: per invocation, the last executed commit mark
  // designates the commit access.
  std::map<int, std::vector<std::pair<Lit, int>>> Marks; // inv -> (sel, acc)
  {
    std::map<int, std::vector<const FlatCommitMark *>> ByInv;
    for (const FlatCommitMark &M : Impl.U->Flat.CommitMarks)
      ByInv[M.OpInvId].push_back(&M);
    for (auto &[Inv, Ms] : ByInv) {
      for (size_t I = 0; I < Ms.size(); ++I) {
        if (Ms[I]->PrecedingEvent < 0) {
          Result.Error = "commit() marker with no preceding access";
          return Result;
        }
        std::vector<Lit> Sel{Impl.VE->guardLit(Ms[I]->Guard)};
        for (size_t J = I + 1; J < Ms.size(); ++J)
          Sel.push_back(~Impl.VE->guardLit(Ms[J]->Guard));
        int Acc = Impl.MME->accessOfEvent(Ms[I]->PrecedingEvent);
        assert(Acc >= 0 && "commit access is not a load/store");
        Marks[Inv].push_back({Cnf.andLits(Sel), Acc});
      }
    }
  }

  // Tie the shadow's serialization order to the commit order.
  std::vector<int> CommittedInvs;
  for (const auto &[Inv, Ms] : Marks)
    CommittedInvs.push_back(Inv);
  for (size_t I = 0; I < CommittedInvs.size(); ++I) {
    for (size_t J = I + 1; J < CommittedInvs.size(); ++J) {
      int P = CommittedInvs[I], Q = CommittedInvs[J];
      int RefA = Ref.firstAccessOf(P), RefB = Ref.firstAccessOf(Q);
      if (RefA < 0 || RefB < 0)
        continue; // reference op touches no memory; order is irrelevant
      Lit RefBefore = Ref.MME->order()->before(RefA, RefB);
      std::vector<Lit> Terms;
      for (const auto &[SelP, AccP] : Marks[P])
        for (const auto &[SelQ, AccQ] : Marks[Q])
          Terms.push_back(Cnf.andLits(
              {SelP, SelQ, Impl.MME->order()->before(AccP, AccQ)}));
      Lit CommitBefore = Cnf.orLits(Terms);
      Cnf.addClause(~CommitBefore, RefBefore);
      Cnf.addClause(CommitBefore, ~RefBefore);
    }
  }

  // Same arguments; search for differing results (or an impl error).
  std::vector<Lit> Mismatch{Impl.ErrorLit};
  for (size_t S = 0; S < Impl.U->Flat.Observations.size(); ++S) {
    const EncValue &IV = Impl.VE->value(Impl.U->Flat.Observations[S].Val);
    const EncValue &RV = Ref.VE->value(Ref.U->Flat.Observations[S].Val);
    bool IsArg = Impl.U->Flat.Observations[S].Label.find(".arg") !=
                 std::string::npos;
    Lit Eq = Impl.VE->eqLit(IV, RV);
    if (IsArg)
      Cnf.addClause(Eq);
    else
      Mismatch.push_back(~Eq);
  }
  Cnf.addClause(~Ref.ErrorLit); // the shadow itself never misbehaves
  Cnf.addClause(Mismatch);

  Result.EncodeSeconds = EncodeTimer.seconds();
  Result.SatVars = Solver.numVars();
  Result.SatClauses = Solver.numClauses();

  Timer SolveTimer;
  sat::SolveResult R = Solver.solve();
  Result.SolveSeconds = SolveTimer.seconds();
  Result.TotalSeconds = Total.seconds();

  switch (R) {
  case sat::SolveResult::Unknown:
    Result.Error = "solver budget exhausted";
    return Result;
  case sat::SolveResult::Unsat:
    Result.Ok = true;
    Result.Pass = true;
    return Result;
  case sat::SolveResult::Sat: {
    Result.Ok = true;
    Result.Pass = false;
    checker::Observation O;
    O.Error = Solver.modelValue(Impl.ErrorLit) == sat::LBool::True;
    for (const FlatObservation &Slot : Impl.U->Flat.Observations)
      O.Values.push_back(Impl.VE->decode(Solver, Slot.Val));
    Result.CexObservation = O;
    return Result;
  }
  }
  return Result;
}

CommitPointResult checkfence::baseline::runCommitPointTest(
    const std::string &ImplSource, const std::string &RefSource,
    const harness::TestSpec &Test, const CommitPointOptions &Opts) {
  CommitPointResult Result;

  frontend::DiagEngine Diags;
  lsl::Program Impl;
  if (!frontend::compileC(ImplSource, {"COMMIT_POINTS"}, Impl, Diags)) {
    Result.Error = "frontend error:\n" + Diags.str();
    return Result;
  }
  std::vector<std::string> Threads = harness::buildTestThreads(Impl, Test);

  frontend::DiagEngine RefDiags;
  lsl::Program Ref;
  if (!frontend::compileC(RefSource, {}, Ref, RefDiags)) {
    Result.Error = "frontend error in reference:\n" + RefDiags.str();
    return Result;
  }
  harness::buildTestThreads(Ref, Test);

  return checkCommitPoints(Impl, Ref, Threads, Opts);
}
