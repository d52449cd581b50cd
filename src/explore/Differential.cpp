//===--- Differential.cpp - oracle-checked scenario execution ----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "explore/Differential.h"

#include "checker/SpecMiner.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"
#include "memmodel/AxiomaticEnumerator.h"
#include "memmodel/ReadsFromOracle.h"
#include "memmodel/ReferenceExecutor.h"
#include "support/Format.h"

#include <algorithm>
#include <map>

using namespace checkfence;
using namespace checkfence::explore;

DifferentialRunner::DifferentialRunner(Verifier &V, DiffOptions Opts)
    : V(V), Opts(std::move(Opts)) {}

namespace {

/// Step budget of the ReferenceExecutor's interleaving enumeration.
constexpr uint64_t RefMaxSteps = 20'000'000;
/// Engine budgets for symbolic checks (small: generated tests either
/// converge quickly or are reported as bounds-exhausted skips - the
/// bounds of converging tests stabilize within the first two
/// mine/include/probe rounds).
constexpr int EngineMaxBoundIterations = 2;
/// Also caps how far lazy unrolling can grow a generated test: every
/// probe appends a re-unrolling, and unprimed retry loops that never
/// converge would otherwise inflate the encoding by orders of magnitude
/// before any budget fires.
constexpr int EngineMaxProbes = 8;
/// Conflict budget per engine solve: random unprimed tests can hit
/// pathologically hard SAT instances (minutes on one scenario);
/// exhaustion is recorded as a deterministic skip, never a divergence.
/// Conflict counts are solver-deterministic, so the skip set is
/// identical at any job count.
constexpr long long EngineConflictBudget = 200'000;

std::set<memmodel::RefObservation> toRef(const checker::ObservationSet &S) {
  std::set<memmodel::RefObservation> Out;
  for (const checker::Observation &O : S) {
    memmodel::RefObservation R;
    R.Error = O.Error;
    R.Values = O.Values;
    Out.insert(std::move(R));
  }
  return Out;
}

bool hasError(const std::set<memmodel::RefObservation> &S) {
  for (const memmodel::RefObservation &O : S)
    if (O.Error)
      return true;
  return false;
}

/// Compact rendering of an observation set for divergence details,
/// truncated so a pathological set cannot explode the report.
std::string show(const std::set<memmodel::RefObservation> &S) {
  std::string Out;
  for (const memmodel::RefObservation &O : S) {
    if (Out.size() > 360) {
      Out += "...";
      break;
    }
    Out += O.Error ? "E(" : "(";
    for (size_t I = 0; I < O.Values.size(); ++I)
      Out += (I ? "," : "") + O.Values[I].str();
    Out += ") ";
  }
  return Out;
}

bool isSubset(const std::set<memmodel::RefObservation> &A,
              const std::set<memmodel::RefObservation> &B) {
  return std::includes(B.begin(), B.end(), A.begin(), A.end());
}

/// The op-procedure threads of a compiled litmus program: t0_op, t1_op,
/// ... in index order. Derived from the program (not the scenario) so
/// repros reloaded from persisted source run identically.
std::vector<std::pair<std::string, int>>
litmusOps(const lsl::Program &Prog) {
  std::vector<std::pair<std::string, int>> Ops;
  for (int T = 0;; ++T) {
    std::string Name = formatString("t%d_op", T);
    const lsl::Proc *P = Prog.findProc(Name);
    if (!P)
      break;
    Ops.emplace_back(Name, P->NumParams);
  }
  return Ops;
}

} // namespace

ScenarioOutcome DifferentialRunner::run(const Scenario &S) const {
  if (S.K == Scenario::Kind::Litmus)
    return runLitmus(S);
  return runSymbolic(S);
}

//===----------------------------------------------------------------------===//
// Litmus scenarios: mined observation sets vs. the brute-force oracles.
//===----------------------------------------------------------------------===//

ScenarioOutcome DifferentialRunner::runLitmus(const Scenario &S) const {
  ScenarioOutcome Out;

  frontend::DiagEngine Diags;
  lsl::Program Prog;
  if (!frontend::compileC(S.Source, {}, Prog, Diags)) {
    Out.Divergences.push_back(
        {"frontend-error", "", "generated source failed to compile:\n" +
                                   Diags.str()});
    return Out;
  }
  if (Opts.Inject) {
    std::string Detail = Opts.Inject(Prog);
    if (!Detail.empty())
      Out.Divergences.push_back({"injected", "", Detail});
  }

  std::vector<std::pair<std::string, int>> OpProcs = litmusOps(Prog);
  if (OpProcs.empty() || !Prog.findProc("init_op")) {
    Out.Divergences.push_back(
        {"frontend-error", "",
         "litmus program lacks t0_op/init_op procedures"});
    return Out;
  }
  harness::TestSpec Spec;
  Spec.Name = "explore";
  for (const auto &[Proc, NumArgs] : OpProcs)
    Spec.Threads.push_back(
        {harness::OpSpec{Proc, NumArgs, false, false}});
  std::vector<std::string> Threads =
      harness::buildTestThreads(Prog, Spec);

  // Per-model observation sets that compared cleanly, for the lattice
  // nesting check afterwards.
  std::vector<std::pair<memmodel::ModelParams,
                        std::set<memmodel::RefObservation>>>
      CleanSets;

  for (const memmodel::ModelParams &M : Opts.Models) {
    if (Opts.Control.stopRequested()) {
      Out.Cancelled = true;
      return Out;
    }
    const std::string Name = memmodel::modelName(M);

    checker::ProblemConfig Cfg;
    Cfg.Model = M;
    checker::SolveContext Ctx(Prog, Threads, {}, Cfg);
    const checker::ProblemEncoding &Enc = Ctx.encoding();
    if (!Enc.ok()) {
      Out.Divergences.push_back({"engine-error", Name, Enc.error()});
      continue;
    }

    // Primary oracle: the polynomial reads-from checker on eligible
    // lattice points, the brute-force order enumerator elsewhere (or
    // everywhere when the fast path is disabled). Both emit identical
    // skip strings, so the report does not depend on which ran.
    const bool Fast =
        Opts.UseFastOracle && memmodel::readsFromEligible(M);
    std::set<memmodel::RefObservation> OracleObs;
    std::string OracleErr;
    if (Fast) {
      memmodel::ReadsFromOptions RO;
      RO.Model = M;
      RO.MaxAssignments = Opts.OracleMaxOrders;
      memmodel::ReadsFromResult RF =
          memmodel::checkReadsFrom(Enc.flat(), RO);
      if (RF.Ok) {
        OracleObs = std::move(RF.Observations);
        // Differential reference: re-run the enumerator on a sampled
        // fraction of scenarios. Never recorded as a skip (the report
        // must not depend on the sample period); an Ok disagreement is
        // an oracle-vs-enumerator divergence.
        if (Opts.EnumeratorSamplePeriod > 0 &&
            S.Index % Opts.EnumeratorSamplePeriod == 0) {
          memmodel::AxiomaticOptions AO;
          AO.Model = M;
          AO.MaxOrders = Opts.OracleMaxOrders;
          memmodel::AxiomaticResult Slow =
              memmodel::enumerateAxiomatic(Enc.flat(), AO);
          if (Slow.Ok && Slow.Observations != OracleObs) {
            Out.Divergences.push_back(
                {"oracle-vs-enumerator", Name,
                 "reads-from: " + show(OracleObs) +
                     "| enumerator: " + show(Slow.Observations)});
            continue;
          }
        }
      } else {
        OracleErr = RF.Error;
      }
    } else {
      memmodel::AxiomaticOptions AO;
      AO.Model = M;
      AO.MaxOrders = Opts.OracleMaxOrders;
      memmodel::AxiomaticResult Oracle =
          memmodel::enumerateAxiomatic(Enc.flat(), AO);
      if (Oracle.Ok)
        OracleObs = std::move(Oracle.Observations);
      else
        OracleErr = Oracle.Error;
    }
    if (!OracleErr.empty()) {
      // Outside the oracle's fragment (or over budget): a recorded
      // skip, never a silent drop.
      Out.Skips.push_back(Name + ": " + OracleErr);
      continue;
    }

    checker::MiningOutcome Mined = checker::mineSpecification(Ctx);
    if (!Mined.Ok && !Mined.SequentialBug) {
      Out.Divergences.push_back({"engine-error", Name, Mined.Error});
      continue;
    }

    const bool OracleHasErr = hasError(OracleObs);
    if (Mined.SequentialBug != OracleHasErr) {
      Out.Divergences.push_back(
          {"sat-vs-axiomatic", Name,
           formatString("error-flag disagreement: sat=%s oracle=%s "
                        "(oracle set: %s)",
                        Mined.SequentialBug ? "error" : "clean",
                        OracleHasErr ? "error" : "clean",
                        show(OracleObs).c_str())});
      continue;
    }
    if (Mined.SequentialBug) {
      // Both sides agree an erroneous execution exists; mining stops at
      // the first one, so the sets are not comparable further.
      Out.Summary += (Out.Summary.empty() ? "" : " ") + Name + "=err";
      Out.Ran = true;
      continue;
    }

    std::set<memmodel::RefObservation> FromSat = toRef(Mined.Spec);
    if (FromSat != OracleObs) {
      Out.Divergences.push_back(
          {"sat-vs-axiomatic", Name,
           "sat: " + show(FromSat) + "| oracle: " + show(OracleObs)});
      continue;
    }

    if (M == memmodel::ModelParams::sc()) {
      memmodel::RefOptions RO;
      RO.MaxSteps = RefMaxSteps;
      std::set<memmodel::RefObservation> Interleaved =
          memmodel::enumerateExecutions(Enc.flat(), RO);
      if (FromSat != Interleaved) {
        Out.Divergences.push_back(
            {"sat-vs-reference", Name,
             "sat: " + show(FromSat) +
                 "| reference: " + show(Interleaved)});
        continue;
      }
    }

    Out.Ran = true;
    Out.Summary += (Out.Summary.empty() ? "" : " ") + Name + "=" +
                   formatString("%d", static_cast<int>(FromSat.size()));
    CleanSets.emplace_back(M, std::move(FromSat));
  }

  // Lattice nesting: every execution allowed under a stronger point is
  // allowed under a weaker one, so observation sets must be subsets.
  for (size_t A = 0; A < CleanSets.size(); ++A) {
    for (size_t B = 0; B < CleanSets.size(); ++B) {
      if (A == B ||
          !memmodel::atLeastAsStrong(CleanSets[A].first,
                                     CleanSets[B].first))
        continue;
      if (!isSubset(CleanSets[A].second, CleanSets[B].second))
        Out.Divergences.push_back(
            {"lattice-monotonicity", "",
             memmodel::modelName(CleanSets[A].first) + " not-subset-of " +
                 memmodel::modelName(CleanSets[B].first) + ": " +
                 show(CleanSets[A].second) + "| vs " +
                 show(CleanSets[B].second)});
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Symbolic scenarios: checker verdicts, one fresh session per check.
//===----------------------------------------------------------------------===//

ScenarioOutcome DifferentialRunner::runSymbolic(const Scenario &S) const {
  ScenarioOutcome Out;

  std::vector<std::pair<memmodel::ModelParams, Status>> Verdicts;
  for (const memmodel::ModelParams &M : Opts.Models) {
    if (Opts.Control.stopRequested()) {
      Out.Cancelled = true;
      return Out;
    }
    const std::string Name = memmodel::modelName(M);
    Request Req = Request::check();
    Req.impl(S.Impl)
        .notation(S.Notation)
        .model(M.str())
        .noCache()
        .maxBoundIterations(EngineMaxBoundIterations)
        .maxProbes(EngineMaxProbes)
        .conflictBudget(EngineConflictBudget);
    if (Opts.Control.HasDeadline)
      Req.deadline(Opts.Control.remainingSeconds());
    Result R = V.check(Req, nullptr, Opts.Control.Token);

    switch (R.Verdict) {
    case Status::Pass:
    case Status::Fail:
    case Status::SequentialBug:
      Out.Ran = true;
      Verdicts.emplace_back(M, R.Verdict);
      Out.Summary += (Out.Summary.empty() ? "" : " ") + Name + "=" +
                     statusName(R.Verdict);
      break;
    case Status::BoundsExhausted:
      Out.Skips.push_back(Name + ": bounds-exhausted");
      break;
    case Status::Cancelled:
      Out.Cancelled = true;
      return Out;
    case Status::Error:
      // Conflict-budget exhaustion is a (deterministic) skip: the
      // scenario is too hard for the configured budget, not evidence
      // of a checker defect.
      if (R.Message.find("solver budget exhausted") !=
          std::string::npos)
        Out.Skips.push_back(Name + ": solver-budget-exhausted");
      else
        Out.Divergences.push_back({"engine-error", Name, R.Message});
      break;
    }
  }

  // The specification is mined under Serial regardless of the target
  // model: a sequential bug must be model-independent.
  bool AnySeqBug = false, AnyClean = false;
  for (const auto &[M, Verdict] : Verdicts) {
    (void)M;
    AnySeqBug |= Verdict == Status::SequentialBug;
    AnyClean |= Verdict != Status::SequentialBug;
  }
  if (AnySeqBug && AnyClean)
    Out.Divergences.push_back(
        {"seqbug-inconsistency", "",
         "sequential-bug verdict differs across models: " + Out.Summary});

  // Verdict monotonicity along the lattice: a pass under a weaker model
  // implies a pass under every stronger one.
  for (const auto &[MA, VA] : Verdicts) {
    for (const auto &[MB, VB] : Verdicts) {
      if (!memmodel::atLeastAsStrong(MA, MB))
        continue;
      if (VB == Status::Pass && VA == Status::Fail)
        Out.Divergences.push_back(
            {"lattice-monotonicity", "",
             memmodel::modelName(MA) + "=FAIL but weaker " +
                 memmodel::modelName(MB) + "=PASS"});
    }
  }

  if (Opts.Control.stopRequested()) {
    Out.Cancelled = true;
    return Out;
  }

  // Serial mined specification vs. the explicit-state interleaving
  // enumeration at invocation granularity, on the identical flattened
  // program (default bounds keep both sides within the same envelope).
  const impls::ImplInfo *Info = impls::findImpl(S.Impl);
  if (!Info) {
    Out.Divergences.push_back(
        {"engine-error", "", "unknown implementation '" + S.Impl + "'"});
    return Out;
  }
  harness::TestSpec Spec;
  std::string Err;
  if (!harness::parseTestNotation(
          S.Notation, harness::alphabetFor(Info->Kind), Spec, Err)) {
    Out.Divergences.push_back(
        {"frontend-error", "",
         "generated notation failed to parse: " + Err});
    return Out;
  }
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  if (!frontend::compileC(impls::sourceFor(S.Impl), {}, Prog, Diags)) {
    Out.Divergences.push_back(
        {"frontend-error", "", "implementation failed to compile:\n" +
                                   Diags.str()});
    return Out;
  }
  std::vector<std::string> Threads =
      harness::buildTestThreads(Prog, Spec);
  checker::ProblemConfig Cfg;
  Cfg.Model = memmodel::ModelParams::serial();
  Cfg.ConflictBudget = EngineConflictBudget;
  checker::SolveContext Ctx(Prog, Threads, {}, Cfg);
  const checker::ProblemEncoding &Enc = Ctx.encoding();
  if (!Enc.ok()) {
    Out.Divergences.push_back({"engine-error", "serial", Enc.error()});
    return Out;
  }
  checker::MiningOutcome Mined = checker::mineSpecification(Ctx);
  if (!Mined.Ok && !Mined.SequentialBug) {
    if (Mined.Error.find("solver budget exhausted") != std::string::npos)
      Out.Skips.push_back("serial: solver-budget-exhausted");
    else
      Out.Divergences.push_back({"engine-error", "serial", Mined.Error});
    return Out;
  }
  memmodel::RefOptions RO;
  RO.InvocationGranularity = true;
  RO.MaxSteps = RefMaxSteps;
  std::set<memmodel::RefObservation> RefSet =
      memmodel::enumerateExecutions(Enc.flat(), RO);
  const bool RefErr = hasError(RefSet);
  if (Mined.SequentialBug != RefErr) {
    Out.Divergences.push_back(
        {"serial-vs-reference", "serial",
         formatString("error-flag disagreement: sat=%s reference=%s",
                      Mined.SequentialBug ? "error" : "clean",
                      RefErr ? "error" : "clean")});
  } else if (!Mined.SequentialBug) {
    std::set<memmodel::RefObservation> FromSat = toRef(Mined.Spec);
    if (FromSat != RefSet)
      Out.Divergences.push_back(
          {"serial-vs-reference", "serial",
           "sat: " + show(FromSat) + "| reference: " + show(RefSet)});
  }
  Out.Ran = true;
  return Out;
}
