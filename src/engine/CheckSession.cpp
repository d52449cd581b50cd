//===--- CheckSession.cpp - incremental check orchestration ------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "engine/CheckSession.h"

#include "analysis/CriticalCycles.h"
#include "checker/InclusionChecker.h"
#include "checker/SolveContext.h"
#include "checker/SpecMiner.h"
#include "engine/SpecStore.h"
#include "memmodel/ReadsFromOracle.h"
#include "obs/Trace.h"
#include "support/Fingerprint.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Timing.h"

using namespace checkfence;
using namespace checkfence::engine;
using namespace checkfence::checker;

CheckResult CheckSession::check(const lsl::Program &ImplProg,
                                const std::vector<std::string> &ThreadProcs,
                                const lsl::Program *SpecProg) const {
  Timer Total;
  CheckResult Result;
  trans::LoopBounds Bounds = Opts.InitialBounds; // implementation bounds
  trans::LoopBounds SpecBounds; // reference-program bounds (refset mode)
  int ProbesLeft = Opts.MaxProbes;

  const lsl::Program &MineProg = SpecProg ? *SpecProg : ImplProg;

  ProblemConfig MineCfg;
  MineCfg.Model = memmodel::ModelParams::serial();
  MineCfg.Order = Opts.Order;
  MineCfg.RangeAnalysis = Opts.RangeAnalysis;
  MineCfg.ConflictBudget = Opts.ConflictBudget;

  ProblemConfig CheckCfg = MineCfg;
  CheckCfg.Model = Opts.Model;

  // The live unrolling of each model. A context is only rebuilt when its
  // program's bounds changed, and a rebuild replaces it: the old
  // unrolling shares no variables with the new one, so the solver keeps
  // only the instance it is on (emplace destroys the old context before
  // building the new one).
  std::optional<SolveContext> MineCtx;
  std::optional<SolveContext> CheckCtx;
  auto EncodeCheck = [&] {
    CheckCtx.emplace(ImplProg, ThreadProcs, Bounds, CheckCfg);
    Result.Stats.EncodeSeconds += CheckCtx->encoding().stats().EncodeSeconds;
  };

  // Mining result cache: (bounds of the mined program) -> spec already in
  // Result.Spec. Valid while the mined program's bounds are unchanged.
  bool HaveSpec = false;
  trans::LoopBounds SpecForBounds;

  // Request-scoped specifications shared across lattice points and fence
  // variants. Refset checks bypass the store (their mining encoding
  // doubles as the reference program's bound probe), and so do budgeted
  // checks (whether a budgeted mine completes depends on solver
  // history). The key's program and option part is fixed for this call;
  // only the mining bounds vary per round.
  SpecStore *Specs =
      !SpecProg && Opts.ConflictBudget < 0 ? Opts.Specs : nullptr;
  std::string SpecKeyPrefix;
  if (Specs)
    SpecKeyPrefix =
        support::fenceBlindFingerprint(MineProg, ThreadProcs) +
        formatString("|order=%d|range=%d|maxobs=%zu",
                     static_cast<int>(Opts.Order), Opts.RangeAnalysis ? 1 : 0,
                     Opts.MaxObservations);

  auto Finish = [&](CheckStatus Status, const std::string &Msg) {
    Result.Status = Status;
    Result.Message = Msg;
    Result.Stats.TotalSeconds = Total.seconds();
    return Result;
  };

  const CheckHooks &Hooks = Opts.Hooks;
  auto CancelRequested = [&] {
    return Hooks.Cancelled && Hooks.Cancelled();
  };

  for (int Iter = 0; Iter < Opts.MaxBoundIterations; ++Iter) {
    Result.Stats.BoundIterations = Iter + 1;
    if (CancelRequested())
      return Finish(CheckStatus::Cancelled, "check cancelled");
    if (Hooks.OnRoundStarted)
      Hooks.OnRoundStarted(Iter + 1);
    obs::Span RoundSpan("engine", "round");
    if (RoundSpan.active())
      RoundSpan.args(
          support::JsonObject().field("round", Iter + 1).str());
    trans::LoopBounds &MineBounds = SpecProg ? SpecBounds : Bounds;

    // Phase 1: specification mining under the Serial model. Skipped when
    // the mined program's bounds are unchanged - re-enumerating would
    // reproduce the identical observation set - and when the request's
    // spec store already holds the set for these bounds.
    if (!HaveSpec || SpecForBounds != MineBounds) {
      std::string SpecKey;
      SpecStore::SpecPtr Shared;
      if (Specs) {
        SpecKey = SpecStore::key(SpecKeyPrefix, MineBounds);
        Shared = Specs->find(SpecKey);
      }
      if (Shared) {
        obs::Span ReuseSpan("engine", "spec_reuse");
        Result.Spec = *Shared;
      } else {
        obs::Span MineSpan("engine", "mine");
        Timer MineTimer;
        if (!MineCtx || MineCtx->encoding().bounds() != MineBounds) {
          obs::Span EncodeSpan("engine", "encode:mine");
          MineCtx.emplace(MineProg, ThreadProcs, MineBounds, MineCfg);
          Result.Stats.MiningEncodeSeconds +=
              MineCtx->encoding().stats().EncodeSeconds;
        }
        const EncodeStats &MineStats = MineCtx->encoding().stats();
        double SolveBefore = MineStats.SolveSeconds;
        MiningOutcome Mined =
            mineSpecification(*MineCtx, Opts.MaxObservations);
        Result.Stats.MiningSeconds += MineTimer.seconds();
        Result.Stats.MiningSolveSeconds +=
            MineStats.SolveSeconds - SolveBefore;
        if (!Mined.Ok)
          return Finish(CheckStatus::Error, Mined.Error);
        if (Mined.SequentialBug) {
          Result.Counterexample = Mined.BugTrace;
          return Finish(
              CheckStatus::SequentialBug,
              "a serial execution raises an error (see counterexample)");
        }
        if (Specs)
          Specs->publish(SpecKey, Mined.Spec);
        Result.Spec = std::move(Mined.Spec);
      }
      Result.Stats.ObservationCount = static_cast<int>(Result.Spec.size());
      HaveSpec = true;
      SpecForBounds = MineBounds;
      if (Hooks.OnObservationsMined)
        Hooks.OnObservationsMined(Result.Stats.ObservationCount);
    }
    if (CancelRequested())
      return Finish(CheckStatus::Cancelled, "check cancelled");

    // Phase 2: inclusion check under the target model. Shares its encoding
    // with the bound probe of this round (and reuses the final probe
    // encoding of the previous round when the bounds stabilized there).
    if (!CheckCtx || CheckCtx->encoding().bounds() != Bounds) {
      obs::Span EncodeSpan("engine", "encode");
      EncodeCheck();
    }
    ProblemEncoding *CheckEnc = &CheckCtx->encoding();
    // Phase 2a: reads-from oracle pruning. On eligible target models the
    // polynomial oracle decides fragment-sized problems exactly; when
    // every reachable observation is non-erroneous and already in the
    // mined specification, the inclusion query is Unsat by construction
    // (the mismatch clauses include the error flag), and - the oracle's
    // fragment admits only statically in-bounds programs - every bound
    // probe is Unsat too, so the check finishes here with the bounds
    // final. Counterexamples and refset mining are never short-circuited
    // (refset spec bounds may still need growing): any other outcome
    // falls through to the SAT path unchanged. The reported stats keep
    // their SAT-path values - SatVars/SatClauses freeze at encode end,
    // and this round's solve deltas are genuinely zero.
    if (Opts.OraclePrune && !SpecProg &&
        memmodel::readsFromEligible(CheckCfg.Model) && CheckEnc->ok()) {
      obs::Span OracleSpan("engine", "oracle_prune");
      Timer OracleTimer;
      ++Result.Stats.OracleAttempts;
      memmodel::ReadsFromOptions RO;
      RO.Model = CheckCfg.Model;
      memmodel::ReadsFromResult RF =
          memmodel::checkReadsFrom(CheckEnc->flat(), RO);
      bool Discharged = RF.Ok;
      if (Discharged) {
        for (const memmodel::RefObservation &O : RF.Observations) {
          if (O.Error || !Result.Spec.count(Observation{false, O.Values})) {
            Discharged = false;
            break;
          }
        }
      }
      Result.Stats.OracleSeconds += OracleTimer.seconds();
      if (Discharged) {
        ++Result.Stats.OracleDischarges;
        Result.Stats.Inclusion = CheckEnc->stats();
        Result.Stats.Inclusion.SolveSeconds = 0;
        Result.Stats.Inclusion.SolveCalls = 0;
        Result.FinalBounds = Bounds;
        return Finish(CheckStatus::Pass,
                      "all executions are observationally serial");
      }
    }
    // Phase 0 (static): critical-cycle robustness pruning for the lattice
    // points the reads-from oracle does not serve (rmo/relaxed and the
    // other descriptors missing ll+ls order). When the delay-set analysis
    // proves the flat program robust - no critical cycle and no coherence
    // hazard survives the existing fences - every execution under the
    // target model is observationally sequentially consistent, so the
    // weak-model verdict is inherited from sc: the sc observation set
    // (enumerated by the reads-from oracle, for which sc is always
    // eligible) being non-erroneous and inside the mined specification
    // makes the inclusion query Unsat by construction, and the oracle
    // fragment admits only statically in-bounds programs, so every bound
    // probe is Unsat too. Any other outcome - non-robust program,
    // fragment reject, or an sc observation outside the spec - falls
    // through to the SAT path unchanged, keeping timing-free JSON
    // byte-identical (see docs/ANALYSIS.md for the soundness argument).
    if (Opts.AnalysisPrune && !SpecProg && CheckEnc->ok() &&
        analysis::analysisEligible(CheckCfg.Model) &&
        !memmodel::readsFromEligible(CheckCfg.Model)) {
      obs::Span AnalysisSpan("engine", "analysis_prune");
      Timer AnalysisTimer;
      ++Result.Stats.AnalysisAttempts;
      analysis::RobustnessResult RR = analysis::analyzeRobustness(
          CheckEnc->flat(), CheckEnc->ranges(), CheckCfg.Model);
      bool Discharged = RR.Robust;
      if (Discharged) {
        memmodel::ReadsFromOptions RO;
        RO.Model = memmodel::ModelParams::sc();
        memmodel::ReadsFromResult RF =
            memmodel::checkReadsFrom(CheckEnc->flat(), RO);
        Discharged = RF.Ok;
        if (Discharged) {
          for (const memmodel::RefObservation &O : RF.Observations) {
            if (O.Error ||
                !Result.Spec.count(Observation{false, O.Values})) {
              Discharged = false;
              break;
            }
          }
        }
      }
      Result.Stats.AnalysisSeconds += AnalysisTimer.seconds();
      if (Discharged) {
        ++Result.Stats.AnalysisDischarges;
        Result.Stats.Inclusion = CheckEnc->stats();
        Result.Stats.Inclusion.SolveSeconds = 0;
        Result.Stats.Inclusion.SolveCalls = 0;
        Result.FinalBounds = Bounds;
        return Finish(CheckStatus::Pass,
                      "all executions are observationally serial");
      }
    }
    {
      obs::Span IncludeSpan("engine", "include");
      Timer IncludeTimer;
      EncodeStats Before = CheckEnc->stats();
      InclusionOutcome Inc = checkInclusion(*CheckCtx, Result.Spec);
      // Report this inclusion check's own solving effort; the shared
      // encoding's counters also accumulate probe solves (those are
      // charged to ProbeSeconds).
      Result.Stats.Inclusion = CheckEnc->stats();
      Result.Stats.Inclusion.SolveSeconds -= Before.SolveSeconds;
      Result.Stats.Inclusion.SolveCalls -= Before.SolveCalls;
      Result.Stats.IncludeSeconds += IncludeTimer.seconds();
      if (!Inc.Ok)
        return Finish(CheckStatus::Error, Inc.Error);
      if (!Inc.Pass) {
        // Counterexamples hold regardless of bounds (Sec. 3.3).
        Result.Counterexample = std::move(Inc.Counterexample);
        Result.FinalBounds = Bounds;
        return Finish(CheckStatus::Fail,
                      "inclusion check found a counterexample");
      }
    }

    // Phase 3: probe for executions that exceed the current loop bounds,
    // growing exactly the exceeded loop instances until none remain (or
    // the probe budget runs out). The probe re-solves the inclusion
    // encoding under the probe activation literal; each growth replaces
    // the context with a fresh one holding the re-unrolled program.
    bool Grown = false;
    while (ProbesLeft-- > 0) {
      if (CancelRequested())
        return Finish(CheckStatus::Cancelled, "check cancelled");
      obs::Span ProbeSpan("engine", "probe");
      Timer ProbeTimer;
      if (!CheckEnc->ok())
        return Finish(CheckStatus::Error, CheckEnc->error());
      CheckCtx->beginPhase(); // each probe gets its own conflict allowance
      sat::SolveResult R;
      {
        obs::Span SolveSpan("solver", "solve");
        R = CheckCtx->solveUnder(CheckEnc->probeAssumptions());
      }
      Result.Stats.ProbeSeconds += ProbeTimer.seconds();
      if (R == sat::SolveResult::Unknown)
        return Finish(CheckStatus::Error,
                      "solver budget exhausted during bound probe");
      if (R == sat::SolveResult::Unsat)
        break;
      bool GrewThisProbe = false;
      for (const std::string &Key :
           CheckEnc->exceededLoops(CheckCtx->solver())) {
        int &B = Bounds[Key];
        B = (B == 0 ? 1 : B) + 1;
        GrewThisProbe = true;
        if (Hooks.OnBoundGrown)
          Hooks.OnBoundGrown(Key, B);
      }
      if (!GrewThisProbe)
        return Finish(CheckStatus::Error,
                      "bound probe satisfiable but no mark decoded");
      Grown = true;
      EncodeCheck();
      CheckEnc = &CheckCtx->encoding();
    }
    if (ProbesLeft < 0) {
      Result.FinalBounds = Bounds;
      return Finish(CheckStatus::BoundsExhausted,
                    "loop bounds kept growing past the probe limit");
    }

    // Probe the reference program separately when mining from it: the
    // mining encoding doubles as the probe (its blocking clauses were
    // activation-gated and are no longer assumed).
    if (!Grown && SpecProg && MineCtx && MineCtx->encoding().ok()) {
      MineCtx->beginPhase();
      if (MineCtx->solveUnder(MineCtx->encoding().probeAssumptions()) ==
          sat::SolveResult::Sat) {
        for (const std::string &Key :
             MineCtx->encoding().exceededLoops(MineCtx->solver())) {
          int &B = SpecBounds[Key];
          B = (B == 0 ? 1 : B) + 1;
          Grown = true;
        }
      }
    }

    if (!Grown) {
      Result.FinalBounds = Bounds;
      return Finish(CheckStatus::Pass,
                    "all executions are observationally serial");
    }
  }

  Result.FinalBounds = Bounds;
  return Finish(CheckStatus::BoundsExhausted,
                "loop bounds kept growing past the iteration limit");
}
