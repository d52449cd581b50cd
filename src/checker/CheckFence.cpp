//===--- CheckFence.cpp - top-level checking driver --------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checker/CheckFence.h"

#include "checker/SolveContext.h"
#include "engine/SpecStore.h"
#include "obs/Trace.h"
#include "support/Fingerprint.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Timing.h"

using namespace checkfence;
using namespace checkfence::checker;
using engine::SpecStore;

/// The one exit of both pipelines: sets the verdict and the run's wall
/// clock, so every status - errors included - reports its TotalSeconds.
static CheckResult finish(CheckResult &Result, const Timer &Total,
                          Status Verdict, const std::string &Msg) {
  Result.Status = Verdict;
  Result.Message = Msg;
  Result.Stats.TotalSeconds = Total.seconds();
  return std::move(Result);
}

CheckResult checkfence::checker::runCheck(
    const lsl::Program &ImplProg, const std::vector<std::string> &ThreadProcs,
    const CheckOptions &Opts, const lsl::Program *SpecProg) {
  if (Opts.Fresh)
    return runCheckFresh(ImplProg, ThreadProcs, Opts, SpecProg);
  Timer Total;
  CheckResult Result;
  trans::LoopBounds Bounds = Opts.InitialBounds; // implementation bounds
  trans::LoopBounds SpecBounds; // reference-program bounds (refset mode)
  int ProbesLeft = Opts.MaxProbes;

  const lsl::Program &MineProg = SpecProg ? *SpecProg : ImplProg;

  ProblemConfig MineCfg;
  MineCfg.Model = memmodel::ModelParams::serial();
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

  // The implementation's unrolling at its current bounds. Mining and
  // checking encode it alike whenever they encode the same program: in
  // every round that mines the implementation, and again when the round
  // after a bound growth mines at the grown bounds.
  std::shared_ptr<const Unrolling> ImplUnrolling;
  auto EncodeImpl = [&](std::optional<SolveContext> &Ctx,
                        const ProblemConfig &Cfg) {
    Ctx.reset(); // the old instance goes before the new one is built
    if (!ImplUnrolling || ImplUnrolling->Bounds != Bounds) {
      ImplUnrolling.reset();
      ImplUnrolling = unroll(ImplProg, ThreadProcs, Bounds);
    }
    Ctx.emplace(ImplUnrolling, Cfg);
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
        formatString("|range=%d|maxobs=%zu", Opts.RangeAnalysis ? 1 : 0,
                     Opts.MaxObservations);

  const CheckHooks &Hooks = Opts.Hooks;
  auto CancelRequested = [&] {
    return Hooks.Cancelled && Hooks.Cancelled();
  };

  for (int Iter = 0; Iter < Opts.MaxBoundIterations; ++Iter) {
    Result.Stats.BoundIterations = Iter + 1;
    if (CancelRequested())
      return finish(Result, Total, Status::Cancelled, "check cancelled");
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
          if (SpecProg)
            MineCtx.emplace(*SpecProg, ThreadProcs, MineBounds, MineCfg);
          else
            EncodeImpl(MineCtx, MineCfg);
        }
        MiningOutcome Mined =
            mineSpecification(*MineCtx, Opts.MaxObservations);
        Result.Stats.MiningSeconds += MineTimer.seconds();
        if (!Mined.Ok)
          return finish(Result, Total, Status::Error, Mined.Error);
        if (Mined.SequentialBug) {
          Result.Counterexample = Mined.BugTrace;
          return finish(
              Result, Total, Status::SequentialBug,
              "a serial execution raises an error (see counterexample)");
        }
        if (Specs)
          Specs->publish(SpecKey, Mined.Spec);
        Result.Spec = std::move(Mined.Spec);
        // Only a refset check uses the mining context again (as its
        // reference-program probe); any other check frees that solver
        // now instead of holding it through the inclusion solve.
        if (!SpecProg)
          MineCtx.reset();
      }
      Result.Stats.ObservationCount = static_cast<int>(Result.Spec.size());
      HaveSpec = true;
      SpecForBounds = MineBounds;
      if (Hooks.OnObservationsMined)
        Hooks.OnObservationsMined(Result.Stats.ObservationCount);
    }
    if (CancelRequested())
      return finish(Result, Total, Status::Cancelled, "check cancelled");

    // Phase 2: inclusion check under the target model. Shares its encoding
    // with the bound probe of this round (and reuses the final probe
    // encoding of the previous round when the bounds stabilized there).
    if (!CheckCtx || CheckCtx->encoding().bounds() != Bounds) {
      obs::Span EncodeSpan("engine", "encode");
      EncodeImpl(CheckCtx, CheckCfg);
    }
    ProblemEncoding *CheckEnc = &CheckCtx->encoding();
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
        return finish(Result, Total, Status::Error, Inc.Error);
      if (!Inc.Pass) {
        // Counterexamples hold regardless of bounds (Sec. 3.3).
        Result.Counterexample = std::move(Inc.Counterexample);
        Result.FinalBounds = Bounds;
        return finish(Result, Total, Status::Fail,
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
        return finish(Result, Total, Status::Cancelled, "check cancelled");
      obs::Span ProbeSpan("engine", "probe");
      Timer ProbeTimer;
      if (!CheckEnc->ok())
        return finish(Result, Total, Status::Error, CheckEnc->error());
      CheckCtx->beginPhase(); // each probe gets its own conflict allowance
      sat::SolveResult R;
      {
        obs::Span SolveSpan("solver", "solve");
        R = CheckCtx->solveUnder(CheckEnc->probeAssumptions());
      }
      Result.Stats.ProbeSeconds += ProbeTimer.seconds();
      if (R == sat::SolveResult::Unknown)
        return finish(Result, Total, Status::Error,
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
        return finish(Result, Total, Status::Error,
                      "bound probe satisfiable but no mark decoded");
      Grown = true;
      EncodeImpl(CheckCtx, CheckCfg);
      CheckEnc = &CheckCtx->encoding();
    }
    if (ProbesLeft < 0) {
      Result.FinalBounds = Bounds;
      return finish(Result, Total, Status::BoundsExhausted,
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
      return finish(Result, Total, Status::Pass,
                    "all executions are observationally serial");
    }
  }

  Result.FinalBounds = Bounds;
  return finish(Result, Total, Status::BoundsExhausted,
                "loop bounds kept growing past the iteration limit");
}

CheckResult checkfence::checker::runCheckFresh(
    const lsl::Program &ImplProg, const std::vector<std::string> &ThreadProcs,
    const CheckOptions &Opts, const lsl::Program *SpecProg) {
  Timer Total;
  CheckResult Result;
  trans::LoopBounds Bounds = Opts.InitialBounds; // implementation bounds
  trans::LoopBounds SpecBounds; // reference-program bounds (refset mode)
  int ProbesLeft = Opts.MaxProbes;
  const lsl::Program &MineProg = SpecProg ? *SpecProg : ImplProg;

  ProblemConfig MineCfg;
  MineCfg.Model = memmodel::ModelParams::serial();
  MineCfg.RangeAnalysis = Opts.RangeAnalysis;
  MineCfg.ConflictBudget = Opts.ConflictBudget;
  ProblemConfig CheckCfg = MineCfg;
  CheckCfg.Model = Opts.Model;

  const CheckHooks &Hooks = Opts.Hooks;
  auto CancelRequested = [&] {
    return Hooks.Cancelled && Hooks.Cancelled();
  };

  for (int Iter = 0; Iter < Opts.MaxBoundIterations; ++Iter) {
    Result.Stats.BoundIterations = Iter + 1;
    if (CancelRequested())
      return finish(Result, Total, Status::Cancelled, "check cancelled");
    if (Hooks.OnRoundStarted)
      Hooks.OnRoundStarted(Iter + 1);

    // Phase 1: specification mining under the Serial model.
    trans::LoopBounds &MineBounds = SpecProg ? SpecBounds : Bounds;
    {
      Timer MineTimer;
      SolveContext MineCtx(MineProg, ThreadProcs, MineBounds, MineCfg);
      MiningOutcome Mined = mineSpecification(MineCtx, Opts.MaxObservations);
      Result.Stats.MiningSeconds += MineTimer.seconds();
      if (!Mined.Ok)
        return finish(Result, Total, Status::Error, Mined.Error);
      if (Mined.SequentialBug) {
        Result.Counterexample = Mined.BugTrace;
        return finish(
            Result, Total, Status::SequentialBug,
            "a serial execution raises an error (see counterexample)");
      }
      Result.Spec = std::move(Mined.Spec);
      Result.Stats.ObservationCount =
          static_cast<int>(Result.Spec.size());
      if (Hooks.OnObservationsMined)
        Hooks.OnObservationsMined(Result.Stats.ObservationCount);
    }
    if (CancelRequested())
      return finish(Result, Total, Status::Cancelled, "check cancelled");

    // Phase 2: inclusion check under the target model.
    {
      SolveContext IncCtx(ImplProg, ThreadProcs, Bounds, CheckCfg);
      InclusionOutcome Inc = checkInclusion(IncCtx, Result.Spec);
      Result.Stats.Inclusion = IncCtx.encoding().stats();
      if (!Inc.Ok)
        return finish(Result, Total, Status::Error, Inc.Error);
      if (!Inc.Pass) {
        // Counterexamples hold regardless of bounds (Sec. 3.3).
        Result.Counterexample = std::move(Inc.Counterexample);
        Result.FinalBounds = Bounds;
        return finish(Result, Total, Status::Fail,
                      "inclusion check found a counterexample");
      }
    }

    // Phase 3: probe for executions that exceed the current loop bounds,
    // growing exactly the exceeded loop instances until none remain (or
    // the probe budget runs out). Mining and inclusion then re-run once
    // over the stabilized bounds.
    bool Grown = false;
    while (ProbesLeft-- > 0) {
      if (CancelRequested())
        return finish(Result, Total, Status::Cancelled, "check cancelled");
      Timer ProbeTimer;
      SolveContext Probe(ImplProg, ThreadProcs, Bounds, CheckCfg);
      const ProblemEncoding &Enc = Probe.encoding();
      if (!Enc.ok())
        return finish(Result, Total, Status::Error, Enc.error());
      sat::SolveResult R = Probe.solveUnder(Enc.probeAssumptions());
      Result.Stats.ProbeSeconds += ProbeTimer.seconds();
      if (R == sat::SolveResult::Unknown)
        return finish(Result, Total, Status::Error,
                      "solver budget exhausted during bound probe");
      if (R == sat::SolveResult::Unsat)
        break;
      bool GrewThisProbe = false;
      for (const std::string &Key : Enc.exceededLoops(Probe.solver())) {
        int &B = Bounds[Key];
        B = (B == 0 ? 1 : B) + 1;
        GrewThisProbe = true;
        if (Hooks.OnBoundGrown)
          Hooks.OnBoundGrown(Key, B);
      }
      if (!GrewThisProbe)
        return finish(Result, Total, Status::Error,
                      "bound probe satisfiable but no mark decoded");
      Grown = true;
    }
    if (ProbesLeft < 0) {
      Result.FinalBounds = Bounds;
      return finish(Result, Total, Status::BoundsExhausted,
                    "loop bounds kept growing past the probe limit");
    }

    // Probe the reference program separately when mining from it.
    if (!Grown && SpecProg) {
      SolveContext Probe(*SpecProg, ThreadProcs, SpecBounds, MineCfg);
      const ProblemEncoding &Enc = Probe.encoding();
      if (Enc.ok() &&
          Probe.solveUnder(Enc.probeAssumptions()) == sat::SolveResult::Sat) {
        for (const std::string &Key : Enc.exceededLoops(Probe.solver())) {
          int &B = SpecBounds[Key];
          B = (B == 0 ? 1 : B) + 1;
          Grown = true;
        }
      }
    }

    if (!Grown) {
      Result.FinalBounds = Bounds;
      return finish(Result, Total, Status::Pass,
                    "all executions are observationally serial");
    }
  }

  Result.FinalBounds = Bounds;
  return finish(Result, Total, Status::BoundsExhausted,
                "loop bounds kept growing past the iteration limit");
}
