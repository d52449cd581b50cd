//===--- CheckFence.cpp - top-level checking driver --------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checker/CheckFence.h"

#include "engine/CheckSession.h"
#include "support/Timing.h"

using namespace checkfence;
using namespace checkfence::checker;

CheckResult checkfence::checker::runCheck(
    const lsl::Program &ImplProg, const std::vector<std::string> &ThreadProcs,
    const CheckOptions &Opts, const lsl::Program *SpecProg) {
  engine::CheckSession Session(Opts);
  return Session.check(ImplProg, ThreadProcs, SpecProg);
}

const char *checkfence::checker::checkStatusName(CheckStatus S) {
  switch (S) {
  case CheckStatus::Pass:
    return "PASS";
  case CheckStatus::Fail:
    return "FAIL";
  case CheckStatus::SequentialBug:
    return "SEQUENTIAL-BUG";
  case CheckStatus::BoundsExhausted:
    return "BOUNDS-EXHAUSTED";
  case CheckStatus::Error:
    return "ERROR";
  case CheckStatus::Cancelled:
    return "CANCELLED";
  }
  return "<bad-status>";
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
  auto Cancel = [&] {
    Result.Status = CheckStatus::Cancelled;
    Result.Message = "check cancelled";
    Result.Stats.TotalSeconds = Total.seconds();
    return Result;
  };

  for (int Iter = 0; Iter < Opts.MaxBoundIterations; ++Iter) {
    Result.Stats.BoundIterations = Iter + 1;
    if (CancelRequested())
      return Cancel();
    if (Hooks.OnRoundStarted)
      Hooks.OnRoundStarted(Iter + 1);

    // Phase 1: specification mining under the Serial model.
    trans::LoopBounds &MineBounds = SpecProg ? SpecBounds : Bounds;
    {
      Timer MineTimer;
      SolveContext MineCtx(MineProg, ThreadProcs, MineBounds, MineCfg);
      MiningOutcome Mined = mineSpecification(MineCtx, Opts.MaxObservations);
      const EncodeStats &MineStats = MineCtx.encoding().stats();
      Result.Stats.MiningSeconds += MineTimer.seconds();
      Result.Stats.MiningEncodeSeconds += MineStats.EncodeSeconds;
      Result.Stats.MiningSolveSeconds += MineStats.SolveSeconds;
      if (!Mined.Ok) {
        Result.Status = CheckStatus::Error;
        Result.Message = Mined.Error;
        return Result;
      }
      if (Mined.SequentialBug) {
        Result.Status = CheckStatus::SequentialBug;
        Result.Message =
            "a serial execution raises an error (see counterexample)";
        Result.Counterexample = Mined.BugTrace;
        Result.Stats.TotalSeconds = Total.seconds();
        return Result;
      }
      Result.Spec = std::move(Mined.Spec);
      Result.Stats.ObservationCount =
          static_cast<int>(Result.Spec.size());
      if (Hooks.OnObservationsMined)
        Hooks.OnObservationsMined(Result.Stats.ObservationCount);
    }
    if (CancelRequested())
      return Cancel();

    // Phase 2: inclusion check under the target model.
    {
      SolveContext IncCtx(ImplProg, ThreadProcs, Bounds, CheckCfg);
      InclusionOutcome Inc = checkInclusion(IncCtx, Result.Spec);
      Result.Stats.Inclusion = IncCtx.encoding().stats();
      if (!Inc.Ok) {
        Result.Status = CheckStatus::Error;
        Result.Message = Inc.Error;
        return Result;
      }
      if (!Inc.Pass) {
        // Counterexamples hold regardless of bounds (Sec. 3.3).
        Result.Status = CheckStatus::Fail;
        Result.Message = "inclusion check found a counterexample";
        Result.Counterexample = Inc.Counterexample;
        Result.FinalBounds = Bounds;
        Result.Stats.TotalSeconds = Total.seconds();
        return Result;
      }
    }

    // Phase 3: probe for executions that exceed the current loop bounds,
    // growing exactly the exceeded loop instances until none remain (or
    // the probe budget runs out). Mining and inclusion then re-run once
    // over the stabilized bounds.
    bool Grown = false;
    while (ProbesLeft-- > 0) {
      if (CancelRequested())
        return Cancel();
      Timer ProbeTimer;
      SolveContext Probe(ImplProg, ThreadProcs, Bounds, CheckCfg);
      const ProblemEncoding &Enc = Probe.encoding();
      if (!Enc.ok()) {
        Result.Status = CheckStatus::Error;
        Result.Message = Enc.error();
        return Result;
      }
      sat::SolveResult R = Probe.solveUnder(Enc.probeAssumptions());
      Result.Stats.ProbeSeconds += ProbeTimer.seconds();
      if (R == sat::SolveResult::Unknown) {
        Result.Status = CheckStatus::Error;
        Result.Message = "solver budget exhausted during bound probe";
        return Result;
      }
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
      if (!GrewThisProbe) {
        Result.Status = CheckStatus::Error;
        Result.Message = "bound probe satisfiable but no mark decoded";
        return Result;
      }
      Grown = true;
    }
    if (ProbesLeft < 0) {
      Result.Status = CheckStatus::BoundsExhausted;
      Result.Message = "loop bounds kept growing past the probe limit";
      Result.FinalBounds = Bounds;
      Result.Stats.TotalSeconds = Total.seconds();
      return Result;
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
      Result.Status = CheckStatus::Pass;
      Result.Message = "all executions are observationally serial";
      Result.FinalBounds = Bounds;
      Result.Stats.TotalSeconds = Total.seconds();
      return Result;
    }
  }

  Result.Status = CheckStatus::BoundsExhausted;
  Result.Message = "loop bounds kept growing past the iteration limit";
  Result.FinalBounds = Bounds;
  Result.Stats.TotalSeconds = Total.seconds();
  return Result;
}
