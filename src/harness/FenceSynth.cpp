//===--- FenceSynth.cpp - automatic fence placement -------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "harness/FenceSynth.h"

#include "analysis/CriticalCycles.h"
#include "checker/Unrolling.h"
#include "engine/MatrixRunner.h"
#include "frontend/Lowering.h"
#include "impls/Impls.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <map>

using namespace checkfence;
using namespace checkfence::harness;
using checker::CheckResult;

std::string checkfence::harness::placementStr(const FencePlacement &P) {
  return formatString("%s fence before line %d", fenceKindName(P.Kind),
                      P.Line);
}

namespace {

/// Recursively finds the insertion point for \p Line: the first statement
/// in pre-order whose source line matches. Non-block statements are
/// preferred (the fence should sit directly before the access, not before
/// an enclosing loop that merely starts on the same line).
struct InsertionPoint {
  std::vector<lsl::Stmt *> *Body = nullptr;
  size_t Index = 0;
  bool IsBlockLike = false;
};

void findLine(std::vector<lsl::Stmt *> &Body, int Line,
              InsertionPoint &Best) {
  for (size_t I = 0; I < Body.size(); ++I) {
    lsl::Stmt *S = Body[I];
    if (S->Loc.Line == Line && S->K != lsl::StmtKind::Fence) {
      bool BlockLike = S->isBlockLike();
      if (!Best.Body || (Best.IsBlockLike && !BlockLike)) {
        Best.Body = &Body;
        Best.Index = I;
        Best.IsBlockLike = BlockLike;
      }
      if (!BlockLike)
        return; // pre-order first non-block match wins
    }
    if (!S->Body.empty()) {
      findLine(S->Body, Line, Best);
      if (Best.Body && !Best.IsBlockLike)
        return;
    }
  }
}

} // namespace

int checkfence::harness::applyFencePlacements(
    lsl::Program &Prog, const std::vector<FencePlacement> &Fences) {
  int Applied = 0;
  for (const FencePlacement &F : Fences) {
    InsertionPoint Best;
    for (const auto &[Name, Proc] : Prog.procs()) {
      findLine(Proc->Body, F.Line, Best);
      if (Best.Body && !Best.IsBlockLike)
        break;
    }
    if (!Best.Body)
      continue;
    lsl::Stmt *Fence = Prog.create(lsl::StmtKind::Fence);
    Fence->FenceK = F.Kind;
    Fence->Loc.Line = F.Line;
    Best.Body->insert(Best.Body->begin() + Best.Index, Fence);
    ++Applied;
  }
  return Applied;
}

namespace {

/// Give up after placing this many fences.
constexpr int MaxFences = 24;

/// The innermost source line of \p E at or after \p MinLine, or -1.
/// Accesses inside shared builtins resolve to their call sites.
int attributedLine(const checker::TraceEntry &E, int MinLine) {
  if (E.Loc.Line >= MinLine)
    return E.Loc.Line;
  for (auto It = E.CallLines.rbegin(); It != E.CallLines.rend(); ++It)
    if (*It >= MinLine)
      return *It;
  return -1;
}

/// Ranks fence kinds by how often the paper's algorithms need them
/// (store-store and load-load account for all placed fences in Sec. 4.2).
int kindPreference(lsl::FenceKind K) {
  switch (K) {
  case lsl::FenceKind::StoreStore:
    return 0;
  case lsl::FenceKind::LoadLoad:
    return 1;
  case lsl::FenceKind::LoadStore:
    return 2;
  case lsl::FenceKind::StoreLoad:
    return 3;
  }
  return 4;
}

/// Collects candidate repairs from the program-order/memory-order
/// inversions of a counterexample trace, scored by how many inversions
/// each one addresses.
std::map<FencePlacement, int>
candidatesFromTrace(const checker::Trace &T, int MinLine,
                    const std::set<FencePlacement> &Placed) {
  std::map<FencePlacement, int> Cands;
  const std::vector<checker::TraceEntry> &M = T.MemoryOrder;
  for (size_t I = 0; I < M.size(); ++I) {
    // The init thread (thread 0 by the test-builder convention) precedes
    // every other access; its internal order is unobservable, so its
    // inversions are noise.
    if (M[I].Thread == 0)
      continue;
    for (size_t J = I + 1; J < M.size(); ++J) {
      // M[I] is <M-before M[J]; an inversion means M[J] is po-before M[I].
      if (M[I].Thread != M[J].Thread || M[J].PoIndex >= M[I].PoIndex)
        continue;
      const checker::TraceEntry &X = M[J]; // po-earlier, <M-later
      const checker::TraceEntry &Y = M[I]; // po-later, <M-earlier
      int Line = attributedLine(Y, MinLine);
      if (Line < 0)
        continue;
      FencePlacement P;
      P.Line = Line;
      P.Kind = lsl::fenceKindFor(!X.IsStore, !Y.IsStore);
      if (Placed.count(P))
        continue;
      ++Cands[P];
    }
  }
  return Cands;
}

bool pickCandidate(const std::map<FencePlacement, int> &Cands,
                   FencePlacement &Out) {
  bool Have = false;
  int BestScore = 0;
  for (const auto &[P, Score] : Cands) {
    bool Better = !Have || Score > BestScore ||
                  (Score == BestScore &&
                   (kindPreference(P.Kind) < kindPreference(Out.Kind) ||
                    (kindPreference(P.Kind) == kindPreference(Out.Kind) &&
                     P.Line < Out.Line)));
    if (Better) {
      Out = P;
      BestScore = Score;
      Have = true;
    }
  }
  return Have;
}

} // namespace

SynthResult
checkfence::harness::synthesizeFences(const std::string &ImplSource,
                                      const std::vector<TestSpec> &Tests,
                                      const SynthOptions &Opts) {
  SynthResult Result;
  Timer Total;
  std::atomic<int> ChecksRun{0};
  const int MinLine = impls::firstImplLine(ImplSource);

  // Thread-safe: compiles its own program and runs its own check, so the
  // minimization pass can fan these out across workers. Every candidate
  // differs from the others in fences only, so with a spec store in
  // Check.Specs they mine each specification once.
  auto RunOnce = [&](const TestSpec &Test,
                     const std::vector<FencePlacement> &Fences)
      -> CheckResult {
    ++ChecksRun;
    frontend::LoweringOptions LO;
    LO.StripFences = true;
    frontend::DiagEngine Diags;
    lsl::Program Impl;
    CheckResult R;
    if (!frontend::compileC(ImplSource, Opts.Defines, Impl, Diags, LO)) {
      R.Status = Status::Error;
      R.Message = "frontend error:\n" + Diags.str();
      return R;
    }
    applyFencePlacements(Impl, Fences);
    std::vector<std::string> Threads = buildTestThreads(Impl, Test);
    return checker::runCheck(Impl, Threads, Opts.Check);
  };

  auto Fail = [&](const std::string &Msg) {
    Result.Success = false;
    Result.Message = Msg;
    Result.ChecksRun = ChecksRun;
    Result.TotalSeconds = Total.seconds();
    return Result;
  };

  std::vector<FencePlacement> Placed;
  std::set<FencePlacement> PlacedSet;

  // Seed placements from the critical-cycle analysis: the set of
  // (line, kind) cuts that address at least one statically harmful delay
  // pair - a pair on a critical cycle or a store-load coherence hazard -
  // of the program with the current fences. candidatesFromTrace mines
  // every program-order inversion of a counterexample, most of which are
  // incidental (the execution reordered them, but no cycle runs through
  // them, so a fence there cannot be load-bearing and the necessity pass
  // would remove it again); intersecting the candidates with these cuts
  // steers each round toward the placements that can actually survive.
  auto SeedCuts = [&](const TestSpec &Test) {
    std::set<FencePlacement> Cuts;
    frontend::LoweringOptions LO;
    LO.StripFences = true;
    frontend::DiagEngine Diags;
    lsl::Program Impl;
    if (!frontend::compileC(ImplSource, Opts.Defines, Impl, Diags, LO))
      return Cuts;
    applyFencePlacements(Impl, Placed);
    std::vector<std::string> Threads = buildTestThreads(Impl, Test);
    std::shared_ptr<const checker::Unrolling> U =
        checker::unroll(Impl, Threads, Opts.Check.InitialBounds);
    if (!U->ok())
      return Cuts;
    analysis::AnalysisOptions AO;
    AO.MinLine = MinLine;
    analysis::RobustnessResult RR =
        analysis::analyzeRobustness(U->Flat, U->Ranges, Opts.Check.Model, AO);
    for (const analysis::SuggestedCut &C : RR.Cuts) {
      FencePlacement P;
      P.Line = C.Line;
      P.Kind = C.Kind;
      Cuts.insert(P);
    }
    return Cuts;
  };

  // Repair the tests in order. Fences only restrict the execution set, so
  // a repaired test never regresses when later fences are added.
  Timer RepairTimer;
  for (const TestSpec &Test : Tests) {
    obs::Span RepairSpan("synth",
                         [&] { return "repair:" + Test.Name; });
    for (;;) {
      obs::Span RoundSpan("synth", "repair_round");
      CheckResult R = RunOnce(Test, Placed);
      if (R.Status == Status::Pass) {
        Result.Log.push_back(
            formatString("%s: PASS with %d fences", Test.Name.c_str(),
                         static_cast<int>(Placed.size())));
        break;
      }
      if (R.Status == Status::SequentialBug)
        return Fail(Test.Name +
                    ": implementation misbehaves on a serial execution; "
                    "no fence placement can repair it");
      if (R.Status != Status::Fail)
        return Fail(Test.Name + ": " + statusName(R.Status) + ": " +
                    R.Message);
      if (!R.Counterexample)
        return Fail(Test.Name + ": counterexample unavailable");
      if (static_cast<int>(Placed.size()) >= MaxFences)
        return Fail(formatString("fence budget (%d) exhausted on %s",
                                 MaxFences, Test.Name.c_str()));

      std::map<FencePlacement, int> Cands =
          candidatesFromTrace(*R.Counterexample, MinLine, PlacedSet);
      if (Cands.empty())
        return Fail(Test.Name +
                    ": counterexample has no program-order inversion in "
                    "the eligible region; the failure is not fixable by "
                    "fences (algorithmic bug?)");

      // When the model is in the analysis fragment, restrict the pick to
      // the candidates the static analysis can vouch for (the counter-
      // example gives no weight to the candidates it deems incidental,
      // so the placement order among the survivors is unchanged). If the
      // conservative analysis backs none of the candidates - its line
      // attribution can disagree with the trace's on inlined builtins -
      // fall back to the unrestricted pick rather than stall.
      bool Steered = false;
      if (Opts.SeedFromAnalysis &&
          analysis::analysisEligible(Opts.Check.Model)) {
        std::set<FencePlacement> Seeds = SeedCuts(Test);
        std::map<FencePlacement, int> Cut;
        for (const auto &[P, Score] : Cands)
          if (Seeds.count(P))
            Cut[P] = Score;
        if (!Cut.empty()) {
          Steered = Cut.size() < Cands.size();
          Cands = std::move(Cut);
        }
      }

      FencePlacement Pick;
      pickCandidate(Cands, Pick);
      Placed.push_back(Pick);
      PlacedSet.insert(Pick);
      Result.Log.push_back(formatString(
          "%s: FAIL; placing %s (%d candidate inversions%s)",
          Test.Name.c_str(), placementStr(Pick).c_str(),
          static_cast<int>(Cands.size()),
          Steered ? ", cycle-backed" : ""));
    }
  }

  Result.RepairSeconds = RepairTimer.seconds();

  // Necessity pass: drop any fence whose removal keeps all tests passing.
  // Candidates are tried one at a time (each removal changes the baseline
  // for the next), but the per-test re-checks of one candidate are
  // independent and fan out across Opts.Jobs worker threads.
  Timer MinimizeTimer;
  {
    obs::Span MinimizeSpan("synth", "minimize");
    for (size_t I = Placed.size(); I-- > 0;) {
      std::vector<FencePlacement> Without = Placed;
      Without.erase(Without.begin() + I);
      std::atomic<bool> AnyFail{false};
      engine::parallelFor(Opts.Jobs, Tests.size(), [&](size_t T) {
        if (AnyFail.load())
          return; // a sibling already refuted this removal
        if (!RunOnce(Tests[T], Without).passed())
          AnyFail.store(true);
      });
      if (!AnyFail) {
        Result.Log.push_back(
            formatString("minimize: %s is redundant, removing",
                         placementStr(Placed[I]).c_str()));
        Result.Removed.push_back(Placed[I]);
        Placed = std::move(Without);
      }
    }
  }

  Result.MinimizeSeconds = MinimizeTimer.seconds();

  std::sort(Placed.begin(), Placed.end());
  Result.Fences = std::move(Placed);
  Result.Success = true;
  Result.Message = formatString("%d fences suffice",
                                static_cast<int>(Result.Fences.size()));
  Result.ChecksRun = ChecksRun;
  Result.TotalSeconds = Total.seconds();
  return Result;
}
