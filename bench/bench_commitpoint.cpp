//===--- bench_commitpoint.cpp - E7: the Fig. 12 method comparison ----------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Compares the observation-set method against the commit-point method of
// the earlier case study [4] on the commit-annotated implementations
// (msn, ms2). Like Fig. 12, each data point is one test; the comparison
// runs under sequential consistency, where commit-access order determines
// the serialization (see DESIGN.md on this substitution), and both methods
// start from pre-computed loop bounds.
//
// Prints one table row per test. CF_BENCH_FULL=1 adds the paper's larger
// tests (minutes on msn).
//
//===----------------------------------------------------------------------===//

#include "baseline/CommitPointChecker.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

using namespace checkfence;
using namespace checkfence::harness;

int main(int argc, char **) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: bench_commitpoint (no arguments; "
                         "CF_BENCH_FULL=1 widens the grid)\n");
    return 64;
  }
  std::printf("=== Fig. 12: observation-set method vs commit-point method "
              "===\n");
  std::printf("%-9s %-6s | %12s %12s | %9s | %s\n", "impl", "test",
              "obs-set[s]", "commit[s]", "ratio", "verdicts");

  std::vector<std::pair<std::string, std::string>> Grid = {
      {"msn", "T0"},  {"msn", "Tpc2"}, {"msn", "Ti2"},
      {"ms2", "T0"},  {"ms2", "T1"},   {"ms2", "Tpc2"},
      {"ms2", "Ti2"}, {"ms2", "Tpc3"},
  };
  const char *Full = std::getenv("CF_BENCH_FULL");
  if (Full && std::string(Full) == "1") {
    Grid.push_back({"msn", "Tpc3"});
    Grid.push_back({"ms2", "Ti3"});
    Grid.push_back({"ms2", "T53"});
  }

  double SumObs = 0, SumCommit = 0;
  for (const auto &[Impl, Test] : Grid) {
    const std::string Source = impls::sourceFor(Impl);
    RunOptions Warm;
    Warm.Check.Model = memmodel::ModelParams::sc();
    checker::CheckResult W = runTest(Source, testByName(Test), Warm);

    RunOptions Opts = Warm;
    Opts.Check.InitialBounds = W.FinalBounds;
    checker::CheckResult RObs = runTest(Source, testByName(Test), Opts);
    double TObs = RObs.Stats.TotalSeconds;

    baseline::CommitPointOptions CO;
    CO.Model = memmodel::ModelParams::sc();
    CO.Bounds = W.FinalBounds;
    baseline::CommitPointResult RCp = baseline::runCommitPointTest(
        Source, impls::referenceFor("queue"), testByName(Test), CO);
    double TCp = RCp.TotalSeconds;

    std::printf("%-9s %-6s | %12.3f %12.3f | %8.2fx | %s / %s\n",
                Impl.c_str(), Test.c_str(), TObs, TCp,
                TObs > 0 ? TCp / TObs : 0.0,
                statusName(RObs.Status),
                RCp.Ok ? (RCp.Pass ? "PASS" : "FAIL") : RCp.Error.c_str());
    SumObs += TObs;
    SumCommit += TCp;
  }

  if (SumObs > 0)
    std::printf("\naggregate commit/observation time ratio: %.2fx\n"
                "(the paper reports the observation-set method 2.61x faster "
                "on average\nagainst its commit-point tool; our commit "
                "baseline shares this encoder,\nso the gap reflects the "
                "mining loop vs the doubled shadow formula)\n",
                SumCommit / SumObs);
  std::printf("\nNote: the lazy list has no known commit points (paper "
              "Sec. 5) - the\nobservation-set method needs no such "
              "annotations, which is its main\nqualitative advantage.\n");
  return 0;
}
