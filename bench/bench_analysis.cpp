//===--- bench_analysis.cpp - critical-cycle analysis payoff ----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Quantifies what the static critical-cycle (delay-set) analysis buys in
// fence synthesis: msn T0, ms2 T0 and treiber U0 are synthesized twice,
// with and without analysis seeding. The final minimized placements must
// be identical (gated) and the seeded run must cost strictly fewer
// checker runs in total (gated) - seeding only steers each round away
// from placements no critical cycle runs through (which minimization
// would remove again), it never changes the 1-minimal result.
//
// Like bench_oracle this bench deliberately reaches into src/ (harness,
// memmodel).
//
// `--json PATH` writes the shared bench schema for
// scripts/bench_compare.py.
//
//===----------------------------------------------------------------------===//

#include "BenchGrid.h"

#include "harness/FenceSynth.h"
#include "memmodel/MemoryModel.h"

#include <cstdio>
#include <vector>

using namespace checkfence;

int main(int argc, char **argv) {
  benchutil::Options BO;
  if (!benchutil::parseBenchArgs(argc, argv, BO))
    return 64;

  struct Workload {
    const char *Impl;
    const char *Test;
  };
  std::vector<Workload> Work = {
      {"msn", "T0"}, {"ms2", "T0"}, {"treiber", "U0"}};

  const memmodel::ModelParams SynthModels[] = {
      memmodel::ModelParams::relaxed(), memmodel::ModelParams::pso(),
      memmodel::ModelParams::tso()};

  int ChecksSeeded = 0, ChecksUnseeded = 0, PlacementMismatches = 0;
  double SeededSeconds = 0, UnseededSeconds = 0;
  std::printf("=== fence synthesis: analysis seeding A/B ===\n");
  std::printf("%-9s %-5s %-8s | %7s %7s | %6s %6s | %s\n", "impl", "test",
              "model", "chk(s)", "chk(u)", "fences", "same", "result");
  for (const Workload &W : Work) {
    std::string Source = impls::sourceFor(W.Impl);
    for (memmodel::ModelParams Model : SynthModels) {
      harness::SynthOptions Opts;
      Opts.Check.Model = Model;
      Opts.SeedFromAnalysis = true;
      harness::SynthResult Seeded =
          harness::synthesizeFences(Source, {harness::testByName(W.Test)},
                                    Opts);
      Opts.SeedFromAnalysis = false;
      harness::SynthResult Plain =
          harness::synthesizeFences(Source, {harness::testByName(W.Test)},
                                    Opts);

      const bool Same = Seeded.Success == Plain.Success &&
                        Seeded.Fences == Plain.Fences;
      PlacementMismatches += !Same;
      ChecksSeeded += Seeded.ChecksRun;
      ChecksUnseeded += Plain.ChecksRun;
      SeededSeconds += Seeded.TotalSeconds;
      UnseededSeconds += Plain.TotalSeconds;
      std::printf("%-9s %-5s %-8s | %7d %7d | %6d %6s | %s\n", W.Impl,
                  W.Test, memmodel::modelName(Model).c_str(),
                  Seeded.ChecksRun, Plain.ChecksRun,
                  static_cast<int>(Seeded.Fences.size()),
                  Same ? "yes" : "NO", Seeded.Success ? "ok"
                                                      : Seeded.Message.c_str());
    }
  }
  const bool StrictlyFewer = ChecksSeeded < ChecksUnseeded;

  std::printf("\n{\n");
  std::printf("  \"bench\": \"analysis\",\n");
  std::printf("  \"synth_checks_seeded\": %d,\n", ChecksSeeded);
  std::printf("  \"synth_checks_unseeded\": %d,\n", ChecksUnseeded);
  std::printf("  \"synth_placement_mismatches\": %d,\n",
              PlacementMismatches);
  std::printf("  \"synth_seeded_seconds\": %.3f,\n", SeededSeconds);
  std::printf("  \"synth_unseeded_seconds\": %.3f\n", UnseededSeconds);
  std::printf("}\n");

  // Gated: the placement identity and the seeded counts (the search is
  // deterministic); wall clock stays trajectory data.
  benchutil::BenchReport R("analysis", BO);
  R.metric("synth_checks_seeded", ChecksSeeded, "checks", /*Gate=*/true,
           "equal")
      .metric("synth_checks_unseeded", ChecksUnseeded, "checks",
              /*Gate=*/true, "equal")
      .metric("synth_placement_mismatches", PlacementMismatches,
              "workloads", /*Gate=*/true, "equal")
      .metric("synth_seeded_strictly_fewer", StrictlyFewer ? 1 : 0,
              "bool", /*Gate=*/true, "equal")
      .metric("synth_seeded_seconds", SeededSeconds, "seconds")
      .metric("synth_unseeded_seconds", UnseededSeconds, "seconds");
  if (!R.write(BO))
    return 64;

  return (PlacementMismatches == 0 && StrictlyFewer) ? 0 : 1;
}
