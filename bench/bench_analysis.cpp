//===--- bench_analysis.cpp - critical-cycle analysis payoff ----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Quantifies what the static critical-cycle (delay-set) analysis buys at
// its two integration points:
//
//  1. Phase-0 discharge rate: a fixed-seed stream of generated litmus
//     programs is checked on every lattice point the analysis serves
//     (analysisEligible but not readsFromEligible - the reads-from
//     oracle already owns sc/tso/pso). Counts how many check sessions
//     the robustness proof discharges without a single SAT solver call,
//     and A/Bs every cell against a run with the pruner disabled: the
//     verdicts and timing-free stats must be identical (gated).
//
//  2. Fence-synthesis seeding: msn T0, ms2 T0 and treiber U0 are
//     synthesized twice, with and without analysis seeding. The final minimized
//     placements must be identical (gated) and the seeded run must cost
//     strictly fewer checker runs in total (gated) - seeding only steers
//     each round away from placements no critical cycle runs through
//     (which minimization would remove again), it never changes the
//     1-minimal result.
//
// Like bench_oracle this bench deliberately reaches into src/ (memmodel,
// explore, checker, harness).
//
// `--json PATH` writes the shared bench schema for
// scripts/bench_compare.py; `--seed N` seeds the litmus stream.
// CF_BENCH_FULL=1 widens the scenario counts.
//
//===----------------------------------------------------------------------===//

#include "BenchGrid.h"

#include "analysis/CriticalCycles.h"
#include "checker/CheckFence.h"
#include "explore/Explore.h"
#include "frontend/Lowering.h"
#include "harness/FenceSynth.h"
#include "memmodel/MemoryModel.h"

#include <cstdio>
#include <vector>

using namespace checkfence;

namespace {

int preludeLines() {
  int N = 0;
  for (char C : impls::preludeSource())
    N += C == '\n';
  return N;
}

} // namespace

int main(int argc, char **argv) {
  benchutil::Options BO;
  if (!benchutil::parseBenchArgs(argc, argv, BO))
    return 64;
  const int Scenarios = benchutil::fullRun() ? 120 : 40;

  //===--------------------------------------------------------------------===//
  // Section 1: phase-0 discharge rate on the analysis-served axis.
  //===--------------------------------------------------------------------===//

  std::vector<memmodel::ModelParams> Served;
  for (const memmodel::ModelParams &M : memmodel::latticeModels())
    if (analysis::analysisEligible(M) && !memmodel::readsFromEligible(M))
      Served.push_back(M);

  explore::GeneratorLimits Limits;
  Limits.SymbolicPerMille = 0; // litmus programs only
  explore::Generator Gen(BO.Seed, Limits);

  int Cells = 0, Attempts = 0, Discharges = 0, Disagreements = 0;
  double PrunedSeconds = 0, UnprunedSeconds = 0;
  for (int I = 0; I < Scenarios; ++I) {
    explore::Scenario S = Gen.at(I);

    frontend::DiagEngine Diags;
    lsl::Program Prog;
    if (!frontend::compileC(S.Source, {}, Prog, Diags)) {
      std::fprintf(stderr, "scenario %d failed to compile:\n%s\n", I,
                   Diags.str().c_str());
      return 1;
    }
    harness::TestSpec Spec;
    Spec.Name = "bench";
    for (size_t T = 0; T < S.ThreadArgs.size(); ++T)
      Spec.Threads.push_back({harness::OpSpec{
          "t" + std::to_string(T) + "_op", S.ThreadArgs[T], false, false}});
    std::vector<std::string> Threads = harness::buildTestThreads(Prog, Spec);

    for (const memmodel::ModelParams &M : Served) {
      checker::CheckOptions On;
      On.Model = M;
      On.AnalysisPrune = true;
      checker::CheckResult RO = checker::runCheck(Prog, Threads, On);

      checker::CheckOptions Off = On;
      Off.AnalysisPrune = false;
      checker::CheckResult RF = checker::runCheck(Prog, Threads, Off);

      ++Cells;
      Attempts += RO.Stats.AnalysisAttempts;
      Discharges += RO.Stats.AnalysisDischarges;
      PrunedSeconds += RO.Stats.TotalSeconds;
      UnprunedSeconds += RF.Stats.TotalSeconds;
      if (RO.Status != RF.Status || RO.Spec != RF.Spec ||
          RO.FinalBounds != RF.FinalBounds)
        ++Disagreements;
    }
  }
  const double DischargeRate = Attempts > 0
                                   ? static_cast<double>(Discharges) /
                                         static_cast<double>(Attempts)
                                   : 0;

  //===--------------------------------------------------------------------===//
  // Section 2: seeded vs. unseeded fence synthesis.
  //===--------------------------------------------------------------------===//

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
      Opts.MinLine = preludeLines() + 1;
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
  std::printf("  \"litmus_scenarios\": %d,\n", Scenarios);
  std::printf("  \"litmus_cells\": %d,\n", Cells);
  std::printf("  \"analysis_attempts\": %d,\n", Attempts);
  std::printf("  \"analysis_discharges\": %d,\n", Discharges);
  std::printf("  \"discharge_rate\": %.3f,\n", DischargeRate);
  std::printf("  \"discharge_disagreements\": %d,\n", Disagreements);
  std::printf("  \"pruned_seconds\": %.3f,\n", PrunedSeconds);
  std::printf("  \"unpruned_seconds\": %.3f,\n", UnprunedSeconds);
  std::printf("  \"synth_checks_seeded\": %d,\n", ChecksSeeded);
  std::printf("  \"synth_checks_unseeded\": %d,\n", ChecksUnseeded);
  std::printf("  \"synth_placement_mismatches\": %d,\n",
              PlacementMismatches);
  std::printf("  \"synth_seeded_seconds\": %.3f,\n", SeededSeconds);
  std::printf("  \"synth_unseeded_seconds\": %.3f\n", UnseededSeconds);
  std::printf("}\n");

  // Gated: the soundness/identity invariants and the seeded counts (the
  // generator stream and the search are deterministic); wall clock stays
  // trajectory data.
  benchutil::BenchReport R("analysis", BO);
  R.context("litmus_scenarios", std::to_string(Scenarios))
      .context("served_models", std::to_string(Served.size()));
  R.metric("litmus_cells", Cells, "cells", /*Gate=*/true, "equal")
      .metric("analysis_attempts", Attempts, "attempts", /*Gate=*/true,
              "equal")
      .metric("analysis_discharges", Discharges, "discharges",
              /*Gate=*/true, "equal")
      .metric("discharge_disagreements", Disagreements, "cells",
              /*Gate=*/true, "equal")
      .metric("discharge_rate", DischargeRate, "ratio", /*Gate=*/false,
              "higher")
      .metric("synth_checks_seeded", ChecksSeeded, "checks",
              /*Gate=*/true, "equal")
      .metric("synth_checks_unseeded", ChecksUnseeded, "checks",
              /*Gate=*/true, "equal")
      .metric("synth_placement_mismatches", PlacementMismatches,
              "workloads", /*Gate=*/true, "equal")
      .metric("synth_seeded_strictly_fewer", StrictlyFewer ? 1 : 0,
              "bool", /*Gate=*/true, "equal")
      .metric("pruned_seconds", PrunedSeconds, "seconds")
      .metric("unpruned_seconds", UnprunedSeconds, "seconds")
      .metric("synth_seeded_seconds", SeededSeconds, "seconds")
      .metric("synth_unseeded_seconds", UnseededSeconds, "seconds");
  if (!R.write(BO))
    return 64;

  return (Disagreements == 0 && PlacementMismatches == 0 && StrictlyFewer)
             ? 0
             : 1;
}
