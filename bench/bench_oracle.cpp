//===--- bench_oracle.cpp - reads-from oracle vs. order enumeration ----------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Measures what retiring brute-force order enumeration buys. Two
// sections:
//
//  1. Raw oracle throughput: a fixed-seed stream of generated litmus
//     programs is checked on every fast-oracle lattice point (sc, tso,
//     pso) by both the polynomial reads-from oracle and the factorial
//     AxiomaticEnumerator. The observation sets must agree pair by pair
//     (gated), and the oracle must be at least 2x faster end to end
//     (gated as a boolean, since the raw ratio is machine-dependent).
//
//  2. Explore-level A/B, twice: on the full fast-oracle axis at the
//     explore default generator limits the fast and enumerator-forced
//     runs must produce byte-identical timing-free reports with zero
//     divergences (gated), and on pso at a wider access budget - the
//     regime where order enumeration is the actual bottleneck -
//     retiring the enumerator must at least halve the wall clock
//     (gated as a boolean; the raw ratio is trajectory data).
//
// Unlike the public-API benches this one deliberately reaches into
// src/ (memmodel, explore, checker) - section 1 times the oracles
// directly, without the engine around them.
//
// `--json PATH` writes the shared bench schema for
// scripts/bench_compare.py; `--seed N` seeds both sections.
// CF_BENCH_FULL=1 widens the scenario counts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "checkfence/checkfence.h"

#include "checker/SolveContext.h"
#include "explore/Explore.h"
#include "frontend/Lowering.h"
#include "harness/TestSpec.h"
#include "memmodel/AxiomaticEnumerator.h"
#include "memmodel/MemoryModel.h"
#include "memmodel/ReadsFromOracle.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

using namespace checkfence;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One (program, model) cell of the raw-throughput workload, encoded
/// once up front so the timed loops measure only the oracles.
struct Cell {
  std::unique_ptr<checker::SolveContext> Ctx;
  memmodel::ModelParams Model;
};

} // namespace

int main(int argc, char **argv) {
  benchutil::Options BO;
  if (!benchutil::parseBenchArgs(argc, argv, BO))
    return 64;
  const int RawScenarios = benchutil::fullRun() ? 400 : 120;
  const int ExploreBudget = benchutil::fullRun() ? 400 : 120;

  //===--------------------------------------------------------------------===//
  // Section 1: raw oracle throughput.
  //===--------------------------------------------------------------------===//

  explore::GeneratorLimits Limits;
  Limits.SymbolicPerMille = 0; // litmus programs only
  explore::Generator Gen(BO.Seed, Limits);

  const std::vector<memmodel::ModelParams> Models = {
      memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
      memmodel::ModelParams::pso()};

  std::vector<Cell> Cells;
  for (int I = 0; I < RawScenarios; ++I) {
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
          "t" + std::to_string(T) + "_op", S.ThreadArgs[T], false,
          false}});
    std::vector<std::string> Threads = harness::buildTestThreads(Prog, Spec);

    for (const memmodel::ModelParams &M : Models) {
      checker::ProblemConfig Cfg;
      Cfg.Model = M;
      auto Ctx = std::make_unique<checker::SolveContext>(
          Prog, Threads, trans::LoopBounds{}, Cfg);
      if (!Ctx->encoding().ok()) {
        std::fprintf(stderr, "scenario %d: %s\n", I,
                     Ctx->encoding().error().c_str());
        return 1;
      }
      Cells.push_back({std::move(Ctx), M});
    }
  }

  // Timed loop A: the polynomial reads-from oracle.
  std::vector<memmodel::OracleResult> RfResults;
  RfResults.reserve(Cells.size());
  double T0 = now();
  for (const Cell &C : Cells) {
    memmodel::ReadsFromOptions RO;
    RO.Model = C.Model;
    RfResults.push_back(
        memmodel::checkReadsFrom(C.Ctx->encoding().flat(), RO));
  }
  const double RfSeconds = now() - T0;

  // Timed loop B: brute-force order enumeration.
  std::vector<memmodel::OracleResult> EnumResults;
  EnumResults.reserve(Cells.size());
  T0 = now();
  for (const Cell &C : Cells) {
    memmodel::AxiomaticOptions AO;
    AO.Model = C.Model;
    EnumResults.push_back(
        memmodel::enumerateAxiomatic(C.Ctx->encoding().flat(), AO));
  }
  const double EnumSeconds = now() - T0;

  int Compared = 0, Equal = 0, Skipped = 0;
  for (size_t I = 0; I < Cells.size(); ++I) {
    if (!RfResults[I].Ok || !EnumResults[I].Ok) {
      ++Skipped;
      continue;
    }
    ++Compared;
    if (RfResults[I].Observations == EnumResults[I].Observations)
      ++Equal;
  }
  const double RawSpeedup = RfSeconds > 0 ? EnumSeconds / RfSeconds : 0;

  //===--------------------------------------------------------------------===//
  // Section 2: explore-level A/B.
  //
  // Two runs, two claims. (a) Identity: on the full fast-oracle axis
  // (sc, tso, pso) at the explore default generator limits, the
  // fast-oracle run and the enumerator-forced run must produce
  // byte-identical timing-free reports with zero divergences. (b)
  // Speedup: on pso - the eligible point where order enumeration is
  // the real bottleneck (weakest ordering, so the most interleavings,
  // and no sc reference-executor leg) - with a wider access budget,
  // retiring the enumerator must at least halve the wall clock.
  // Symbolic scenarios are excluded from both: they never reach an
  // oracle (data-structure addresses depend on loads), so they would
  // only dilute the measurement with SAT time common to both sides.
  //===--------------------------------------------------------------------===//

  auto runAB = [&](const explore::ExploreOptions &Base, double &FastSec,
                   double &SlowSec, explore::ExploreReport &FastRep,
                   explore::ExploreReport &SlowRep) {
    explore::ExploreOptions FastOpts = Base;
    FastOpts.Diff.UseFastOracle = true;
    // No inline sampling: the A/B measures what full retirement of the
    // enumerator buys. Oracle-vs-enumerator agreement is already gated
    // by section 1 and by the byte-identity comparison; production
    // explore keeps its default 1-in-8 sampling.
    FastOpts.Diff.EnumeratorSamplePeriod = 0;
    explore::ExploreOptions SlowOpts = Base;
    SlowOpts.Diff.UseFastOracle = false;

    Verifier Vf;
    double T = now();
    FastRep = explore::runExplore(Vf, FastOpts);
    FastSec = now() - T;
    Verifier Vs;
    T = now();
    SlowRep = explore::runExplore(Vs, SlowOpts);
    SlowSec = now() - T;
  };

  // (a) Identity on the full eligible axis.
  explore::ExploreOptions IdOpts;
  IdOpts.Seed = BO.Seed;
  IdOpts.Budget = ExploreBudget;
  for (const memmodel::ModelParams &M : Models)
    IdOpts.Models.push_back(M);
  IdOpts.Limits.SymbolicPerMille = 0;

  double IdFastSec = 0, IdSlowSec = 0;
  explore::ExploreReport Fast, Slow;
  runAB(IdOpts, IdFastSec, IdSlowSec, Fast, Slow);
  if (!Fast.Ok || !Slow.Ok) {
    std::fprintf(stderr, "explore failed: %s\n",
                 (!Fast.Ok ? Fast : Slow).Error.c_str());
    return 1;
  }
  const bool Identical = Fast.json(/*IncludeTimings=*/false) ==
                         Slow.json(/*IncludeTimings=*/false);
  const int Divergences = static_cast<int>(Fast.Divergences.size()) +
                          static_cast<int>(Slow.Divergences.size());

  // (b) Speedup on pso at a wider access budget.
  explore::ExploreOptions SpOpts;
  SpOpts.Seed = BO.Seed;
  SpOpts.Budget = benchutil::fullRun() ? 120 : 60;
  SpOpts.Models.push_back(memmodel::ModelParams::pso());
  SpOpts.Limits.SymbolicPerMille = 0;
  SpOpts.Limits.AccessBudget = 12;
  SpOpts.Limits.MaxThreads = 4;
  SpOpts.Limits.MaxVars = 4;

  double SpFastSec = 0, SpSlowSec = 0;
  explore::ExploreReport SpFast, SpSlow;
  runAB(SpOpts, SpFastSec, SpSlowSec, SpFast, SpSlow);
  if (!SpFast.Ok || !SpSlow.Ok) {
    std::fprintf(stderr, "explore failed: %s\n",
                 (!SpFast.Ok ? SpFast : SpSlow).Error.c_str());
    return 1;
  }
  const bool SpIdentical = SpFast.json(/*IncludeTimings=*/false) ==
                           SpSlow.json(/*IncludeTimings=*/false);
  const double ExploreSpeedup =
      SpFastSec > 0 ? SpSlowSec / SpFastSec : 0;
  const double FastSeconds = SpFastSec, SlowSeconds = SpSlowSec;

  std::printf("{\n");
  std::printf("  \"bench\": \"oracle\",\n");
  std::printf("  \"raw_scenarios\": %d,\n", RawScenarios);
  std::printf("  \"raw_cells\": %d,\n", static_cast<int>(Cells.size()));
  std::printf("  \"raw_compared\": %d,\n", Compared);
  std::printf("  \"raw_skipped\": %d,\n", Skipped);
  std::printf("  \"raw_obs_sets_equal\": %s,\n",
              Equal == Compared ? "true" : "false");
  std::printf("  \"rf_seconds\": %.3f,\n", RfSeconds);
  std::printf("  \"enum_seconds\": %.3f,\n", EnumSeconds);
  std::printf("  \"raw_speedup\": %.2f,\n", RawSpeedup);
  std::printf("  \"rf_cells_per_sec\": %.1f,\n",
              RfSeconds > 0 ? Cells.size() / RfSeconds : 0);
  std::printf("  \"enum_cells_per_sec\": %.1f,\n",
              EnumSeconds > 0 ? Cells.size() / EnumSeconds : 0);
  std::printf("  \"explore_budget\": %d,\n", ExploreBudget);
  std::printf("  \"explore_run\": %d,\n", Fast.Run);
  std::printf("  \"explore_divergences\": %d,\n", Divergences);
  std::printf("  \"explore_identical\": %s,\n", Identical ? "true" : "false");
  std::printf("  \"pso_run\": %d,\n", SpFast.Run);
  std::printf("  \"pso_fast_seconds\": %.3f,\n", FastSeconds);
  std::printf("  \"pso_slow_seconds\": %.3f,\n", SlowSeconds);
  std::printf("  \"pso_speedup\": %.2f,\n", ExploreSpeedup);
  std::printf("  \"pso_identical\": %s\n", SpIdentical ? "true" : "false");
  std::printf("}\n");

  // Gated: correctness booleans and seeded counts, plus the two >=2x
  // booleans the acceptance bar asks for (the raw ratios stay ungated -
  // they drift with the machine, the booleans should not).
  benchutil::BenchReport R("oracle", BO);
  R.context("raw_scenarios", std::to_string(RawScenarios))
      .context("explore_budget", std::to_string(ExploreBudget))
      .context("models", "sc,tso,pso");
  R.metric("raw_compared", Compared, "cells", /*Gate=*/true, "equal")
      .metric("obs_sets_equal", Equal == Compared ? 1 : 0, "bool",
              /*Gate=*/true, "equal")
      .metric("raw_speedup_ge_2x", RawSpeedup >= 2.0 ? 1 : 0, "bool",
              /*Gate=*/true, "equal")
      .metric("explore_run", Fast.Run, "scenarios", /*Gate=*/true,
              "equal")
      .metric("explore_divergences", Divergences, "divergences",
              /*Gate=*/true, "equal")
      .metric("explore_identical", Identical ? 1 : 0, "bool",
              /*Gate=*/true, "equal")
      .metric("pso_identical", SpIdentical ? 1 : 0, "bool",
              /*Gate=*/true, "equal")
      .metric("pso_speedup_ge_2x", ExploreSpeedup >= 2.0 ? 1 : 0,
              "bool", /*Gate=*/true, "equal")
      .metric("rf_seconds", RfSeconds, "seconds")
      .metric("enum_seconds", EnumSeconds, "seconds")
      .metric("raw_speedup", RawSpeedup, "ratio", /*Gate=*/false,
              "higher")
      .metric("pso_fast_seconds", FastSeconds, "seconds")
      .metric("pso_slow_seconds", SlowSeconds, "seconds")
      .metric("pso_speedup", ExploreSpeedup, "ratio", /*Gate=*/false,
              "higher");
  if (!R.write(BO))
    return 64;

  return (Equal == Compared && Identical && SpIdentical &&
          Divergences == 0)
             ? 0
             : 1;
}
