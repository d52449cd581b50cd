//===--- bench_matrix.cpp - matrix-runner trajectory ------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// The perf-trajectory bench for the check engine, entirely through the
// public Verifier API:
//
//  * the Fig. 8 queue-family matrix at one worker and at N workers
//    (inter-cell parallelism),
//  * per-cell fresh-vs-session engine comparisons (incrementality win).
//
// `--json PATH` writes the shared bench schema (see BenchUtil.h) that
// scripts/bench_compare.py gates CI on; `--seed N` is recorded (the
// workload itself is deterministic). CF_BENCH_FULL=1 widens the matrix;
// CF_BENCH_JOBS overrides the parallel job count (default 4).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "checkfence/checkfence.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace checkfence;

namespace {

/// Times one cell through the from-scratch pipeline and the session
/// engine; returns a JSON object fragment (an error object on failure,
/// so the report always stays parseable). Both checks run uncached, so
/// each starts on a fresh solver.
std::string benchFreshVsSession(const char *Impl, const char *Test,
                                const char *Model, double &SumFresh,
                                double &SumSession) {
  Verifier V;
  Request Base = Request::check(Impl, Test).model(Model).noCache();

  Result Fresh = V.check(Request(Base).freshPipeline());
  Result Sess = V.check(Base);
  if (Fresh.Verdict == Status::Error || Sess.Verdict == Status::Error)
    return "{\"impl\": \"" + std::string(Impl) + "\", \"test\": \"" +
           Test + "\", \"status\": \"ERROR\"}";
  SumFresh += Fresh.Stats.TotalSeconds;
  SumSession += Sess.Stats.TotalSeconds;

  char Buf[256];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"impl\": \"%s\", \"test\": \"%s\", \"model\": \"%s\", "
      "\"status\": \"%s\", \"fresh_seconds\": %.3f, "
      "\"session_seconds\": %.3f, \"speedup\": %.3f}",
      Impl, Test, Model, statusName(Sess.Verdict),
      Fresh.Stats.TotalSeconds, Sess.Stats.TotalSeconds,
      Sess.Stats.TotalSeconds > 0
          ? Fresh.Stats.TotalSeconds / Sess.Stats.TotalSeconds
          : 0);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  benchutil::Options BO;
  if (!benchutil::parseBenchArgs(argc, argv, BO))
    return 64;
  const bool Full = benchutil::fullRun();

  // The queue family of Fig. 8 on both queue implementations, under the
  // cheap models by default (msn's T1/Ti2+ cells run minutes each).
  std::vector<std::string> Tests = {"T0", "Tpc2"};
  std::vector<std::string> Models = {"sc", "tso"};
  if (Full) {
    Tests.insert(Tests.end(), {"T1", "Tpc3", "Ti2", "Ti3", "T53"});
    Models.push_back("relaxed");
  }

  int Jobs = 4;
  if (const char *E = std::getenv("CF_BENCH_JOBS"))
    Jobs = std::atoi(E) > 0 ? std::atoi(E) : Jobs;

  Verifier V;
  Request Base = Request::matrix()
                     .impls({"ms2", "msn"})
                     .tests(Tests)
                     .models(Models);
  Report Seq = V.matrix(Request(Base).jobs(1));
  Report Par = V.matrix(Request(Base).jobs(Jobs));
  if (!Seq.ok() || !Par.ok()) {
    std::fprintf(stderr, "matrix setup failed: %s\n",
                 (!Seq.ok() ? Seq : Par).error().c_str());
    return 1;
  }

  double Speedup =
      Par.wallSeconds() > 0 ? Seq.wallSeconds() / Par.wallSeconds() : 0;
  double SumFresh = 0, SumSession = 0;
  std::vector<std::string> Fragments;
  Fragments.push_back(
      benchFreshVsSession("msn", "T0", "relaxed", SumFresh, SumSession));
  Fragments.push_back(
      benchFreshVsSession("msn", "Tpc2", "sc", SumFresh, SumSession));
  Fragments.push_back(
      benchFreshVsSession("ms2", "Ti2", "relaxed", SumFresh, SumSession));
  if (Full)
    Fragments.push_back(
        benchFreshVsSession("msn", "Ti2", "sc", SumFresh, SumSession));

  // One parseable document: the per-cell engine comparison plus the
  // parallel-matrix trajectory.
  std::printf("{\n  \"bench\": \"checkfence-matrix\",\n"
              "  \"fresh_vs_session\": [\n");
  for (size_t I = 0; I < Fragments.size(); ++I)
    std::printf("    %s%s\n", Fragments[I].c_str(),
                I + 1 < Fragments.size() ? "," : "");
  std::printf("  ],\n");
  std::printf("  \"matrix\": {\n    \"cells\": %d,\n"
              "    \"jobs\": %d,\n    \"sequential_wall_seconds\": %.3f,\n"
              "    \"parallel_wall_seconds\": %.3f,\n"
              "    \"speedup\": %.3f,\n    \"parallel_report\": ",
              static_cast<int>(Par.cellCount()), Jobs, Seq.wallSeconds(),
              Par.wallSeconds(), Speedup);
  std::string Json = Par.json();
  std::printf("%s", Json.c_str());
  std::printf("  }\n}\n");

  // The machine-readable trajectory for scripts/bench_compare.py. Wall
  // clocks are recorded but not gated (baselines travel across
  // machines); the gates are result-equality and the cells count.
  benchutil::BenchReport R("matrix", BO);
  R.context("host_cores",
            std::to_string(std::thread::hardware_concurrency()));
  R.metric("matrix_cells", static_cast<double>(Par.cellCount()), "cells",
           /*Gate=*/true, "equal")
      .metric("matrix_all_completed", Par.allCompleted() ? 1 : 0, "bool",
              /*Gate=*/true, "equal")
      .metric("matrix_pass_cells",
              static_cast<double>(Par.count(Status::Pass)), "cells",
              /*Gate=*/true, "equal")
      .metric("matrix_seq_wall_seconds", Seq.wallSeconds(), "seconds")
      .metric("matrix_par_wall_seconds", Par.wallSeconds(), "seconds")
      .metric("matrix_jobs_speedup", Speedup, "ratio", /*Gate=*/false,
              "higher")
      .metric("session_speedup",
              SumSession > 0 ? SumFresh / SumSession : 0, "ratio",
              /*Gate=*/true, "higher");
  if (!R.write(BO))
    return 64;

  return Seq.allCompleted() && Par.allCompleted() ? 0 : 1;
}
