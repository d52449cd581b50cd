//===--- BenchUtil.h - shared flags + JSON schema for benches ---*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract every bench_* binary shares: the `--json PATH` / `--seed N`
/// flags and the one machine-readable report schema the perf-trajectory
/// tooling (scripts/bench_compare.py, the CI perf job) consumes.
///
/// Deliberately public-safe: standard library only, no src/ includes, so
/// the public-API benches (bench_matrix, bench_explore) can use it
/// without crossing the API boundary. Engine-layer helpers live in
/// BenchGrid.h instead.
///
/// Schema (bench_schema_version 1):
///
///   {
///     "bench_schema_version": 1,
///     "bench": "<name>",
///     "seed": <N>,
///     "full": <bool>,            // CF_BENCH_FULL grid widening
///     "context": { "<k>": "<v>", ... },
///     "metrics": [
///       {"name": "...", "value": <number>, "unit": "...",
///        "gate": <bool>, "better": "lower"|"higher"|"equal"},
///       ...
///     ]
///   }
///
/// "gate": true marks a metric the CI perf job fails on; "better" tells
/// the comparator which direction is a regression. Wall-clock metrics are
/// recorded but typically not gated (baselines travel across machines);
/// the gated set is ratios and machine-independent counts.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_BENCH_BENCHUTIL_H
#define CHECKFENCE_BENCH_BENCHUTIL_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace benchutil {

/// The schema version stamped into every bench report.
inline constexpr int BenchSchemaVersion = 1;

/// True when CF_BENCH_FULL=1: run the paper's full test grid instead of
/// the quick default subset.
inline bool fullRun() {
  const char *E = std::getenv("CF_BENCH_FULL");
  return E && std::string(E) == "1";
}

/// The flags shared by every bench binary.
struct Options {
  /// Where to write the JSON report: empty = no report, "-" = stdout.
  /// Human-readable output always goes to stdout, so a file path is the
  /// normal choice ("-" is only clean for benches that print nothing
  /// else).
  std::string JsonPath;
  /// Deterministic seed, recorded in the report; benches with a seeded
  /// workload (explore) feed it through.
  unsigned long long Seed = 1;
};

/// Strips `--json PATH` and `--seed N` out of argv (compacting it in
/// place and updating argc) so wrappers that own the remaining flags -
/// google-benchmark in bench_solver - still see theirs. Unrecognized
/// arguments are left alone. Returns false (with a message on stderr) on
/// a malformed flag.
inline bool parseBenchArgs(int &Argc, char **Argv, Options &Out) {
  int Kept = 1;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--json" || A == "--seed") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s requires an argument\n", A.c_str());
        return false;
      }
      const char *V = Argv[++I];
      if (A == "--json")
        Out.JsonPath = V;
      else
        Out.Seed = std::strtoull(V, nullptr, 10);
      continue;
    }
    Argv[Kept++] = Argv[I];
  }
  Argc = Kept;
  return true;
}

/// Accumulates metrics and renders the shared report schema.
class BenchReport {
public:
  BenchReport(std::string Bench, const Options &Opts)
      : Bench(std::move(Bench)), Seed(Opts.Seed), Full(fullRun()) {}

  /// Adds one metric. \p Better is "lower", "higher", or "equal"; \p Gate
  /// marks it for the CI regression comparator.
  BenchReport &metric(const std::string &Name, double Value,
                      const std::string &Unit, bool Gate = false,
                      const std::string &Better = "lower") {
    Metrics.push_back({Name, Value, Unit, Gate, Better});
    return *this;
  }

  /// Adds one free-form string context field (machine notes, grid names).
  BenchReport &context(const std::string &Key, const std::string &Value) {
    Context.push_back({Key, Value});
    return *this;
  }

  std::string json() const {
    std::string S = "{\n";
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "  \"bench_schema_version\": %d,\n  \"bench\": \"%s\",\n"
                  "  \"seed\": %llu,\n  \"full\": %s,\n",
                  BenchSchemaVersion, Bench.c_str(), Seed,
                  Full ? "true" : "false");
    S += Buf;
    S += "  \"context\": {";
    for (size_t I = 0; I < Context.size(); ++I)
      S += (I ? ", " : "") + quoted(Context[I].first) + ": " +
           quoted(Context[I].second);
    S += "},\n  \"metrics\": [\n";
    for (size_t I = 0; I < Metrics.size(); ++I) {
      const Metric &M = Metrics[I];
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"name\": \"%s\", \"value\": %.6g, "
                    "\"unit\": \"%s\", \"gate\": %s, \"better\": \"%s\"}%s\n",
                    M.Name.c_str(), M.Value, M.Unit.c_str(),
                    M.Gate ? "true" : "false", M.Better.c_str(),
                    I + 1 < Metrics.size() ? "," : "");
      S += Buf;
    }
    S += "  ]\n}\n";
    return S;
  }

  /// Writes the report to Opts.JsonPath when set ("-" = stdout). Returns
  /// false (with a message) when the file cannot be written.
  bool write(const Options &Opts) const {
    if (Opts.JsonPath.empty())
      return true;
    std::string S = json();
    if (Opts.JsonPath == "-") {
      std::fwrite(S.data(), 1, S.size(), stdout);
      return true;
    }
    std::FILE *F = std::fopen(Opts.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Opts.JsonPath.c_str());
      return false;
    }
    std::fwrite(S.data(), 1, S.size(), F);
    std::fclose(F);
    return true;
  }

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
    bool Gate;
    std::string Better;
  };

  static std::string quoted(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    return Out + "\"";
  }

  std::string Bench;
  unsigned long long Seed;
  bool Full;
  std::vector<std::pair<std::string, std::string>> Context;
  std::vector<Metric> Metrics;
};

} // namespace benchutil

#endif // CHECKFENCE_BENCH_BENCHUTIL_H
