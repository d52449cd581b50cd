//===--- Explore.h - the scenario-exploration driver ------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Orchestrates one explore run: generate a budget of seeded scenarios
/// (deduped against the corpus by lowered-program fingerprint), fan them
/// across the worker pool through the DifferentialRunner, delta-debug
/// every divergence to a minimal repro, persist repros, and aggregate a
/// deterministic report.
///
/// Determinism contract: with timings excluded, the report is a pure
/// function of (seed, budget, models, generator limits) - byte-identical
/// across runs, job counts, machines, and cache states. Generation and
/// dedup run serially in index order; scenario outcomes land at their
/// scenario's slot; shrinking runs serially in index order.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_EXPLORE_EXPLORE_H
#define CHECKFENCE_EXPLORE_EXPLORE_H

#include "checkfence/Result.h"
#include "explore/Corpus.h"
#include "explore/Differential.h"
#include "explore/Generator.h"
#include "explore/Shrinker.h"

namespace checkfence {
namespace explore {

struct ExploreOptions {
  uint64_t Seed = 1;
  /// Distinct scenarios to run (dedup hits do not consume budget).
  int Budget = 100;
  /// Lattice points; empty = the default axis {sc, tso, relaxed}.
  std::vector<memmodel::ModelParams> Models;
  int Jobs = 1;
  bool Shrink = true;
  /// Persist seen fingerprints and repros here; empty = in-memory only.
  std::string CorpusDir;
  GeneratorLimits Limits;
  /// Oracle budget, reference switch and the test-only injection seam.
  /// Models and Control are overwritten by the driver from the fields
  /// of this struct.
  DiffOptions Diff;
  /// Streaming progress (onScenarioChecked / onDivergenceFound fire from
  /// worker threads). May be null.
  EventSink *Sink = nullptr;
  /// The request's stop check (token and deadline), polled at scenario
  /// boundaries and handed to the differential runner.
  api::RunControl Control;
};

struct ScenarioRecord {
  int Index = 0;
  std::string Label;
  std::string Kind;    ///< "litmus" or "symbolic"
  std::string Result;  ///< "ok", "divergence", "skipped", "cancelled"
  std::string Summary; ///< per-model observation counts / verdicts
  std::vector<std::string> Skips;
  double Seconds = 0;
};

struct ExploreReport {
  bool Ok = true;
  std::string Error;
  bool Cancelled = false;

  unsigned long long Seed = 0;
  int Budget = 0;
  std::vector<std::string> Models;
  int Jobs = 1;

  int Generated = 0;     ///< scenarios drawn from the generator
  int Deduplicated = 0;  ///< dropped as already-seen fingerprints
  int Run = 0;           ///< scenarios that produced a comparison
  int SkipEntries = 0;   ///< per-model fragment/budget skips
  int Shrunk = 0;        ///< divergences reduced by the shrinker

  std::vector<ScenarioRecord> Scenarios;
  std::vector<ExploreDivergence> Divergences;
  /// Non-fatal problems (corpus/repro write failures): the run's
  /// verdicts stand, but persistence did not happen as configured.
  std::vector<std::string> Warnings;
  double WallSeconds = 0;

  int divergenceCount() const {
    return static_cast<int>(Divergences.size());
  }

  /// Versioned JSON (schema_version included). With \p IncludeTimings
  /// false the bytes are machine- and job-count-independent.
  std::string json(bool IncludeTimings = true) const;
};

/// Runs one explore session on \p V (scenario checks share its session
/// pool). Invalid options come back as Ok = false.
ExploreReport runExplore(Verifier &V, const ExploreOptions &Opts);

} // namespace explore
} // namespace checkfence

#endif // CHECKFENCE_EXPLORE_EXPLORE_H
