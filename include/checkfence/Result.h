//===--- checkfence/Result.h - public result types --------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
// Public API - this header is installed and stable; see docs/API.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value types returned by the Verifier: the verdict of a single check
/// (Result), a batched matrix run (Report), a fence-synthesis run
/// (SynthOutcome), a weakest-model search (WeakestOutcome), and a litmus
/// reachability query (LitmusOutcome).
///
/// All results serialize through one versioned JSON schema: every report
/// carries a top-level "schema_version" field, and a single check emits
/// the same shape as a one-cell matrix report.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_PUBLIC_RESULT_H
#define CHECKFENCE_PUBLIC_RESULT_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace checkfence {

namespace engine {
struct MatrixReport; // internal representation behind Report
}
namespace explore {
struct ExploreReport; // internal representation behind ExploreOutcome
}

/// The version of the JSON report schema emitted by Result::json,
/// Report::json, and the CLI's --json flag.
inline constexpr int JsonSchemaVersion = 1;

/// Verdict of a check.
enum class Status {
  Pass,            ///< all executions within spec, bounds sufficient
  Fail,            ///< counterexample found
  SequentialBug,   ///< a *serial* execution already misbehaves
  BoundsExhausted, ///< lazy unrolling hit its iteration/probe budget
  Error,           ///< frontend/encoder/solver problem (see message)
  Cancelled,       ///< stopped by a CancelToken or an expired deadline
};

/// Stable display name: "PASS", "FAIL", "SEQUENTIAL-BUG",
/// "BOUNDS-EXHAUSTED", "ERROR", "CANCELLED".
const char *statusName(Status S);

/// The CLI exit-code convention: Pass = 0, Fail = 1, SequentialBug = 2,
/// BoundsExhausted = 3, Error = 4, Cancelled = 5.
int exitCodeFor(Status S);

/// Aggregate statistics of one check (the paper's Fig. 10/11 columns).
struct ResultStats {
  int ObservationCount = 0; ///< mined specification size
  int BoundIterations = 0;  ///< outer mine/include/probe rounds
  int UnrolledInstrs = 0;   ///< final inclusion problem size
  int Loads = 0;
  int Stores = 0;
  /// SAT size of the final inclusion instance alone (Fig. 10): each
  /// unrolling is solved on its own solver.
  int SatVars = 0;
  unsigned long long SatClauses = 0;
  double EncodeSeconds = 0;
  double SolveSeconds = 0;
  double MiningSeconds = 0;
  /// Per-phase wall clock of the mine/include/probe loop: the inclusion
  /// checks end to end and the lazy-unrolling bound probes.
  double IncludeSeconds = 0;
  double ProbeSeconds = 0;
  double TotalSeconds = 0;
  /// Always 0: every check runs on one solver, so no query is raced.
  /// Kept only so existing readers of this field still compile.
  int RacesWon = 0;
  /// Always 0: every inclusion query is answered by SAT, so no check is
  /// discharged by the reads-from oracle or the robustness analysis.
  /// Kept only so existing readers of these fields still compile.
  int OracleAttempts = 0;
  int OracleDischarges = 0;
  double OracleSeconds = 0;
  int AnalysisAttempts = 0;
  int AnalysisDischarges = 0;
  double AnalysisSeconds = 0;
};

/// Outcome of a single check request.
struct Result {
  Status Verdict = Status::Error;
  std::string Message;

  // Identity of what ran (as resolved by the Verifier).
  std::string Impl;  ///< implementation name, or "<source>" / file label
  std::string Test;  ///< test name ("custom" for ad-hoc notation)
  std::string Model; ///< model display name (e.g. "tso", "po:ll,fwd")

  /// The mined specification, one rendered observation per entry.
  std::vector<std::string> Observations;

  bool HasCounterexample = false;
  std::string CounterexampleTrace;   ///< multi-line rendering
  std::string CounterexampleColumns; ///< one column per thread
  /// The offending observation alone (the JSON "counterexample" field).
  std::string CounterexampleObservation;

  ResultStats Stats;

  /// Per-loop bounds the lazy unrolling settled on; feed them back as a
  /// later run's initial bounds (the Verifier's cache does this
  /// automatically for matching programs).
  std::map<std::string, int> FinalBounds;

  /// True when this result was served from the Verifier's cross-run
  /// result cache instead of a fresh run.
  bool FromCache = false;

  bool passed() const { return Verdict == Status::Pass; }
  bool failed() const {
    return Verdict == Status::Fail || Verdict == Status::SequentialBug;
  }

  /// Versioned JSON: the same shape as a one-cell matrix report. With
  /// \p IncludeTimings false the bytes are machine-independent and a
  /// cache hit reproduces the original run's bytes exactly. Note that a
  /// seeded run - a single check whose initial bounds came from an
  /// earlier pass of the same program in the cache, or a matrix cell
  /// seeded by its program's stronger passing lattice points - may
  /// settle on different bound/encoding statistics (fewer rounds, a
  /// larger final instance, another counterexample) than a cold run,
  /// never on a different verdict. Use noCache() for cold single checks.
  std::string json(bool IncludeTimings = true) const;
};

/// Outcome of a batched matrix request: a deterministic report over every
/// (impl, test, model) cell. Cheap to copy (shared immutable state).
class Report {
public:
  Report() = default;

  /// False when the request itself was invalid (unknown model name,
  /// empty matrix); error() then explains why and there are no cells.
  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  size_t cellCount() const;
  int jobs() const;
  double wallSeconds() const;
  int count(Status S) const;
  /// True when every cell ran to a verdict (no Error, no Cancelled
  /// cells).
  bool allCompleted() const;

  /// One row per cell, in matrix order.
  struct Cell {
    std::string Impl;
    std::string Test;
    std::string Model;
    Status Verdict = Status::Error;
    std::string Message;
    double Seconds = 0;
  };
  std::vector<Cell> cells() const;

  /// Versioned JSON report (schema_version field included). Timing-free
  /// output is byte-identical at any job count.
  std::string json(bool IncludeTimings = true) const;
  /// Human-readable fixed-width table.
  std::string table() const;

  /// \internal Constructed by the Verifier and the wire decoder.
  explicit Report(std::shared_ptr<const engine::MatrixReport> Rep)
      : Rep(std::move(Rep)) {}
  /// \internal
  static Report makeError(std::string Message);
  /// \internal The engine report behind this view (null when !ok()).
  const engine::MatrixReport *engineReport() const { return Rep.get(); }

private:
  std::shared_ptr<const engine::MatrixReport> Rep;
  std::string Err;
};

/// One synthesized fence placement.
struct SynthFence {
  int Line = 0;     ///< 1-based source line (prelude included)
  std::string Kind; ///< "load-load", "store-store", ...
};

/// Outcome of a fence-synthesis request.
struct SynthOutcome {
  bool Success = false;
  std::string Message; ///< diagnosis when Success is false
  /// The search was cut short by a CancelToken or deadline (Success is
  /// then false, but the placement was not refuted - just unfinished).
  bool Cancelled = false;
  std::vector<SynthFence> Fences;  ///< final minimized placement
  std::vector<SynthFence> Removed; ///< placed but minimized away
  int ChecksRun = 0;
  double TotalSeconds = 0;
  /// Per-phase wall clock: the counterexample-guided repair loop and the
  /// necessity (minimization) pass.
  double RepairSeconds = 0;
  double MinimizeSeconds = 0;
  std::vector<std::string> Log; ///< one narrative entry per search step

  /// {"schema_version", "success", "message", "checks", "seconds",
  ///  "repair_seconds", "minimize_seconds",
  ///  "fences": [{"line", "kind"}]}. With \p IncludeTimings false the
  /// three "*seconds" fields are left out and the bytes depend only on
  /// the search's outcome.
  std::string json(bool IncludeTimings = true) const;
};

/// One row of an analysis report: the delay set of a lattice point and
/// the robustness verdict of the program under it.
struct AnalysisModelRow {
  std::string Model;      ///< display name (e.g. "rmo")
  std::string Descriptor; ///< canonical descriptor ("po:ll,fwd")
  /// The model is within the analysis fragment (multi-copy atomic,
  /// access granularity); false for serial and nomca descriptors.
  bool Eligible = false;
  /// No delay pair lies on a critical cycle and no coherence hazard
  /// exists: the program with its current fences is sequentially
  /// consistent under this model.
  bool Robust = false;
  std::string Reason; ///< one-line explanation of the verdict
  // The program-order edge kinds the point may delay, plus forwarding
  // (program-independent properties of the lattice point).
  bool DelayLoadLoad = false;
  bool DelayLoadStore = false;
  bool DelayStoreLoad = false;
  bool DelayStoreStore = false;
  bool Forwarding = false;
  int DelayedPairs = 0;     ///< program pairs outside the enforced order
  int CyclePairs = 0;       ///< delay pairs on a critical cycle
  int CoherenceHazards = 0; ///< store-load hazards (forwarding-free only)
  std::vector<std::string> Cycles; ///< rendered witness cycles (capped)
  std::vector<SynthFence> Cuts;    ///< suggested fence placements
};

/// Outcome of a static robustness analysis request (Request::analyze).
/// Purely static: no SAT solving, no timings — json() is byte-identical
/// at any job count.
struct AnalysisOutcome {
  bool Ok = false;
  std::string Error; ///< set when Ok is false
  std::string Impl;
  std::string Test;
  // Flattened program shape the graphs were built over.
  int Loads = 0;
  int Stores = 0;
  int Fences = 0;
  std::vector<AnalysisModelRow> Models; ///< model axis order

  /// True when every eligible row is robust.
  bool allRobust() const;

  /// Versioned JSON ({"schema_version", "kind": "analysis", ...}).
  std::string json() const;
  /// Human-readable fixed-width table plus witness/cut details.
  std::string table() const;
};

/// Outcome of a weakest-model search for one (impl, test).
struct WeakestOutcome {
  bool Ok = false;
  std::string Error;
  /// The search was cut short by a CancelToken or deadline; the
  /// verdicts below cover only the lattice points checked before that.
  bool Cancelled = false;
  std::string Impl;
  std::string Test;
  /// Minimal passing models (several when incomparable); empty when
  /// nothing passed.
  std::vector<std::string> Weakest;
  int ModelsPassed = 0;
  int ModelsChecked = 0;
  int CellsRun = 0;      ///< checks actually executed
  int CellsInferred = 0; ///< verdicts obtained by lattice monotonicity
};

/// Outcome of a litmus reachability query.
struct LitmusOutcome {
  bool Ok = false;       ///< the query itself ran (compile + encode)
  bool Reachable = false;///< the expected observation has an execution
  std::string Error;     ///< set when Ok is false
};

/// One checker-vs-oracle disagreement found by an explore run, shrunk to
/// a minimal reproducer.
struct ExploreDivergence {
  std::string Label;  ///< originating scenario ("litmus-17", "sym-3:...")
  std::string Kind;   ///< "sat-vs-axiomatic", "lattice-monotonicity", ...
  std::string Model;  ///< diverging model; empty for cross-model kinds
  std::string Detail; ///< both sides' observation sets / verdicts
  bool Shrunk = false;
  int Threads = 0;    ///< repro size after shrinking
  int Ops = 0;
  std::string Notation;  ///< symbolic repro (TestSpec string)
  std::string Source;    ///< litmus repro (re-checkable CheckFence-C)
  std::string ReproPath; ///< persisted file; empty without a corpus dir
};

/// Outcome of a randomized differential exploration (Request::explore).
/// Cheap to copy (shared immutable state).
class ExploreOutcome {
public:
  ExploreOutcome() = default;

  /// False when the request itself was invalid (bad model axis, zero
  /// budget); error() then explains why.
  bool ok() const;
  const std::string &error() const;
  bool cancelled() const;

  unsigned long long seed() const;
  int generated() const;    ///< scenarios drawn from the generator
  int deduplicated() const; ///< dropped as already-seen fingerprints
  int run() const;          ///< scenarios that produced a comparison
  int skips() const;        ///< per-model fragment/budget skips
  int shrunk() const;       ///< divergences reduced by the shrinker
  double wallSeconds() const;

  /// Non-fatal problems (corpus/repro write failures): verdicts stand,
  /// but persistence did not happen as configured.
  std::vector<std::string> warnings() const;

  /// The divergences found (empty on a clean run), shrunk and persisted.
  std::vector<ExploreDivergence> divergences() const;
  bool clean() const { return ok() && divergences().empty(); }

  /// Versioned JSON report. Timing-free output is byte-identical across
  /// runs, machines, and job counts.
  std::string json(bool IncludeTimings = true) const;

  /// \internal Constructed by the Verifier.
  explicit ExploreOutcome(std::shared_ptr<const explore::ExploreReport> Rep)
      : Rep(std::move(Rep)) {}

private:
  std::shared_ptr<const explore::ExploreReport> Rep;
};

} // namespace checkfence

#endif // CHECKFENCE_PUBLIC_RESULT_H
