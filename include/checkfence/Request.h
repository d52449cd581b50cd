//===--- checkfence/Request.h - fluent request builder ----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
// Public API - this header is installed and stable; see docs/API.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Request describes one unit of work for the Verifier: a single check,
/// a batched (impl x test x model) matrix, a full lattice sweep, a
/// weakest-passing-model search, a fence synthesis, or a litmus
/// reachability query. Build one with a factory plus fluent setters:
///
///   auto R = Verifier().check(
///       Request::check("msn", "T0").model("tso").stripFences());
///
/// Fields are public and stable; unset option fields mean "use the
/// library default" (there is exactly one defaults instance inside the
/// engine, so a default change can never skew only some callers).
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_PUBLIC_REQUEST_H
#define CHECKFENCE_PUBLIC_REQUEST_H

#include <optional>
#include <string>
#include <vector>

namespace checkfence {

class Request {
public:
  enum class Kind {
    Check,        ///< one (impl, test, model) check
    Matrix,       ///< batched (impls x tests x models) matrix
    Sweep,        ///< matrix over the full relaxation lattice
    WeakestModel, ///< active weakest-passing-model search
    Synthesis,    ///< counterexample-guided fence synthesis
    Litmus,       ///< reachability of one observation (litmus test)
    Explore,      ///< randomized differential scenario exploration
    Analyze,      ///< static critical-cycle robustness analysis (lint)
  };

  //===--------------------------------------------------------------===//
  // Factories
  //===--------------------------------------------------------------===//

  /// A single check of a built-in implementation on a catalog test.
  static Request check(std::string Impl, std::string Test) {
    Request R;
    R.RequestKind = Kind::Check;
    R.ImplName = std::move(Impl);
    R.TestName = std::move(Test);
    return R;
  }
  /// A single check assembled piecewise (source/notation/...).
  static Request check() {
    Request R;
    R.RequestKind = Kind::Check;
    return R;
  }
  /// A batched matrix; empty axes mean "all" (see impls/tests/models).
  static Request matrix() {
    Request R;
    R.RequestKind = Kind::Matrix;
    return R;
  }
  /// A matrix over the full relaxation lattice (implies models
  /// "lattice"); the report includes the weakest-passing summary.
  static Request sweep() {
    Request R;
    R.RequestKind = Kind::Sweep;
    return R;
  }
  /// Active weakest-passing-model search for one (impl, test): walks the
  /// lattice weakest-first and skips monotonicity-implied points.
  static Request weakestModel(std::string Impl, std::string Test) {
    Request R;
    R.RequestKind = Kind::WeakestModel;
    R.ImplName = std::move(Impl);
    R.TestName = std::move(Test);
    return R;
  }
  /// Fence synthesis for an implementation on one or more tests.
  static Request synthesis(std::string Impl, std::string Test) {
    Request R;
    R.RequestKind = Kind::Synthesis;
    R.ImplName = std::move(Impl);
    R.TestName = std::move(Test);
    return R;
  }
  /// Litmus reachability: is the expected observation producible? The
  /// source is compiled verbatim (no prelude); add one thread() per
  /// zero-argument op procedure and the expected observe() values.
  static Request litmus(std::string Source) {
    Request R;
    R.RequestKind = Kind::Litmus;
    R.SourceText = std::move(Source);
    return R;
  }
  /// Static critical-cycle (delay-set) robustness analysis of one
  /// (impl, test): no SAT solving, purely the conflict/program-order
  /// graph. Reports, per lattice point of the model axis (models();
  /// default the full lattice), the delay pairs the point admits, a
  /// robustness verdict with witness cycles, and suggested fence cuts.
  /// See docs/ANALYSIS.md.
  static Request analyze(std::string Impl, std::string Test) {
    Request R;
    R.RequestKind = Kind::Analyze;
    R.ImplName = std::move(Impl);
    R.TestName = std::move(Test);
    return R;
  }
  /// A static analysis request assembled piecewise (source/notation/...).
  static Request analyze() {
    Request R;
    R.RequestKind = Kind::Analyze;
    return R;
  }
  /// Randomized differential exploration: generate seeded scenarios,
  /// fan each across the model axis (models(); default sc/tso/relaxed),
  /// cross-check the engine against the independent oracles, and shrink
  /// any divergence to a persisted minimal repro. See docs/EXPLORE.md.
  static Request explore() {
    Request R;
    R.RequestKind = Kind::Explore;
    return R;
  }

  //===--------------------------------------------------------------===//
  // What to check
  //===--------------------------------------------------------------===//

  /// Built-in implementation name (ms2, msn, lazylist, harris, snark,
  /// treiber).
  Request &impl(std::string Name) {
    ImplName = std::move(Name);
    return *this;
  }
  /// Raw CheckFence-C source instead of a built-in; the shared prelude
  /// (cas/dcas/locks) is prepended automatically (except for litmus).
  Request &source(std::string Text) {
    SourceText = std::move(Text);
    return *this;
  }
  /// Display label for source-based requests (defaults to "<source>").
  Request &label(std::string Text) {
    Label = std::move(Text);
    return *this;
  }
  /// Data-type kind for source/notation requests: queue, set, deque, or
  /// stack.
  Request &dataType(std::string Kind) {
    DataKind = std::move(Kind);
    return *this;
  }
  /// Catalog test name (T0, Tpc3, Sac, D0, U0, ...).
  Request &test(std::string Name) {
    TestName = std::move(Name);
    return *this;
  }
  /// Ad-hoc symbolic test in Fig. 8 notation, e.g. "e ( ed | de )";
  /// requires dataType() unless the impl determines it.
  Request &notation(std::string Text) {
    Notation = std::move(Text);
    return *this;
  }
  /// Target memory model: a registry name (sc, tso, pso, rmo, relaxed,
  /// serial) or a lattice descriptor like "po:ll+ls,fwd". Unset = the
  /// library default (relaxed).
  Request &model(std::string Name) {
    ModelName = std::move(Name);
    return *this;
  }

  // Matrix axes. Empty means "all" (implementations / kind-matching
  // tests / the single model() value). models() entries additionally
  // accept "all" (every named model) and "lattice" (the full sweep).
  Request &impls(std::vector<std::string> Names) {
    Impls = std::move(Names);
    return *this;
  }
  Request &tests(std::vector<std::string> Names) {
    Tests = std::move(Names);
    return *this;
  }
  Request &models(std::vector<std::string> Names) {
    Models = std::move(Names);
    return *this;
  }

  // Litmus queries.
  /// Adds one test thread running the named zero-argument op procedure.
  Request &thread(std::string Proc) {
    LitmusThreads.push_back(std::move(Proc));
    return *this;
  }
  /// The expected observe() values, in observation order: one per
  /// observation slot, or observable() answers with an error.
  Request &expect(std::vector<long long> Values) {
    ExpectedValues = std::move(Values);
    return *this;
  }

  //===--------------------------------------------------------------===//
  // Program variants
  //===--------------------------------------------------------------===//

  Request &define(std::string Name) {
    Defines.push_back(std::move(Name));
    return *this;
  }
  /// Remove every fence() call before checking.
  Request &stripFences(bool Strip = true) {
    StripAllFences = Strip;
    return *this;
  }
  /// Remove only the fence on this source line (repeatable).
  Request &stripFenceLine(int Line) {
    StripLines.push_back(Line);
    return *this;
  }
  /// Mine the specification from the sequential reference implementation
  /// of the impl's kind (the paper's "refset" mode).
  Request &refSpec(bool Enable = true) {
    UseRefSpec = Enable;
    return *this;
  }

  //===--------------------------------------------------------------===//
  // Engine options (unset = library default)
  //===--------------------------------------------------------------===//

  /// Disable range-analysis optimizations (the Fig. 11c ablation).
  Request &rangeAnalysis(bool Enable) {
    UseRangeAnalysis = Enable;
    return *this;
  }
  Request &maxBoundIterations(int N) {
    MaxBoundIterations = N;
    return *this;
  }
  Request &maxProbes(int N) {
    MaxProbes = N;
    return *this;
  }
  Request &conflictBudget(long long N) {
    ConflictBudget = N;
    return *this;
  }
  /// Run the non-incremental reference pipeline (one fresh solver per
  /// query) instead of the session engine, for every check the request
  /// runs: check(), every matrix/sweep cell, every weakestModels() step
  /// and every synthesize() candidate (explore ignores it). Fresh checks
  /// share nothing - no mined specification is reused across lattice
  /// points or fence variants - so they serve as the independent
  /// differential reference.
  Request &freshPipeline(bool Enable = true) {
    Fresh = Enable;
    return *this;
  }
  /// Worker threads for the request's one parallel layer: matrix
  /// programs (the cells sharing impl and test, which run in sequence so
  /// stronger lattice points can seed weaker ones' loop bounds),
  /// synthesis minimization re-checks, explore scenarios or analysis
  /// model rows (0 = the Verifier's configured default). Each check runs
  /// on one solver on one thread; single checks and weakest-model walks
  /// ignore this.
  Request &jobs(int N) {
    Jobs = N;
    return *this;
  }
  /// Use the polynomial reads-from oracle where eligible (default on):
  /// in checks it discharges candidate observations before the SAT
  /// solver, in explore it replaces the brute-force enumerator on
  /// eligible lattice points. Verdicts, observation sets, and
  /// timing-free JSON are identical either way; see docs/ORACLES.md.
  Request &fastOracle(bool Enable = true) {
    UseFastOracle = Enable;
    return *this;
  }

  //===--------------------------------------------------------------===//
  // Explore options
  //===--------------------------------------------------------------===//

  /// Deterministic generation seed: the same (seed, budget, models)
  /// produce byte-identical timing-free reports at any job count.
  Request &seed(unsigned long long Value) {
    ExploreSeed = Value;
    return *this;
  }
  /// Number of distinct scenarios to run (corpus-deduplicated
  /// duplicates do not consume budget).
  Request &budget(int Scenarios) {
    ExploreBudget = Scenarios;
    return *this;
  }
  /// Delta-debug divergent scenarios to minimal repros (default on).
  Request &shrink(bool Enable = true) {
    ExploreShrink = Enable;
    return *this;
  }
  /// Corpus directory: seen-scenario fingerprints and shrunk repros
  /// persist here across runs. Empty = in-memory only.
  Request &corpus(std::string Dir) {
    CorpusDir = std::move(Dir);
    return *this;
  }
  /// With the fast oracle on, explore re-runs the brute-force
  /// enumerator as a differential reference on every Nth eligible
  /// litmus scenario (0 = never). Sampling never changes the report;
  /// a disagreement surfaces as an "oracle-vs-enumerator" divergence.
  Request &oracleSamplePeriod(int N) {
    OracleSamplePeriod = N;
    return *this;
  }
  /// Out of 1000 explore scenarios, how many are symbolic catalog
  /// tests; the rest are litmus programs (-1 = the generator default,
  /// currently 300). 0 gives a pure litmus run - the oracle-checked
  /// fragment - which is dramatically cheaper per scenario than the
  /// SAT-bound symbolic checks.
  Request &symbolicShare(int PerMille) {
    SymbolicPerMille = PerMille;
    return *this;
  }

  //===--------------------------------------------------------------===//
  // Control
  //===--------------------------------------------------------------===//

  /// Soft deadline measured from dispatch; on expiry the run stops at the
  /// next phase boundary with Status::Cancelled (0 = none).
  Request &deadline(double Seconds) {
    DeadlineSeconds = Seconds;
    return *this;
  }
  /// Bypass the Verifier's result cache for this request.
  Request &noCache(bool Bypass = true) {
    UseCache = !Bypass;
    return *this;
  }
  /// Write a Chrome trace-event / Perfetto-compatible span timeline of
  /// this request to `Path` (loadable at https://ui.perfetto.dev). Works
  /// locally and through `RemoteVerifier`, where the server-side spans
  /// (queue wait, shard dispatch, solve) are merged into the client's
  /// timeline. Tracing is purely observational: verdicts and timing-free
  /// JSON are byte-identical with it on or off. Empty = disabled.
  /// See docs/OBSERVABILITY.md.
  Request &traceFile(std::string Path) {
    TraceFile = std::move(Path);
    return *this;
  }

  //===--------------------------------------------------------------===//
  // Synthesis options
  //===--------------------------------------------------------------===//

  /// Repair the existing placement instead of stripping fences first.
  Request &synthFromExisting(bool Keep = true) {
    SynthStrip = !Keep;
    return *this;
  }
  /// Restrict insertions to source lines >= N (default: after the
  /// prelude).
  Request &synthMinLine(int N) {
    SynthMinLine = N;
    return *this;
  }
  Request &synthMaxFences(int N) {
    SynthMaxFences = N;
    return *this;
  }
  Request &synthMinimize(bool Enable) {
    SynthMinimize = Enable;
    return *this;
  }

  //===--------------------------------------------------------------===//
  // Fields (public and stable; read by the Verifier)
  //===--------------------------------------------------------------===//

  Kind RequestKind = Kind::Check;

  std::string ImplName;
  std::string SourceText;
  std::string Label;
  std::string DataKind;
  std::string TestName;
  std::string Notation;
  std::string ModelName;

  std::vector<std::string> Impls;
  std::vector<std::string> Tests;
  std::vector<std::string> Models;

  std::vector<std::string> LitmusThreads;
  std::vector<long long> ExpectedValues;

  std::vector<std::string> Defines;
  bool StripAllFences = false;
  std::vector<int> StripLines;
  bool UseRefSpec = false;

  std::optional<bool> UseRangeAnalysis;
  std::optional<int> MaxBoundIterations;
  std::optional<int> MaxProbes;
  std::optional<long long> ConflictBudget;
  bool Fresh = false;
  int Jobs = 0;
  bool UseFastOracle = true;

  double DeadlineSeconds = 0;
  bool UseCache = true;
  std::string TraceFile;

  bool SynthStrip = true;
  std::optional<int> SynthMinLine;
  std::optional<int> SynthMaxFences;
  bool SynthMinimize = true;

  unsigned long long ExploreSeed = 1;
  int ExploreBudget = 100;
  bool ExploreShrink = true;
  std::string CorpusDir;
  int OracleSamplePeriod = 8;
  int SymbolicPerMille = -1;
};

} // namespace checkfence

#endif // CHECKFENCE_PUBLIC_REQUEST_H
