//===--- Differential.h - oracle-checked scenario execution -----*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one explore scenario across a configurable set of relaxation-
/// lattice points and cross-checks independent implementations of the
/// semantics against each other:
///
///  * \b Litmus scenarios: the SAT-mined observation set of every model
///    point must equal the AxiomaticEnumerator's brute-force enumeration
///    (two implementations of the Sec. 2.3.2 axioms that share no code
///    beyond FlatProgram), and under sc additionally the
///    ReferenceExecutor's interleaving enumeration. Observation sets
///    must also nest along the lattice order (stronger subset-of
///    weaker). The scenario is compiled and unrolled once: every model
///    point's SAT encoding and every oracle read one checker::Unrolling.
///  * \b Symbolic scenarios: the full checker verdict per model point,
///    one uncached Verifier::check (a fresh session) each, so a re-check
///    while shrinking reproduces the original run; verdicts must be
///    monotone along the lattice (pass under a weaker model implies pass
///    under every stronger one) and sequential-bug verdicts must agree
///    across models. The serial mined specification is additionally compared
///    against the ReferenceExecutor at invocation granularity.
///
/// Any disagreement, unexpected engine error, or broken invariant is
/// reported as a Divergence; fragment/budget limits are reported as
/// skips (never silently dropped).
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_EXPLORE_DIFFERENTIAL_H
#define CHECKFENCE_EXPLORE_DIFFERENTIAL_H

#include "api/RunControl.h"
#include "checkfence/Events.h"
#include "checkfence/Verifier.h"
#include "explore/Generator.h"
#include "lsl/Program.h"
#include "memmodel/MemoryModel.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace checkfence {
namespace explore {

struct DiffOptions {
  /// Lattice points every scenario fans out across. Must be non-empty.
  std::vector<memmodel::ModelParams> Models;
  /// Litmus oracle budget; scenarios over budget are skipped, not failed.
  uint64_t OracleMaxOrders = 20'000'000;
  /// Use the polynomial ReadsFromOracle as the litmus oracle on every
  /// readsFromEligible() (non-serial) lattice point; serial points stay
  /// on the AxiomaticEnumerator. Off = enumerator everywhere, kept as
  /// the tests' seam for differential runs against the fast path.
  bool UseFastOracle = true;
  /// With the fast oracle on, additionally run the AxiomaticEnumerator
  /// as a differential reference on every Nth eligible litmus scenario
  /// (keyed on Scenario::Index, so the sample set is identical at any
  /// job count); a disagreement is an "oracle-vs-enumerator"
  /// divergence. 0 = never sample. Sampled runs never add skips or
  /// otherwise alter the report, so the report is byte-identical across
  /// sample periods.
  int EnumeratorSamplePeriod = 8;
  /// The request's stop check, polled between models. Its token cancels
  /// the inner engine runs too, and the time left before its deadline is
  /// forwarded into each inner engine check, so a single slow generated
  /// check cannot overshoot by its full runtime.
  api::RunControl Control;
  /// Test seam: when set, a non-empty return is reported as an
  /// "injected" divergence for the scenario (litmus scenarios only; the
  /// argument is the compiled program before thread building). Lets the
  /// shrinker and repro persistence be exercised without a real
  /// checker bug.
  std::function<std::string(const lsl::Program &)> Inject;
};

/// One checker-vs-oracle disagreement (or broken cross-model invariant).
struct Divergence {
  std::string Kind;  ///< "sat-vs-axiomatic", "oracle-vs-enumerator",
                     ///< "sat-vs-reference", "serial-vs-reference",
                     ///< "lattice-monotonicity", "seqbug-inconsistency",
                     ///< "engine-error", "frontend-error", "injected"
  std::string Model; ///< display name; empty for cross-model kinds
  std::string Detail;
};

struct ScenarioOutcome {
  bool Ran = false;       ///< compiled and at least one model compared
  bool Cancelled = false; ///< stopped by the token before finishing
  std::vector<Divergence> Divergences;
  /// "model: reason" fragment/budget skips (deterministic order).
  std::vector<std::string> Skips;
  /// Deterministic one-line summary for the report ("sc=4 tso=5 ..."
  /// observation counts, or "sc=PASS tso=FAIL ..." verdicts).
  std::string Summary;
};

class DifferentialRunner {
public:
  DifferentialRunner(Verifier &V, DiffOptions Opts);

  /// Runs \p S. \p Lowered, when set, is the litmus scenario's source
  /// already compiled (scenarioFingerprint hands it back); otherwise the
  /// runner compiles the source itself.
  ScenarioOutcome run(const Scenario &S,
                      std::optional<lsl::Program> Lowered = std::nullopt) const;

private:
  ScenarioOutcome runLitmus(const Scenario &S,
                            std::optional<lsl::Program> Lowered) const;
  ScenarioOutcome runSymbolic(const Scenario &S) const;

  Verifier &V;
  DiffOptions Opts;
};

} // namespace explore
} // namespace checkfence

#endif // CHECKFENCE_EXPLORE_DIFFERENTIAL_H
