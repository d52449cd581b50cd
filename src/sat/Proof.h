//===--- Proof.h - clausal proof logging and checking -----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DRAT-style clausal proofs for the CDCL solver. When proof logging is
/// enabled, the solver records every input clause and every clause it
/// derives (learnt clauses, assumption conflicts, and the final empty
/// clause of an unsatisfiable run). RupChecker then replays the log with
/// an independent unit-propagation engine and validates each derived
/// clause by *reverse unit propagation* (RUP): asserting the clause's
/// negation must propagate to a conflict under the clauses available so
/// far.
///
/// CheckFence's verdicts hinge on unsatisfiability twice over - the
/// specification mining loop ends on Unsat, and a PASS of the inclusion
/// check *is* an Unsat answer - so a checkable certificate turns "the
/// solver said so" into an independently validated result. The checker
/// shares no propagation code with the solver.
///
/// Deletion events are recorded (for completeness and DRAT export) but
/// ignored during checking: every deleted clause was itself validated as
/// implied, so keeping it can only make RUP checks succeed for other
/// implied clauses - soundness is unaffected, only checker speed.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SAT_PROOF_H
#define CHECKFENCE_SAT_PROOF_H

#include "sat/Solver.h"

#include <string>
#include <vector>

namespace checkfence {
namespace sat {

/// A chronological clausal proof trace.
class ProofLog {
public:
  enum class EventKind : uint8_t {
    Input,   ///< problem clause, taken as an axiom
    Derived, ///< clause the solver claims is implied (RUP-checked)
    Delete,  ///< clause dropped from the database
  };

  struct Event {
    EventKind K = EventKind::Input;
    std::vector<Lit> Clause;
  };

  void addInput(const std::vector<Lit> &C) {
    Events.push_back({EventKind::Input, C});
  }
  void addDerived(const std::vector<Lit> &C) {
    Events.push_back({EventKind::Derived, C});
    if (C.empty())
      HasEmpty = true;
  }
  void addDelete(const std::vector<Lit> &C) {
    Events.push_back({EventKind::Delete, C});
  }

  const std::vector<Event> &events() const { return Events; }
  /// True once the empty clause was derived (the refutation is complete).
  bool hasEmptyClause() const { return HasEmpty; }

  /// Serializes the derivation in the standard DRAT text format (derived
  /// clauses as DIMACS lines, deletions prefixed with "d"); input clauses
  /// are omitted, as in a .drat file accompanying a .cnf file.
  std::string toDratText() const;

private:
  std::vector<Event> Events;
  bool HasEmpty = false;
};

/// Independent RUP validation of a ProofLog.
class RupChecker {
public:
  struct Outcome {
    bool Ok = false;
    size_t CheckedDerivations = 0;
    std::string Error;
  };

  /// Replays \p Log. With \p RequireEmptyClause, additionally demands
  /// that the log culminates in the empty clause (a complete refutation,
  /// as produced by an assumption-free Unsat run).
  static Outcome check(const ProofLog &Log, bool RequireEmptyClause);
};

} // namespace sat
} // namespace checkfence

#endif // CHECKFENCE_SAT_PROOF_H
