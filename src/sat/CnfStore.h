//===--- CnfStore.h - solver-free CNF capture -------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ClauseSink that records variables and clauses instead of solving them.
/// The checker's ProblemEncoding can be built against a CnfStore to obtain a
/// pure CNF artifact (exportable as DIMACS, replayable into a solver) with
/// the decode maps kept separately - the solver-free half of the
/// encoding/solving split.
///
/// Replaying into a fresh solver preserves variable numbering, so decode
/// maps recorded against the store remain valid against the replayed
/// solver's models.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SAT_CNFSTORE_H
#define CHECKFENCE_SAT_CNFSTORE_H

#include "sat/Dimacs.h"
#include "sat/Solver.h"

namespace checkfence {
namespace sat {

/// Records the CNF stream instead of solving it.
class CnfStore : public ClauseSink {
public:
  Var newVar() override { return Formula.addVar(); }
  bool addClause(const std::vector<Lit> &Lits) override {
    Formula.addClause(Lits);
    return true;
  }
  using ClauseSink::addClause;

  int numVars() const { return Formula.NumVars; }
  std::size_t numClauses() const { return Formula.Clauses.size(); }

  /// The recorded formula (DIMACS-writable via sat::writeDimacs).
  const Cnf &cnf() const { return Formula; }

  /// Feeds every recorded variable and clause into \p Sink, in recording
  /// order. When \p Sink starts empty this reproduces the store's variable
  /// numbering exactly. Returns false if the sink reported unsatisfiability.
  bool replayInto(ClauseSink &Sink) const;

private:
  Cnf Formula;
};

} // namespace sat
} // namespace checkfence

#endif // CHECKFENCE_SAT_CNFSTORE_H
