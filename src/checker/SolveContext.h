//===--- SolveContext.h - persistent incremental solving --------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver-owning half of the encoding/solving split: one sat::Solver
/// plus one CnfBuilder that live across a *sequence* of related
/// ProblemEncodings. Successive encodings (the lazy-unrolling bound
/// iterations of Sec. 3.3, or the mine/include/probe phases of one bound
/// round) append variables and clauses to the same solver instead of
/// rebuilding the world; phase selection happens through assumptions over
/// the encodings' activation literals, so learnt clauses, saved phases, and
/// variable activities carry over between re-solves.
///
/// Retractable clause groups (specification mismatch sets, mining blocking
/// sets) are gated by activation literals from newActivation(): a group
/// only binds while its literal is assumed, and is abandoned - never
/// deleted - once its phase is over.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_SOLVECONTEXT_H
#define CHECKFENCE_CHECKER_SOLVECONTEXT_H

#include "checker/Encoder.h"

#include <memory>
#include <vector>

namespace checkfence {
namespace checker {

class SolveContext {
public:
  SolveContext() : Cnf(Solver) {}

  SolveContext(const SolveContext &) = delete;
  SolveContext &operator=(const SolveContext &) = delete;

  sat::Solver &solver() { return Solver; }
  const sat::Solver &solver() const { return Solver; }
  encode::CnfBuilder &cnf() { return Cnf; }

  /// Appends a new encoding of the given problem to this context's solver.
  /// Previous encodings stay in the clause database (their activation
  /// literals simply stop being assumed); the solver is never reset. The
  /// returned reference stays valid for the context's lifetime.
  ProblemEncoding &encode(const lsl::Program &Prog,
                          const std::vector<std::string> &ThreadProcs,
                          const trans::LoopBounds &Bounds,
                          const ProblemConfig &Cfg);

  /// The most recent encoding. Must not be called before encode().
  ProblemEncoding &current() {
    assert(!Encodings.empty() && "no encoding in this context");
    return *Encodings.back();
  }

  size_t numEncodings() const { return Encodings.size(); }

  /// A fresh literal for gating a retractable clause group.
  sat::Lit newActivation() { return Cnf.fresh(); }

  /// Re-arms the conflict budget for a new phase (mining enumeration,
  /// inclusion check, or one probe solve). The from-scratch pipeline gives
  /// every phase a fresh solver and hence a fresh allowance; this restores
  /// that semantics on the persistent solver, whose conflict counter never
  /// resets.
  void beginPhase() {
    Solver.ConflictBudget =
        PhaseBudget < 0
            ? -1
            : static_cast<int64_t>(Solver.stats().Conflicts) + PhaseBudget;
  }

  /// Solves under the given assumptions; accumulates solve time and call
  /// count into the current encoding's stats.
  sat::SolveResult solveUnder(const std::vector<sat::Lit> &Assumptions);

  /// Total solve seconds across all solveUnder calls on this context.
  double solveSeconds() const { return SolveSecs; }

private:
  sat::Solver Solver;
  encode::CnfBuilder Cnf; ///< after Solver: its ctor emits into Solver
  std::vector<std::unique_ptr<ProblemEncoding>> Encodings;
  double SolveSecs = 0;
  int64_t PhaseBudget = -1; ///< per-phase allowance from the last encode()
};

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_SOLVECONTEXT_H
