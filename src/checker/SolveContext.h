//===--- SolveContext.h - one encoding on its own solver --------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The only type that owns a solver and an encoding: one sat::Solver, one
/// CnfBuilder and exactly one ProblemEncoding. Every SAT question about a
/// test - specification mining, the inclusion check, the bound probe,
/// litmus reachability - is asked of a SolveContext, selecting its mode
/// through assumptions over the encoding's activation literals. The
/// session engine runs the phases that share an unrolling (mining and the
/// refset probe on the serial context; the inclusion check and the bound
/// probe on the target-model context) on one context, so learnt clauses,
/// saved phases and variable activities carry over between those
/// re-solves. One-shot callers, including the reference pipeline
/// (runCheckFresh), build a fresh context per query.
///
/// A context encodes a shared, immutable Unrolling (checker/Unrolling.h):
/// contexts of different models over one program at one bound vector -
/// the mining and checking contexts of a bound round, the lattice points
/// of an explore scenario - flatten and range-analyze it once.
///
/// When lazy unrolling (Sec. 3.3) grows a loop bound, the session builds
/// a fresh context for the new unrolling and drops the old one. The
/// re-encoding uses fresh variables, so nothing learnt on the old
/// unrolling could help it; keeping the old clauses would only make
/// every later answer assign their variables too. A context's size
/// statistics are therefore those of the instance it solves (the Fig. 10
/// SAT size), never a sum over the unrollings tried.
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
  /// Encodes \p U into this context's fresh solver (logging a proof from
  /// the first clause when ProblemConfig::ProofLog is set) and arms the
  /// first phase's conflict budget.
  SolveContext(std::shared_ptr<const Unrolling> U, const ProblemConfig &Cfg);

  /// Encodes unroll(Prog, ThreadProcs, Bounds).
  SolveContext(const lsl::Program &Prog,
               const std::vector<std::string> &ThreadProcs,
               const trans::LoopBounds &Bounds, const ProblemConfig &Cfg)
      : SolveContext(unroll(Prog, ThreadProcs, Bounds), Cfg) {}

  SolveContext(const SolveContext &) = delete;
  SolveContext &operator=(const SolveContext &) = delete;

  sat::Solver &solver() { return Solver; }
  ProblemEncoding &encoding() { return Enc; }

  /// A fresh literal for gating a retractable clause group.
  sat::Lit newActivation() { return Cnf.fresh(); }

  /// Re-arms the conflict budget for a new phase (mining enumeration,
  /// inclusion check, or one probe solve). The from-scratch pipeline gives
  /// every phase a fresh solver and hence a fresh allowance; this restores
  /// that semantics on the shared solver, whose conflict counter never
  /// resets.
  void beginPhase() {
    Solver.ConflictBudget =
        PhaseBudget < 0
            ? -1
            : static_cast<int64_t>(Solver.stats().Conflicts) + PhaseBudget;
  }

  /// Solves under the given assumptions; accumulates solve time and call
  /// count into the encoding's stats.
  sat::SolveResult solveUnder(const std::vector<sat::Lit> &Assumptions);

  /// Solves for executions within the loop bounds. The bound probe is
  /// solveUnder(encoding().probeAssumptions()).
  sat::SolveResult solve() {
    return solveUnder(Enc.withinBoundsAssumptions());
  }

private:
  sat::Solver Solver;
  encode::CnfBuilder Cnf; ///< after Solver: its ctor emits into Solver
  ProblemEncoding Enc;    ///< after Cnf: encodes through it
  int64_t PhaseBudget = -1; ///< per-phase allowance (ConflictBudget)
};

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_SOLVECONTEXT_H
