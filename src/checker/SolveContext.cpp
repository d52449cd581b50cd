//===--- SolveContext.cpp - one encoding on its own solver -------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checker/SolveContext.h"

#include "support/Timing.h"

using namespace checkfence;
using namespace checkfence::checker;

SolveContext::SolveContext(std::shared_ptr<const Unrolling> U,
                           const ProblemConfig &Cfg)
    : Solver(Cfg.ProofLog), Cnf(Solver), Enc(Cnf, std::move(U), Cfg),
      PhaseBudget(Cfg.ConflictBudget) {
  beginPhase();
  // The solver holds this encoding alone: its size is the instance's.
  EncodeStats &Stats = Enc.stats();
  Stats.SatVars = Solver.numVars();
  Stats.SatClauses = Solver.numClauses();
  Stats.SolverMemBytes = Solver.memoryBytes();
}

sat::SolveResult
SolveContext::solveUnder(const std::vector<sat::Lit> &Assumptions) {
  Timer T;
  sat::SolveResult R = Solver.solve(Assumptions);
  EncodeStats &Stats = Enc.stats();
  Stats.SolveSeconds += T.seconds();
  Stats.SolveCalls += 1;
  Stats.LearntClauses = Solver.numLearnts();
  Stats.SolverMemBytes =
      std::max(Stats.SolverMemBytes, Solver.memoryBytes());
  return R;
}
