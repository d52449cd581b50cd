//===--- SpecMiner.cpp - specification mining --------------------------------===//

#include "checker/SpecMiner.h"

using namespace checkfence;
using namespace checkfence::checker;

MiningOutcome checkfence::checker::mineSpecification(
    SolveContext &Ctx, size_t MaxObservations) {
  MiningOutcome Out;
  ProblemEncoding &Enc = Ctx.encoding();
  if (!Enc.ok()) {
    Out.Error = Enc.error();
    return Out;
  }

  Ctx.beginPhase();
  // All blocking clauses of this enumeration share one activation literal;
  // once mining is over the literal is never assumed again and the blocked
  // region is released (the probe must be able to revisit any observation).
  sat::Lit Act = Ctx.newActivation();
  std::vector<sat::Lit> SolveAssumptions = Enc.withinBoundsAssumptions();
  SolveAssumptions.push_back(Act);

  for (;;) {
    sat::SolveResult R = Ctx.solveUnder(SolveAssumptions);
    if (R == sat::SolveResult::Unknown) {
      Out.Error = "solver budget exhausted during specification mining";
      return Out;
    }
    if (R == sat::SolveResult::Unsat)
      break;

    ++Out.Iterations;
    Observation O = Enc.decodeObservation(Ctx.solver());
    if (O.Error) {
      // A serial execution misbehaves: report the sequential bug.
      Out.SequentialBug = true;
      Out.BugTrace = Enc.decodeTrace(Ctx.solver());
      Out.Ok = true;
      return Out;
    }
    Out.Spec.insert(O);
    if (Out.Spec.size() > MaxObservations) {
      Out.Error = "observation set exceeds the configured limit";
      return Out;
    }
    if (!Enc.addMismatch(O, Act))
      break; // blocking clause made the formula unsat: enumeration done
  }

  Out.Ok = true;
  return Out;
}
