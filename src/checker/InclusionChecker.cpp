//===--- InclusionChecker.cpp - the inclusion check --------------------------===//

#include "checker/InclusionChecker.h"

#include "obs/Trace.h"

using namespace checkfence;
using namespace checkfence::checker;

InclusionOutcome checkfence::checker::checkInclusion(
    SolveContext &Ctx, const ObservationSet &Spec) {
  InclusionOutcome Out;
  ProblemEncoding &Enc = Ctx.encoding();
  if (!Enc.ok()) {
    Out.Error = Enc.error();
    return Out;
  }

  Ctx.beginPhase();
  // One activation literal covers the whole specification; assumed only
  // for this check, so the probe afterwards sees the unconstrained
  // observation space again.
  sat::Lit Act = Ctx.newActivation();
  bool Consistent = true;
  for (const Observation &O : Spec)
    Consistent = Enc.addMismatch(O, Act) && Consistent;
  if (!Consistent) {
    // The constraints alone are unsatisfiable: no execution escapes the
    // specification.
    Out.Ok = true;
    Out.Pass = true;
    return Out;
  }
  std::vector<sat::Lit> Assumptions = Enc.withinBoundsAssumptions();
  Assumptions.push_back(Act);

  sat::SolveResult R;
  {
    obs::Span SolveSpan("solver", "solve");
    R = Ctx.solveUnder(Assumptions);
  }
  if (R == sat::SolveResult::Unknown) {
    Out.Error = "solver budget exhausted during inclusion check";
    return Out;
  }
  Out.Ok = true;
  Out.Pass = R == sat::SolveResult::Unsat;
  if (!Out.Pass)
    Out.Counterexample = Enc.decodeTrace(Ctx.solver());
  return Out;
}
