//===--- InclusionChecker.cpp - the inclusion check --------------------------===//

#include "checker/InclusionChecker.h"

using namespace checkfence;
using namespace checkfence::checker;

InclusionOutcome
checkfence::checker::checkInclusion(EncodedProblem &Prob,
                                    const ObservationSet &Spec) {
  InclusionOutcome Out;
  if (!Prob.ok()) {
    Out.Error = Prob.error();
    return Out;
  }

  bool Consistent = true;
  for (const Observation &O : Spec)
    Consistent = Prob.addMismatch(O) && Consistent;
  if (!Consistent) {
    // The constraints alone are unsatisfiable: no execution escapes the
    // specification.
    Out.Ok = true;
    Out.Pass = true;
    return Out;
  }

  sat::SolveResult R = Prob.solve();
  switch (R) {
  case sat::SolveResult::Unknown:
    Out.Error = "solver budget exhausted during inclusion check";
    return Out;
  case sat::SolveResult::Unsat:
    Out.Ok = true;
    Out.Pass = true;
    return Out;
  case sat::SolveResult::Sat:
    Out.Ok = true;
    Out.Pass = false;
    Out.Counterexample = Prob.decodeTrace();
    return Out;
  }
  return Out;
}

PreparedInclusion checkfence::checker::prepareInclusion(
    SolveContext &Ctx, const ObservationSet &Spec) {
  PreparedInclusion P;
  ProblemEncoding &Enc = Ctx.encoding();
  if (!Enc.ok()) {
    P.Error = Enc.error();
    return P;
  }

  Ctx.beginPhase();
  // One activation literal covers the whole specification; assumed only
  // for this check, so the probe afterwards sees the unconstrained
  // observation space again.
  sat::Lit Act = Ctx.newActivation();
  bool Consistent = true;
  for (const Observation &O : Spec)
    Consistent = Enc.addMismatch(O, Act) && Consistent;
  P.Ok = true;
  if (!Consistent) {
    // The constraints alone are unsatisfiable: no execution escapes the
    // specification.
    P.Trivial = true;
    return P;
  }
  P.Assumptions = Enc.withinBoundsAssumptions();
  P.Assumptions.push_back(Act);
  return P;
}
