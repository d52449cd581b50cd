//===--- SatProofTests.cpp - DRAT-style proof logging and checking ----------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// CheckFence's verdicts hinge on unsatisfiability (specification mining
// terminates on Unsat; a PASS of the inclusion check *is* an Unsat
// answer), so the solver's refutations are logged as clausal proofs and
// validated by an independent reverse-unit-propagation checker. These
// tests cover crafted UNSAT families, random sweeps, the incremental
// blocking-clause pattern the miner uses, assumption conflicts, rejection
// of tampered proofs, a full CheckFence inclusion check, and certificates
// for the final queries behind known PASS verdicts.
//
//===----------------------------------------------------------------------===//

#include "sat/Proof.h"

#include "checker/CheckFence.h"
#include "checker/SpecMiner.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"

#include "gtest/gtest.h"

#include <random>

using namespace checkfence;
using namespace checkfence::sat;

namespace {

Lit mk(Var V, bool Neg = false) { return Lit::make(V, Neg); }

//===----------------------------------------------------------------------===//
// Crafted families.
//===----------------------------------------------------------------------===//

/// Pigeonhole principle PHP(Holes+1, Holes): unsatisfiable.
void addPigeonhole(Solver &S, int Holes) {
  int Pigeons = Holes + 1;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (int I = 0; I < Pigeons; ++I)
    for (int J = 0; J < Holes; ++J)
      P[I][J] = S.newVar();
  for (int I = 0; I < Pigeons; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < Holes; ++J)
      C.push_back(mk(P[I][J]));
    S.addClause(C);
  }
  for (int J = 0; J < Holes; ++J)
    for (int I1 = 0; I1 < Pigeons; ++I1)
      for (int I2 = I1 + 1; I2 < Pigeons; ++I2)
        S.addClause(mk(P[I1][J], true), mk(P[I2][J], true));
}

class PigeonholeProof : public ::testing::TestWithParam<int> {};

TEST_P(PigeonholeProof, RefutationValidates) {
  Solver S(/*LogProof=*/true);
  addPigeonhole(S, GetParam());
  ASSERT_EQ(S.solve(), SolveResult::Unsat);
  ASSERT_NE(S.proofLog(), nullptr);
  EXPECT_TRUE(S.proofLog()->hasEmptyClause());
  RupChecker::Outcome O =
      RupChecker::check(*S.proofLog(), /*RequireEmptyClause=*/true);
  EXPECT_TRUE(O.Ok) << O.Error;
  EXPECT_GT(O.CheckedDerivations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PigeonholeProof, ::testing::Values(3, 4, 5));

//===----------------------------------------------------------------------===//
// Random sweeps.
//===----------------------------------------------------------------------===//

std::vector<std::vector<Lit>> randomCnf(unsigned Seed, int Vars,
                                        int ClauseCount) {
  std::mt19937 Rng(Seed);
  std::vector<std::vector<Lit>> Cnf;
  for (int C = 0; C < ClauseCount; ++C) {
    std::vector<Lit> Clause;
    for (int K = 0; K < 3; ++K)
      Clause.push_back(
          mk(static_cast<Var>(Rng() % Vars), (Rng() & 1) != 0));
    Cnf.push_back(Clause);
  }
  return Cnf;
}

class RandomProof : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomProof, UnsatRunsValidateSatRunsModel) {
  // Near the 3-SAT phase transition (ratio ~5) small instances split
  // between Sat and Unsat; both outcomes are checked.
  auto Cnf = randomCnf(GetParam(), 20, 100);
  Solver S(/*LogProof=*/true);
  for (Var V = 0; V < 20; ++V)
    S.newVar();
  bool Consistent = true;
  for (const auto &C : Cnf)
    Consistent = S.addClause(C) && Consistent;

  SolveResult R = Consistent ? S.solve() : SolveResult::Unsat;
  if (R == SolveResult::Unsat) {
    RupChecker::Outcome O = RupChecker::check(*S.proofLog(), true);
    EXPECT_TRUE(O.Ok) << O.Error;
    return;
  }
  ASSERT_EQ(R, SolveResult::Sat);
  for (const auto &C : Cnf) {
    bool Satisfied = false;
    for (Lit L : C)
      Satisfied = Satisfied || S.modelTrue(L);
    EXPECT_TRUE(Satisfied);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomProof, ::testing::Range(0u, 32u));

TEST(SatProof, IncrementalBlockingLoopValidates) {
  // The specification-mining pattern: enumerate models, blocking each,
  // until Unsat; the proof must account for all blocking clauses.
  Solver S(/*LogProof=*/true);
  const int N = 6;
  for (Var V = 0; V < N; ++V)
    S.newVar();
  S.addClause(mk(0), mk(1)); // at least something is true
  int Models = 0;
  while (S.solve() == SolveResult::Sat) {
    ++Models;
    ASSERT_LE(Models, 1 << N);
    std::vector<Lit> Block;
    for (Var V = 0; V < N; ++V)
      Block.push_back(mk(V, S.modelTrue(mk(V))));
    if (!S.addClause(Block))
      break;
  }
  EXPECT_EQ(Models, (1 << N) - (1 << (N - 2))); // both of v0,v1 false excluded
  RupChecker::Outcome O = RupChecker::check(*S.proofLog(), true);
  EXPECT_TRUE(O.Ok) << O.Error;
}

TEST(SatProof, AssumptionConflictIsLogged) {
  // a -> b, b -> c; assuming a and ~c is inconsistent. The derived clause
  // over the negated assumptions validates without an empty clause, and
  // the formula itself stays satisfiable.
  Solver S(/*LogProof=*/true);
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(mk(A, true), mk(B));
  S.addClause(mk(B, true), mk(C));
  EXPECT_EQ(S.solve({mk(A), mk(C, true)}), SolveResult::Unsat);
  EXPECT_FALSE(S.conflictAssumptions().empty());
  RupChecker::Outcome O =
      RupChecker::check(*S.proofLog(), /*RequireEmptyClause=*/false);
  EXPECT_TRUE(O.Ok) << O.Error;
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

//===----------------------------------------------------------------------===//
// The checker rejects wrong proofs.
//===----------------------------------------------------------------------===//

TEST(SatProof, TamperedDerivationIsRejected) {
  ProofLog Log;
  Var A = 0, B = 1;
  Log.addInput({mk(A), mk(B)});
  // {a} does not follow from {a, b} by unit propagation.
  Log.addDerived({mk(A)});
  RupChecker::Outcome O = RupChecker::check(Log, false);
  EXPECT_FALSE(O.Ok);
  EXPECT_NE(O.Error.find("not RUP"), std::string::npos) << O.Error;
}

TEST(SatProof, MissingEmptyClauseIsRejected) {
  ProofLog Log;
  Log.addInput({mk(0)});
  RupChecker::Outcome O = RupChecker::check(Log, true);
  EXPECT_FALSE(O.Ok);
  EXPECT_NE(O.Error.find("empty clause"), std::string::npos);
}

TEST(SatProof, ValidHandProofAccepted) {
  // Resolution chain: (a|b), (~a|b), (a|~b), (~a|~b) |- b, ~b, empty.
  ProofLog Log;
  Var A = 0, B = 1;
  Log.addInput({mk(A), mk(B)});
  Log.addInput({mk(A, true), mk(B)});
  Log.addInput({mk(A), mk(B, true)});
  Log.addInput({mk(A, true), mk(B, true)});
  Log.addDerived({mk(B)});
  Log.addDerived({});
  RupChecker::Outcome O = RupChecker::check(Log, true);
  EXPECT_TRUE(O.Ok) << O.Error;
}

TEST(SatProof, DratTextExport) {
  Solver S(/*LogProof=*/true);
  addPigeonhole(S, 3);
  ASSERT_EQ(S.solve(), SolveResult::Unsat);
  std::string Text = S.proofLog()->toDratText();
  EXPECT_FALSE(Text.empty());
  // The refutation ends with the empty clause: a lone "0" line.
  EXPECT_NE(Text.find("\n0\n"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// End to end: a PASS verdict is an Unsat answer with a certificate.
//===----------------------------------------------------------------------===//

TEST(SatProof, InclusionCheckPassIsCertified) {
  using namespace checkfence::checker;
  using namespace checkfence::harness;

  frontend::DiagEngine Diags;
  lsl::Program Prog;
  ASSERT_TRUE(frontend::compileC(impls::sourceFor("treiber"), {}, Prog,
                                 Diags))
      << Diags.str();
  TestSpec Test = testByName("U0");
  std::vector<std::string> Threads = buildTestThreads(Prog, Test);

  // Mine the specification under Serial...
  ProblemConfig SerialCfg;
  SerialCfg.Model = memmodel::ModelParams::serial();
  SolveContext SerialCtx(Prog, Threads, {}, SerialCfg);
  ASSERT_TRUE(SerialCtx.encoding().ok()) << SerialCtx.encoding().error();
  MiningOutcome Spec = mineSpecification(SerialCtx);
  ASSERT_TRUE(Spec.Ok) << Spec.Error;

  // ...then run the inclusion check on Relaxed with proof logging. The
  // mismatch clauses and the within-bounds literals are hard-asserted, so
  // the Unsat answer refutes the clause database alone and the proof must
  // derive the empty clause.
  ProblemConfig Cfg;
  Cfg.Model = memmodel::ModelParams::relaxed();
  Cfg.ProofLog = true;
  SolveContext Ctx(Prog, Threads, {}, Cfg);
  ProblemEncoding &Enc = Ctx.encoding();
  ASSERT_TRUE(Enc.ok()) << Enc.error();
  for (const Observation &O : Spec.Spec)
    Enc.addMismatch(O);
  for (Lit A : Enc.withinBoundsAssumptions())
    Ctx.solver().addClause(A);
  ASSERT_EQ(Ctx.solveUnder({}), SolveResult::Unsat)
      << "fenced treiber must pass U0 on Relaxed";

  const ProofLog *Proof = Ctx.solver().proofLog();
  ASSERT_NE(Proof, nullptr);
  RupChecker::Outcome O = RupChecker::check(*Proof, true);
  EXPECT_TRUE(O.Ok) << O.Error;
  EXPECT_GT(O.CheckedDerivations, 0u);
}

//===----------------------------------------------------------------------===//
// Certified PASS verdicts: a solver change must not turn a FAIL into a
// PASS unnoticed.
//===----------------------------------------------------------------------===//

/// Solves \p Ctx, whose assumptions were all hard-asserted, and demands a
/// refutation of the clause database that RUP-checks.
void expectCertifiedUnsat(checker::SolveContext &Ctx, const char *What) {
  ASSERT_EQ(Ctx.solveUnder({}), SolveResult::Unsat) << What;
  const ProofLog *Proof = Ctx.solver().proofLog();
  ASSERT_NE(Proof, nullptr);
  RupChecker::Outcome O = RupChecker::check(*Proof, true);
  EXPECT_TRUE(O.Ok) << What << ": " << O.Error;
}

struct PassCell {
  const char *Impl;
  const char *Test;
};

void PrintTo(const PassCell &Cell, std::ostream *OS) {
  *OS << Cell.Impl << " " << Cell.Test;
}

class CertifiedPass : public ::testing::TestWithParam<PassCell> {};

/// Runs a fenced catalog cell known to pass on Relaxed, then rebuilds the
/// two queries its PASS rests on from runCheck's own FinalBounds and Spec,
/// each on a fresh proof-logging context with every assumption
/// hard-asserted: the inclusion check (mismatch clauses plus the
/// within-bounds literals) and the final bound probe (the probe
/// activation). Both must be refuted with a proof that validates.
TEST_P(CertifiedPass, InclusionAndFinalProbeAreRefuted) {
  using namespace checkfence::checker;
  const PassCell &Cell = GetParam();
  harness::RunOptions Opts;
  Opts.Check.Model = memmodel::ModelParams::relaxed();
  harness::CompiledTest Compiled;
  std::string Error;
  ASSERT_TRUE(harness::compileTest(impls::sourceFor(Cell.Impl),
                                   harness::testByName(Cell.Test), Opts,
                                   Compiled, Error))
      << Error;
  CheckResult Result = runCheck(Compiled.Impl, Compiled.Threads, Opts.Check);
  ASSERT_EQ(Result.Status, Status::Pass) << Result.Message;

  ProblemConfig Cfg;
  Cfg.Model = Opts.Check.Model;
  Cfg.ProofLog = true;
  {
    SolveContext Ctx(Compiled.Impl, Compiled.Threads, Result.FinalBounds,
                     Cfg);
    ProblemEncoding &Enc = Ctx.encoding();
    ASSERT_TRUE(Enc.ok()) << Enc.error();
    for (const Observation &O : Result.Spec)
      Enc.addMismatch(O);
    for (Lit A : Enc.withinBoundsAssumptions())
      Ctx.solver().addClause(A);
    expectCertifiedUnsat(Ctx, "inclusion check");
  }
  {
    SolveContext Ctx(Compiled.Impl, Compiled.Threads, Result.FinalBounds,
                     Cfg);
    ProblemEncoding &Enc = Ctx.encoding();
    ASSERT_TRUE(Enc.ok()) << Enc.error();
    for (Lit A : Enc.probeAssumptions())
      Ctx.solver().addClause(A);
    expectCertifiedUnsat(Ctx, "final bound probe");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Relaxed, CertifiedPass,
    ::testing::Values(PassCell{"ms2", "T0"}, PassCell{"msn", "T0"},
                      PassCell{"treiber", "U0"}, PassCell{"lazylist", "Sac"},
                      PassCell{"harris", "Sac"}),
    [](const ::testing::TestParamInfo<PassCell> &Info) {
      return std::string(Info.param.Impl) + "_" + Info.param.Test;
    });

} // namespace
