//===--- SatSolverTests.cpp - unit & property tests for the CDCL solver ---===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "sat/Proof.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <random>

using namespace checkfence;
using namespace checkfence::sat;

namespace {

Lit pos(Var V) { return Lit::make(V); }
Lit neg(Var V) { return Lit::make(V, true); }

/// A raw CNF over variables 0..NumVars-1, shared by the reference solver
/// and the solver under test.
struct Cnf {
  int NumVars = 0;
  std::vector<std::vector<Lit>> Clauses;
  void addClause(std::vector<Lit> Ls) { Clauses.push_back(std::move(Ls)); }
};

/// Loads \p F into \p S; false if the solver became unsatisfiable.
bool loadIntoSolver(const Cnf &F, Solver &S) {
  while (S.numVars() < F.NumVars)
    S.newVar();
  bool Ok = true;
  for (const std::vector<Lit> &C : F.Clauses)
    Ok = S.addClause(C) && Ok;
  return Ok && S.okay();
}

//===----------------------------------------------------------------------===//
// Reference solver: a tiny recursive DPLL used as the oracle in property
// tests. Exponential, but only ever run on small random formulas.
//===----------------------------------------------------------------------===//

class ReferenceDpll {
public:
  explicit ReferenceDpll(const Cnf &F) : Formula(F) {
    Assignment.assign(F.NumVars, -1);
  }

  bool solve() { return solveFrom(0); }

private:
  bool clauseStatusOk(bool &AllAssignedFalse, const std::vector<Lit> &C) {
    AllAssignedFalse = true;
    for (Lit L : C) {
      int A = Assignment[L.var()];
      if (A == -1) {
        AllAssignedFalse = false;
        continue;
      }
      bool LitTrue = (A == 1) != L.negated();
      if (LitTrue)
        return true;
    }
    return false;
  }

  bool consistent() {
    for (const auto &C : Formula.Clauses) {
      bool AllFalse;
      if (!clauseStatusOk(AllFalse, C) && AllFalse)
        return false;
    }
    return true;
  }

  bool solveFrom(int V) {
    if (!consistent())
      return false;
    if (V == Formula.NumVars)
      return true;
    for (int B = 0; B < 2; ++B) {
      Assignment[V] = B;
      if (solveFrom(V + 1))
        return true;
    }
    Assignment[V] = -1;
    return false;
  }

  const Cnf &Formula;
  std::vector<int> Assignment;
};

bool modelSatisfies(const Solver &S, const Cnf &F) {
  for (const auto &C : F.Clauses) {
    bool Sat = false;
    for (Lit L : C)
      if (S.modelValue(L) == LBool::True)
        Sat = true;
    if (!Sat)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Unit tests
//===----------------------------------------------------------------------===//

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver S;
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(SatSolver, SingleUnit) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause(pos(A)));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(A), LBool::True);
}

TEST(SatSolver, ContradictingUnits) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause(pos(A)));
  EXPECT_FALSE(S.addClause(neg(A)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_FALSE(S.okay());
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver S;
  EXPECT_FALSE(S.addClause(std::vector<Lit>{}));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(SatSolver, TautologyIgnored) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause(pos(A), neg(A)));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(SatSolver, DuplicateLiteralsMerged) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  EXPECT_TRUE(S.addClause({pos(A), pos(A), pos(B)}));
  EXPECT_TRUE(S.addClause(neg(A)));
  EXPECT_TRUE(S.addClause(neg(B), neg(A)));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(A), LBool::False);
}

TEST(SatSolver, ImplicationChain) {
  // a, a->b, b->c, c->d  forces d.
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar();
  S.addClause(pos(A));
  S.addClause(neg(A), pos(B));
  S.addClause(neg(B), pos(C));
  S.addClause(neg(C), pos(D));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(D), LBool::True);
}

TEST(SatSolver, PigeonHole3Into2IsUnsat) {
  // Pigeonhole principle PHP(3,2): forces real conflict-driven search.
  Solver S;
  // X[p][h]: pigeon p sits in hole h.
  Var X[3][2];
  for (auto &Row : X)
    for (Var &V : Row)
      V = S.newVar();
  for (int P = 0; P < 3; ++P)
    S.addClause(pos(X[P][0]), pos(X[P][1]));
  for (int H = 0; H < 2; ++H)
    for (int P1 = 0; P1 < 3; ++P1)
      for (int P2 = P1 + 1; P2 < 3; ++P2)
        S.addClause(neg(X[P1][H]), neg(X[P2][H]));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(SatSolver, PigeonHole5Into4IsUnsat) {
  Solver S;
  const int P = 5, H = 4;
  std::vector<std::vector<Var>> X(P, std::vector<Var>(H));
  for (auto &Row : X)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < P; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < H; ++J)
      C.push_back(pos(X[I][J]));
    S.addClause(C);
  }
  for (int J = 0; J < H; ++J)
    for (int I1 = 0; I1 < P; ++I1)
      for (int I2 = I1 + 1; I2 < P; ++I2)
        S.addClause(neg(X[I1][J]), neg(X[I2][J]));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(SatSolver, LubySequenceMatchesMiniSat) {
  const int64_t Want[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (int64_t I = 0; I < 15; ++I)
    EXPECT_EQ(lubyNumber(I), Want[I]) << "index " << I;
  // Deep indices stay positive powers of two (the sequence never stops
  // restarting): index 2^k - 2 closes a subsequence with 2^(k-1).
  EXPECT_EQ(lubyNumber(62), 32);
  EXPECT_EQ(lubyNumber(1022), 512);
}

TEST(SatSolver, HardUnsatInstanceKeepsRestarting) {
  // PHP(8,7) needs thousands of conflicts; with a Luby schedule of
  // 100-conflict units the search restarts well past the first cycle.
  Solver S;
  const int P = 8, H = 7;
  std::vector<std::vector<Var>> X(P, std::vector<Var>(H));
  for (auto &Row : X)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < P; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < H; ++J)
      C.push_back(pos(X[I][J]));
    S.addClause(C);
  }
  for (int J = 0; J < H; ++J)
    for (int I1 = 0; I1 < P; ++I1)
      for (int I2 = I1 + 1; I2 < P; ++I2)
        S.addClause(neg(X[I1][J]), neg(X[I2][J]));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().Restarts, 10u);
}

TEST(SatSolver, AssumptionsSatAndUnsat) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(neg(A), pos(B)); // a -> b
  EXPECT_EQ(S.solve({pos(A)}), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(B), LBool::True);
  S.addClause(neg(B)); // now b false, so a must be false
  EXPECT_EQ(S.solve({pos(A)}), SolveResult::Unsat);
  EXPECT_TRUE(S.okay()) << "assumption failure must not poison the solver";
  EXPECT_EQ(S.solve({neg(A)}), SolveResult::Sat);
}

TEST(SatSolver, ConflictAssumptionsReported) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(neg(A), neg(B)); // not both a and b
  EXPECT_EQ(S.solve({pos(A), pos(B), pos(C)}), SolveResult::Unsat);
  // The reported conflict clause mentions only relevant assumptions.
  for (Lit L : S.conflictAssumptions())
    EXPECT_NE(L.var(), C);
}

TEST(SatSolver, IncrementalBlockingClauseEnumeration) {
  // Enumerate all 8 models of a 3-variable unconstrained formula by adding
  // blocking clauses; this is exactly the spec-mining pattern.
  Solver S;
  Var V0 = S.newVar(), V1 = S.newVar(), V2 = S.newVar();
  S.addClause(pos(V0), neg(V0)); // touch the vars
  S.addClause(pos(V1), neg(V1));
  S.addClause(pos(V2), neg(V2));
  int Count = 0;
  while (S.solve() == SolveResult::Sat) {
    ++Count;
    ASSERT_LE(Count, 8);
    std::vector<Lit> Block;
    for (Var V : {V0, V1, V2}) {
      bool IsTrue = S.modelValue(V) == LBool::True;
      Block.push_back(Lit::make(V, IsTrue)); // negated current value
    }
    if (!S.addClause(Block))
      break;
  }
  EXPECT_EQ(Count, 8);
}

TEST(SatSolver, UnsatCoreStyleUse) {
  Solver S;
  std::vector<Var> Sel;
  // Clause group i: selector_i -> (x_i), and a final clause not(x_0) or
  // not(x_1).
  Var X0 = S.newVar(), X1 = S.newVar();
  Var S0 = S.newVar(), S1 = S.newVar();
  S.addClause(neg(S0), pos(X0));
  S.addClause(neg(S1), pos(X1));
  S.addClause(neg(X0), neg(X1));
  EXPECT_EQ(S.solve({pos(S0), pos(S1)}), SolveResult::Unsat);
  EXPECT_EQ(S.solve({pos(S0)}), SolveResult::Sat);
  EXPECT_EQ(S.solve({pos(S1)}), SolveResult::Sat);
}

TEST(SatSolver, LargeChainPerformance) {
  // 2000-variable implication chain solves instantly if propagation works.
  Solver S;
  const int N = 2000;
  std::vector<Var> V(N);
  for (int I = 0; I < N; ++I)
    V[I] = S.newVar();
  S.addClause(pos(V[0]));
  for (int I = 0; I + 1 < N; ++I)
    S.addClause(neg(V[I]), pos(V[I + 1]));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(V[N - 1]), LBool::True);
}

TEST(SatSolver, MemoryAccounting) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  size_t Before = S.memoryBytes();
  S.addClause(pos(A), pos(B), pos(C));
  EXPECT_GT(S.memoryBytes(), Before);
}

//===----------------------------------------------------------------------===//
// Clause arena: compaction after reduceDB() and binary reasons.
//===----------------------------------------------------------------------===//

/// A random 3-CNF with five clauses per variable: unsatisfiable with high
/// probability, and at 250 variables it takes thousands of conflicts.
std::vector<std::vector<Lit>> random3Cnf(unsigned Seed, int NumVars) {
  std::mt19937 Rng(Seed);
  std::vector<std::vector<Lit>> Out;
  for (int I = 0; I < 5 * NumVars; ++I) {
    std::vector<Lit> C;
    for (int K = 0; K < 3; ++K) {
      auto V = static_cast<Var>(Rng() % NumVars);
      bool Neg = (Rng() & 1) != 0;
      C.push_back(Lit::make(V, Neg));
    }
    Out.push_back(C);
  }
  return Out;
}

/// Solves in slices of \p Slice conflicts until the answer is known. Each
/// solve() call resets the learnt-clause limit, so the learnts kept from
/// earlier slices trigger reduceDB(), and with it arena compaction, the
/// way the specification miner's repeated re-solves do. \p AfterSlice
/// runs after every slice with the memoryBytes() and compaction count
/// from before it.
template <typename Fn>
SolveResult solveInSlices(Solver &S, const std::vector<Lit> &Assumptions,
                          int64_t Slice, Fn &&AfterSlice) {
  SolveResult R = SolveResult::Unknown;
  do {
    size_t BytesBefore = S.memoryBytes();
    uint64_t CompactionsBefore = S.stats().Compactions;
    S.ConflictBudget = static_cast<int64_t>(S.stats().Conflicts) + Slice;
    R = S.solve(Assumptions);
    AfterSlice(BytesBefore, CompactionsBefore);
  } while (R == SolveResult::Unknown);
  S.ConflictBudget = -1;
  return R;
}

SolveResult solveInSlices(Solver &S, const std::vector<Lit> &Assumptions,
                          int64_t Slice) {
  return solveInSlices(S, Assumptions, Slice, [](size_t, uint64_t) {});
}

TEST(SatSolverArena, RefutationAcrossCompactionsValidates) {
  // Several compactions, each of which must release memory, and a proof
  // across all of them that RUP-checks.
  Solver S(/*LogProof=*/true);
  for (Var V = 0; V < 250; ++V)
    S.newVar();
  for (const std::vector<Lit> &C : random3Cnf(1, 250))
    ASSERT_TRUE(S.addClause(C));
  int CompactingSlices = 0;
  auto MemoryFalls = [&](size_t BytesBefore, uint64_t CompactionsBefore) {
    if (S.stats().Compactions == CompactionsBefore)
      return;
    ++CompactingSlices;
    EXPECT_LT(S.memoryBytes(), BytesBefore);
  };
  ASSERT_EQ(solveInSlices(S, {}, 200, MemoryFalls), SolveResult::Unsat);
  EXPECT_GE(S.stats().Compactions, 3u);
  EXPECT_GE(CompactingSlices, 3);
  RupChecker::Outcome O =
      RupChecker::check(*S.proofLog(), /*RequireEmptyClause=*/true);
  EXPECT_TRUE(O.Ok) << O.Error;
}

TEST(SatSolverArena, IncrementalSolvingAfterCompaction) {
  // The same formula, every clause gated by Act: Unsat under Act, with
  // the solver left usable. Clauses added after the compactions and the
  // learnts that survived them must still give right answers.
  Solver S(/*LogProof=*/true);
  for (Var V = 0; V < 250; ++V)
    S.newVar();
  Var Act = S.newVar();
  std::vector<std::vector<Lit>> Cnf = random3Cnf(1, 250);
  for (std::vector<Lit> C : Cnf) {
    C.push_back(neg(Act));
    ASSERT_TRUE(S.addClause(C));
  }
  ASSERT_EQ(solveInSlices(S, {pos(Act)}, 200), SolveResult::Unsat);
  ASSERT_GE(S.stats().Compactions, 1u);
  ASSERT_TRUE(S.okay());
  EXPECT_EQ(S.conflictAssumptions(), std::vector<Lit>{neg(Act)});

  // A new implication chain Y0 -> ... -> Y9 -> x0, with Y0 asserted.
  std::vector<Var> Y(10);
  for (Var &V : Y)
    V = S.newVar();
  ASSERT_TRUE(S.addClause(pos(Y[0])));
  for (size_t I = 0; I + 1 < Y.size(); ++I)
    ASSERT_TRUE(S.addClause(neg(Y[I]), pos(Y[I + 1])));
  ASSERT_TRUE(S.addClause(neg(Y.back()), pos(0)));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.modelValue(Act), LBool::False) << "Act forces a refutation";
  for (Var V : Y)
    EXPECT_EQ(S.modelValue(V), LBool::True);
  EXPECT_EQ(S.modelValue(Var(0)), LBool::True);

  // Asserting Act for good turns the assumption refutation into a proof
  // of the empty clause.
  bool Consistent = S.addClause(pos(Act));
  EXPECT_EQ(Consistent ? S.solve() : SolveResult::Unsat, SolveResult::Unsat);
  RupChecker::Outcome O =
      RupChecker::check(*S.proofLog(), /*RequireEmptyClause=*/true);
  EXPECT_TRUE(O.Ok) << O.Error;
}

TEST(SatSolverArena, BinaryReasonChainsGiveExactAssumptionConflict) {
  // A -> P1 -> ... -> P6 and B -> Q1 -> ... -> Q6 as binary clauses,
  // then P6 & Q6 -> Z. Assuming A, Y, B, ~Z fails, and analyzeFinal()
  // must walk both chains back to their decisions. The P chain runs over
  // increasing variables, so each implied literal sorts into slot 1 of
  // its clause; the Q chain runs over decreasing ones, so it sorts into
  // slot 0. Y is irrelevant and must not be reported.
  Solver S;
  Var A = S.newVar(), B = S.newVar(), Y = S.newVar(), Z = S.newVar();
  std::vector<Var> P(6), Q(6);
  for (Var &V : P)
    V = S.newVar();
  for (Var &V : Q)
    V = S.newVar();
  std::reverse(Q.begin(), Q.end());
  S.addClause(neg(A), pos(P[0]));
  S.addClause(neg(B), pos(Q[0]));
  for (size_t I = 0; I + 1 < P.size(); ++I) {
    S.addClause(neg(P[I]), pos(P[I + 1]));
    S.addClause(neg(Q[I]), pos(Q[I + 1]));
  }
  S.addClause(neg(P.back()), neg(Q.back()), pos(Z));
  S.addClause(pos(Y), pos(Z), pos(A)); // mentions Y, implies nothing here

  ASSERT_EQ(S.solve({pos(A), pos(Y), pos(B), neg(Z)}), SolveResult::Unsat);
  std::vector<Lit> Got = S.conflictAssumptions();
  std::vector<Lit> Want = {neg(A), neg(B), pos(Z)};
  std::sort(Got.begin(), Got.end());
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(Got, Want);

  // Each chain alone is consistent; the conflict needs both.
  EXPECT_EQ(S.solve({pos(A), pos(Y), neg(Z)}), SolveResult::Sat);
  EXPECT_EQ(S.solve({pos(B), pos(Y), neg(Z)}), SolveResult::Sat);
}

//===----------------------------------------------------------------------===//
// Property tests: random 3-CNF vs the reference DPLL oracle.
//===----------------------------------------------------------------------===//

struct RandomCnfParams {
  int NumVars;
  int NumClauses;
  unsigned Seed;
};

class RandomCnfTest : public ::testing::TestWithParam<RandomCnfParams> {};

TEST_P(RandomCnfTest, AgreesWithReferenceDpll) {
  RandomCnfParams P = GetParam();
  std::mt19937 Rng(P.Seed);
  for (int Round = 0; Round < 20; ++Round) {
    Cnf F;
    F.NumVars = P.NumVars;
    std::uniform_int_distribution<int> VarDist(0, P.NumVars - 1);
    std::uniform_int_distribution<int> SignDist(0, 1);
    for (int I = 0; I < P.NumClauses; ++I) {
      std::vector<Lit> C;
      for (int K = 0; K < 3; ++K)
        C.push_back(Lit::make(VarDist(Rng), SignDist(Rng) == 1));
      F.addClause(C);
    }
    ReferenceDpll Ref(F);
    bool RefSat = Ref.solve();

    Solver S;
    bool LoadOk = loadIntoSolver(F, S);
    SolveResult R = LoadOk ? S.solve() : SolveResult::Unsat;
    EXPECT_EQ(R == SolveResult::Sat, RefSat)
        << "seed " << P.Seed << " round " << Round;
    if (R == SolveResult::Sat)
      EXPECT_TRUE(modelSatisfies(S, F));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomCnfTest,
    ::testing::Values(RandomCnfParams{6, 20, 1}, RandomCnfParams{8, 34, 2},
                      RandomCnfParams{10, 42, 3}, RandomCnfParams{12, 50, 4},
                      RandomCnfParams{9, 39, 5}, RandomCnfParams{11, 47, 6},
                      RandomCnfParams{13, 56, 7}, RandomCnfParams{7, 30, 8}));

// Incremental property: solving with assumptions must agree with solving a
// copy of the formula with those assumptions as units.
class IncrementalPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(IncrementalPropertyTest, AssumptionsMatchUnits) {
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int> VarDist(0, 9);
  std::uniform_int_distribution<int> SignDist(0, 1);

  Cnf F;
  F.NumVars = 10;
  for (int I = 0; I < 35; ++I) {
    std::vector<Lit> C;
    for (int K = 0; K < 3; ++K)
      C.push_back(Lit::make(VarDist(Rng), SignDist(Rng) == 1));
    F.addClause(C);
  }

  Solver Incremental;
  bool BaseOk = loadIntoSolver(F, Incremental);

  for (int Round = 0; Round < 8; ++Round) {
    std::vector<Lit> Assumps;
    for (int K = 0; K < 3; ++K)
      Assumps.push_back(Lit::make(VarDist(Rng), SignDist(Rng) == 1));

    Cnf G = F;
    for (Lit A : Assumps)
      G.addClause({A});
    ReferenceDpll Ref(G);
    bool RefSat = Ref.solve();

    SolveResult R = BaseOk ? Incremental.solve(Assumps) : SolveResult::Unsat;
    EXPECT_EQ(R == SolveResult::Sat, RefSat) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalPropertyTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

} // namespace
