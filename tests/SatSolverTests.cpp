//===--- SatSolverTests.cpp - unit & property tests for the CDCL solver ---===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "gtest/gtest.h"

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
