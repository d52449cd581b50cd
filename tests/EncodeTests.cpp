//===--- EncodeTests.cpp - CNF builder / bitvector / order tests -----------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "encode/BitVec.h"
#include "encode/OrderEncoding.h"

#include "gtest/gtest.h"

#include <random>

using namespace checkfence;
using namespace checkfence::encode;
using namespace checkfence::sat;

namespace {

//===----------------------------------------------------------------------===//
// CnfBuilder gates
//===----------------------------------------------------------------------===//

struct GateFixture {
  Solver S;
  CnfBuilder B{S};
  Lit A = B.fresh(), C = B.fresh();

  /// Checks the truth table of Out against F over inputs (A, C).
  void checkBinary(Lit Out, bool (*F)(bool, bool)) {
    for (int I = 0; I < 4; ++I) {
      bool AV = I & 1, CV = I & 2;
      std::vector<Lit> Assumps{A ^ !AV, C ^ !CV};
      ASSERT_EQ(S.solve(Assumps), SolveResult::Sat);
      EXPECT_EQ(S.modelValue(Out) == LBool::True, F(AV, CV))
          << "inputs " << AV << " " << CV;
    }
  }
};

TEST(CnfBuilder, AndGate) {
  GateFixture G;
  G.checkBinary(G.B.andLit(G.A, G.C), [](bool X, bool Y) { return X && Y; });
}

TEST(CnfBuilder, OrGate) {
  GateFixture G;
  G.checkBinary(G.B.orLit(G.A, G.C), [](bool X, bool Y) { return X || Y; });
}

TEST(CnfBuilder, XorGate) {
  GateFixture G;
  G.checkBinary(G.B.xorLit(G.A, G.C), [](bool X, bool Y) { return X != Y; });
}

TEST(CnfBuilder, ConstantFolding) {
  Solver S;
  CnfBuilder B(S);
  Lit A = B.fresh();
  EXPECT_EQ(B.andLit(A, B.trueLit()), A);
  EXPECT_TRUE(B.isFalse(B.andLit(A, B.falseLit())));
  EXPECT_EQ(B.orLit(A, B.falseLit()), A);
  EXPECT_TRUE(B.isTrue(B.orLit(A, B.trueLit())));
  EXPECT_EQ(B.xorLit(A, B.falseLit()), A);
  EXPECT_EQ(B.xorLit(A, B.trueLit()), ~A);
  EXPECT_TRUE(B.isFalse(B.andLit(A, ~A)));
}

TEST(CnfBuilder, StructuralHashing) {
  Solver S;
  CnfBuilder B(S);
  Lit A = B.fresh(), C = B.fresh();
  EXPECT_EQ(B.andLit(A, C), B.andLit(C, A));
  EXPECT_EQ(B.xorLit(A, C), B.xorLit(C, A));
  EXPECT_EQ(B.xorLit(~A, C), ~B.xorLit(A, C));
}

TEST(CnfBuilder, IteGate) {
  Solver S;
  CnfBuilder B(S);
  Lit C = B.fresh(), X = B.fresh(), Y = B.fresh();
  Lit Out = B.iteLit(C, X, Y);
  for (int I = 0; I < 8; ++I) {
    bool CV = I & 1, XV = I & 2, YV = I & 4;
    ASSERT_EQ(S.solve({C ^ !CV, X ^ !XV, Y ^ !YV}), SolveResult::Sat);
    EXPECT_EQ(S.modelValue(Out) == LBool::True, CV ? XV : YV);
  }
}

//===----------------------------------------------------------------------===//
// Bitvector circuits: property tests against native arithmetic.
//===----------------------------------------------------------------------===//

class BitVecProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVecProperty, ArithmeticMatchesNative) {
  std::mt19937 Rng(GetParam());
  for (int Round = 0; Round < 12; ++Round) {
    Solver S;
    CnfBuilder B(S);
    int WidthA = 1 + static_cast<int>(Rng() % 7);
    int WidthB = 1 + static_cast<int>(Rng() % 7);
    uint64_t AV = Rng() & ((1u << WidthA) - 1);
    uint64_t BV = Rng() & ((1u << WidthB) - 1);
    BitVec A = BitVec::constant(B, AV, WidthA);
    BitVec Bv = BitVec::constant(B, BV, WidthB);

    int OutW = 9;
    uint64_t Mask = (1u << OutW) - 1;
    BitVec Sum = bvAdd(B, A, Bv, OutW);
    BitVec Diff = bvSub(B, A, Bv, OutW);
    BitVec Prod = bvMul(B, A, Bv, OutW);
    Lit Eq = bvEq(B, A, Bv);
    Lit Ult = bvUlt(B, A, Bv);

    ASSERT_EQ(S.solve(), SolveResult::Sat);
    EXPECT_EQ(bvModelValue(S, B, Sum), (AV + BV) & Mask);
    EXPECT_EQ(bvModelValue(S, B, Diff), (AV - BV) & Mask);
    EXPECT_EQ(bvModelValue(S, B, Prod), (AV * BV) & Mask);
    EXPECT_EQ(S.modelValue(Eq) == LBool::True, AV == BV);
    EXPECT_EQ(S.modelValue(Ult) == LBool::True, AV < BV);
  }
}

TEST_P(BitVecProperty, SymbolicAdditionInverts) {
  // For symbolic x: (x + c) - c == x.
  std::mt19937 Rng(GetParam());
  Solver S;
  CnfBuilder B(S);
  int W = 6;
  BitVec X = BitVec::fresh(B, W);
  uint64_t C = Rng() & ((1u << W) - 1);
  BitVec Sum = bvAdd(B, X, BitVec::constant(B, C, W), W);
  BitVec Back = bvSub(B, Sum, BitVec::constant(B, C, W), W);
  // Assert inequality; must be unsatisfiable.
  B.addClause(~bvEq(B, X, Back));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitVecProperty,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

TEST(BitVec, MuxSelects) {
  Solver S;
  CnfBuilder B(S);
  Lit C = B.fresh();
  BitVec X = BitVec::constant(B, 5, 4), Y = BitVec::constant(B, 9, 4);
  BitVec M = bvMux(B, C, X, Y);
  ASSERT_EQ(S.solve({C}), SolveResult::Sat);
  EXPECT_EQ(bvModelValue(S, B, M), 5u);
  ASSERT_EQ(S.solve({~C}), SolveResult::Sat);
  EXPECT_EQ(bvModelValue(S, B, M), 9u);
}

TEST(BitVec, EqConstOutOfRange) {
  Solver S;
  CnfBuilder B(S);
  BitVec X = BitVec::fresh(B, 2);
  EXPECT_TRUE(B.isFalse(bvEqConst(B, X, 9))); // 9 needs 4 bits
}

//===----------------------------------------------------------------------===//
// Order relation: totality, antisymmetry, transitivity as SAT properties.
//===----------------------------------------------------------------------===//

std::vector<AccessInfo> makeAccesses(int PerThread, int Threads) {
  std::vector<AccessInfo> Out;
  for (int T = 0; T < Threads; ++T)
    for (int I = 0; I < PerThread; ++I) {
      AccessInfo A;
      A.Thread = T;
      A.IndexInThread = I;
      A.Group = -1;
      Out.push_back(A);
    }
  return Out;
}

class OrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(OrderProperty, IsATotalOrder) {
  int N = GetParam();
  Solver S;
  CnfBuilder B(S);
  MemoryOrder M(B, makeAccesses(N, 1), /*SerialOps=*/false, {});
  ASSERT_EQ(S.solve(), SolveResult::Sat);

  auto Before = [&](int I, int J) {
    Lit L = M.before(I, J);
    if (B.isTrue(L))
      return true;
    if (B.isFalse(L))
      return false;
    return S.modelValue(L) == LBool::True;
  };
  // Antisymmetry + totality.
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      if (I != J)
        EXPECT_NE(Before(I, J), Before(J, I));
  // Transitivity.
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      for (int K = 0; K < N; ++K) {
        if (I == J || J == K || I == K)
          continue;
        if (Before(I, J) && Before(J, K))
          EXPECT_TRUE(Before(I, K));
      }
}

TEST_P(OrderProperty, ForcedPairsHold) {
  int N = GetParam();
  if (N < 3)
    return;
  Solver S;
  CnfBuilder B(S);
  std::vector<std::pair<int, int>> Forced = {{2, 1}, {1, 0}};
  MemoryOrder M(B, makeAccesses(N, 1), false, Forced);
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  auto True = [&](Lit L) {
    return B.isTrue(L) || (!B.isFalse(L) && S.modelValue(L) == LBool::True);
  };
  EXPECT_TRUE(True(M.before(2, 1)));
  EXPECT_TRUE(True(M.before(1, 0)));
  EXPECT_TRUE(True(M.before(2, 0))); // transitive consequence
}

TEST_P(OrderProperty, CyclicForcingIsUnsat) {
  int N = GetParam();
  if (N < 2)
    return;
  Solver S;
  CnfBuilder B(S);
  MemoryOrder M(B, makeAccesses(N, 1), false, {});
  // Force a 2-cycle dynamically; the solver must refuse.
  bool Ok = S.addClause(M.before(0, 1));
  Ok = S.addClause(M.before(1, 0)) && Ok;
  EXPECT_TRUE(!Ok || S.solve() == SolveResult::Unsat);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrderProperty, ::testing::Values(3, 5, 7));

TEST(Order, SerialModeGroupsAtomic) {
  // Two groups of two accesses each: the groups order as units.
  Solver S;
  CnfBuilder B(S);
  std::vector<AccessInfo> Accs(4);
  Accs[0] = {0, 0, 0};
  Accs[1] = {0, 1, 0};
  Accs[2] = {1, 0, 1};
  Accs[3] = {1, 1, 1};
  MemoryOrder M(B, Accs, /*SerialOps=*/true, {});
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  // Intra-group: program order constants.
  EXPECT_TRUE(B.isTrue(M.before(0, 1)));
  EXPECT_TRUE(B.isTrue(M.before(2, 3)));
  // Inter-group literals are shared: 0<2 iff 1<3.
  auto True = [&](Lit L) {
    return B.isTrue(L) || (!B.isFalse(L) && S.modelValue(L) == LBool::True);
  };
  EXPECT_EQ(True(M.before(0, 2)), True(M.before(1, 3)));
  EXPECT_EQ(True(M.before(0, 3)), True(M.before(1, 2)));
}

} // namespace
