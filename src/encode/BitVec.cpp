//===--- BitVec.cpp - bitvector circuits over SAT literals -----------------===//

#include "encode/BitVec.h"

#include <algorithm>
#include <cassert>

using namespace checkfence;
using namespace checkfence::encode;

BitVec BitVec::fresh(CnfBuilder &B, int Width) {
  BitVec V;
  V.Bits.reserve(Width);
  for (int I = 0; I < Width; ++I)
    V.Bits.push_back(B.fresh());
  return V;
}

BitVec BitVec::constant(CnfBuilder &B, uint64_t Value, int Width) {
  BitVec V;
  V.Bits.reserve(Width);
  for (int I = 0; I < Width; ++I)
    V.Bits.push_back(B.boolLit((Value >> I) & 1));
  assert((Width >= 64 || (Value >> Width) == 0) &&
         "constant does not fit in width");
  return V;
}

BitVec checkfence::encode::zext(CnfBuilder &B, const BitVec &V, int Width) {
  BitVec Out = V;
  while (Out.width() < Width)
    Out.Bits.push_back(B.falseLit());
  return Out;
}

Lit checkfence::encode::bvEq(CnfBuilder &B, const BitVec &A,
                             const BitVec &Bv) {
  int W = std::max(A.width(), Bv.width());
  BitVec X = zext(B, A, W), Y = zext(B, Bv, W);
  std::vector<Lit> Eqs;
  Eqs.reserve(W);
  for (int I = 0; I < W; ++I)
    Eqs.push_back(B.iffLit(X.bit(I), Y.bit(I)));
  return B.andLits(Eqs);
}

Lit checkfence::encode::bvEqConst(CnfBuilder &B, const BitVec &A,
                                  uint64_t C) {
  std::vector<Lit> Eqs;
  Eqs.reserve(A.width());
  for (int I = 0; I < A.width(); ++I)
    Eqs.push_back(((C >> I) & 1) ? A.bit(I) : ~A.bit(I));
  if (A.width() < 64 && (C >> A.width()) != 0)
    return B.falseLit(); // constant does not fit: never equal
  return B.andLits(Eqs);
}

Lit checkfence::encode::bvUlt(CnfBuilder &B, const BitVec &A,
                              const BitVec &Bv) {
  int W = std::max(A.width(), Bv.width());
  BitVec X = zext(B, A, W), Y = zext(B, Bv, W);
  // Ripple from LSB: lt_i = (~x & y) | (x<->y) & lt_{i-1}
  Lit Lt = B.falseLit();
  for (int I = 0; I < W; ++I) {
    Lit XltY = B.andLit(~X.bit(I), Y.bit(I));
    Lit Same = B.iffLit(X.bit(I), Y.bit(I));
    Lt = B.orLit(XltY, B.andLit(Same, Lt));
  }
  return Lt;
}

Lit checkfence::encode::bvNonZero(CnfBuilder &B, const BitVec &A) {
  return B.orLits(A.Bits);
}

BitVec checkfence::encode::bvMux(CnfBuilder &B, Lit C, const BitVec &A,
                                 const BitVec &Bv) {
  int W = std::max(A.width(), Bv.width());
  BitVec X = zext(B, A, W), Y = zext(B, Bv, W);
  BitVec Out;
  Out.Bits.reserve(W);
  for (int I = 0; I < W; ++I)
    Out.Bits.push_back(B.iteLit(C, X.bit(I), Y.bit(I)));
  return Out;
}

BitVec checkfence::encode::bvAdd(CnfBuilder &B, const BitVec &A,
                                 const BitVec &Bv, int OutWidth) {
  BitVec X = zext(B, A, OutWidth), Y = zext(B, Bv, OutWidth);
  BitVec Out;
  Out.Bits.reserve(OutWidth);
  Lit Carry = B.falseLit();
  for (int I = 0; I < OutWidth; ++I) {
    Lit S = B.xorLit(B.xorLit(X.bit(I), Y.bit(I)), Carry);
    Lit C1 = B.andLit(X.bit(I), Y.bit(I));
    Lit C2 = B.andLit(B.xorLit(X.bit(I), Y.bit(I)), Carry);
    Carry = B.orLit(C1, C2);
    Out.Bits.push_back(S);
  }
  return Out;
}

BitVec checkfence::encode::bvSub(CnfBuilder &B, const BitVec &A,
                                 const BitVec &Bv, int OutWidth) {
  // a - b = a + ~b + 1 in two's complement.
  BitVec X = zext(B, A, OutWidth), Y = zext(B, Bv, OutWidth);
  BitVec Out;
  Out.Bits.reserve(OutWidth);
  Lit Carry = B.trueLit();
  for (int I = 0; I < OutWidth; ++I) {
    Lit Yn = ~Y.bit(I);
    Lit S = B.xorLit(B.xorLit(X.bit(I), Yn), Carry);
    Lit C1 = B.andLit(X.bit(I), Yn);
    Lit C2 = B.andLit(B.xorLit(X.bit(I), Yn), Carry);
    Carry = B.orLit(C1, C2);
    Out.Bits.push_back(S);
  }
  return Out;
}

BitVec checkfence::encode::bvMul(CnfBuilder &B, const BitVec &A,
                                 const BitVec &Bv, int OutWidth) {
  BitVec X = zext(B, A, OutWidth);
  BitVec Acc = BitVec::constant(B, 0, OutWidth);
  for (int I = 0; I < Bv.width() && I < OutWidth; ++I) {
    // Partial product: (b_i ? x : 0) << i
    BitVec Part;
    Part.Bits.assign(static_cast<size_t>(OutWidth), B.falseLit());
    for (int J = 0; I + J < OutWidth; ++J)
      Part.Bits[I + J] = B.andLit(Bv.bit(I), X.bit(J));
    Acc = bvAdd(B, Acc, Part, OutWidth);
  }
  return Acc;
}

static BitVec bitwise(CnfBuilder &B, const BitVec &A, const BitVec &Bv,
                      Lit (CnfBuilder::*Op)(Lit, Lit)) {
  int W = std::max(A.width(), Bv.width());
  BitVec X = zext(B, A, W), Y = zext(B, Bv, W);
  BitVec Out;
  Out.Bits.reserve(W);
  for (int I = 0; I < W; ++I)
    Out.Bits.push_back((B.*Op)(X.bit(I), Y.bit(I)));
  return Out;
}

BitVec checkfence::encode::bvAnd(CnfBuilder &B, const BitVec &A,
                                 const BitVec &Bv) {
  return bitwise(B, A, Bv, &CnfBuilder::andLit);
}
BitVec checkfence::encode::bvOr(CnfBuilder &B, const BitVec &A,
                                const BitVec &Bv) {
  return bitwise(B, A, Bv, &CnfBuilder::orLit);
}
BitVec checkfence::encode::bvXor(CnfBuilder &B, const BitVec &A,
                                 const BitVec &Bv) {
  return bitwise(B, A, Bv, &CnfBuilder::xorLit);
}

uint64_t checkfence::encode::bvModelValue(const sat::Solver &S,
                                          const CnfBuilder &B,
                                          const BitVec &V) {
  uint64_t Out = 0;
  for (int I = 0; I < V.width() && I < 64; ++I)
    if (S.modelValue(V.bit(I)) == sat::LBool::True)
      Out |= (uint64_t(1) << I);
  return Out;
}
