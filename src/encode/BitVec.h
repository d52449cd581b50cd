//===--- BitVec.h - bitvector circuits over SAT literals --------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width bitvectors of SAT literals (LSB first) with the circuit
/// operations the value encoding needs: constants, equality, unsigned
/// comparison, addition/subtraction, multiplexing, and bitwise logic.
/// The range analysis determines widths; most operations in the studied
/// programs are instead encoded as enumerated tables, so these circuits are
/// the fallback for wide/unbounded values.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENCODE_BITVEC_H
#define CHECKFENCE_ENCODE_BITVEC_H

#include "encode/CnfBuilder.h"

#include <cstdint>
#include <vector>

namespace checkfence {
namespace encode {

/// A little-endian vector of literals.
struct BitVec {
  std::vector<Lit> Bits;

  BitVec() = default;
  explicit BitVec(std::vector<Lit> B) : Bits(std::move(B)) {}

  int width() const { return static_cast<int>(Bits.size()); }
  Lit bit(int I) const { return Bits[I]; }

  /// A fresh vector of \p Width unconstrained bits.
  static BitVec fresh(CnfBuilder &B, int Width);
  /// The constant \p Value in \p Width bits (must fit).
  static BitVec constant(CnfBuilder &B, uint64_t Value, int Width);
};

/// Zero-extends \p V to \p Width (no-op if already wide enough).
BitVec zext(CnfBuilder &B, const BitVec &V, int Width);

/// a == b (widths aligned by zero extension).
Lit bvEq(CnfBuilder &B, const BitVec &A, const BitVec &Bv);
/// a == constant.
Lit bvEqConst(CnfBuilder &B, const BitVec &A, uint64_t C);
/// a < b, unsigned.
Lit bvUlt(CnfBuilder &B, const BitVec &A, const BitVec &Bv);
/// a != 0.
Lit bvNonZero(CnfBuilder &B, const BitVec &A);

/// c ? a : b per bit (widths aligned by zero extension).
BitVec bvMux(CnfBuilder &B, Lit C, const BitVec &A, const BitVec &Bv);

/// a + b in OutWidth bits (ripple-carry; inputs zero-extended).
BitVec bvAdd(CnfBuilder &B, const BitVec &A, const BitVec &Bv, int OutWidth);
/// a - b in OutWidth bits, two's complement wraparound.
BitVec bvSub(CnfBuilder &B, const BitVec &A, const BitVec &Bv, int OutWidth);
/// a * b in OutWidth bits (shift-and-add).
BitVec bvMul(CnfBuilder &B, const BitVec &A, const BitVec &Bv, int OutWidth);

/// Bitwise ops (widths aligned by zero extension, result max width).
BitVec bvAnd(CnfBuilder &B, const BitVec &A, const BitVec &Bv);
BitVec bvOr(CnfBuilder &B, const BitVec &A, const BitVec &Bv);
BitVec bvXor(CnfBuilder &B, const BitVec &A, const BitVec &Bv);

/// Decodes the model value of \p V from the solver after a Sat result.
uint64_t bvModelValue(const sat::Solver &S, const CnfBuilder &B,
                      const BitVec &V);

} // namespace encode
} // namespace checkfence

#endif // CHECKFENCE_ENCODE_BITVEC_H
