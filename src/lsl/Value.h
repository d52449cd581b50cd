//===--- Value.h - LSL runtime values ---------------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LSL is untyped, but values are tagged at runtime (paper Sec. 3.1):
///
///   v ::= undefined | n | [ n1 ... nk ]
///
/// An integer is an exact (64-bit) number. A pointer is a base address
/// followed by a sequence of field/array offsets (paper Fig. 5); keeping the
/// offsets separate from the base avoids arithmetic when encoding pointer
/// operations. We extend pointers with a *mark bit* to model algorithms that
/// pack a flag into the low bit of a pointer word (Harris's set); the paper
/// supports such "packed structures" (footnote 1).
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_LSL_VALUE_H
#define CHECKFENCE_LSL_VALUE_H

#include <cstdint>
#include <string>
#include <vector>

namespace checkfence {
namespace lsl {

/// A tagged LSL value: undefined, integer, or pointer-with-offsets.
class Value {
public:
  enum class Kind : uint8_t { Undefined, Int, Ptr };

  Value() : K(Kind::Undefined) {}

  static Value undef() { return Value(); }

  static Value integer(int64_t N) {
    Value V;
    V.K = Kind::Int;
    V.IntVal = N;
    return V;
  }

  static Value pointer(std::vector<uint32_t> Path, bool Mark = false) {
    Value V;
    V.K = Kind::Ptr;
    V.PtrPath = std::move(Path);
    V.PtrMark = Mark;
    return V;
  }

  Kind kind() const { return K; }
  bool isUndef() const { return K == Kind::Undefined; }
  bool isInt() const { return K == Kind::Int; }
  bool isPtr() const { return K == Kind::Ptr; }

  int64_t intValue() const { return IntVal; }
  const std::vector<uint32_t> &ptrPath() const { return PtrPath; }
  bool ptrMark() const { return PtrMark; }

  /// Returns this pointer with \p Offset appended ([0 1] -> [0 1 2]).
  Value withOffset(uint32_t Offset) const;
  /// Returns this pointer with the mark bit set to \p Mark.
  Value withMark(bool Mark) const;

  /// Truthiness for conditions: ints are true iff nonzero; pointers are
  /// always true; undefined has no truth value (callers must check).
  bool isTruthy() const { return isPtr() || (isInt() && IntVal != 0); }

  /// Structural equality (the LSL '==' semantics on defined values compares
  /// tag, payload, and mark).
  bool operator==(const Value &O) const;
  bool operator!=(const Value &O) const { return !(*this == O); }
  /// Total order so values can live in std::set / std::map (range analysis).
  bool operator<(const Value &O) const;

  /// Renders "undef", "42", or "[0 1 2]" / "[0 1 2]&1" for marked pointers.
  std::string str() const;

private:
  Kind K;
  int64_t IntVal = 0;
  std::vector<uint32_t> PtrPath;
  bool PtrMark = false;
};

/// Primitive operations available to LSL programs ('f' in Fig. 4).
enum class PrimOpKind : uint8_t {
  // Integer arithmetic (exact).
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  // Bitwise on integers.
  BitAnd,
  BitOr,
  BitXor,
  BitNot,
  Shl,
  Shr,
  // Comparisons (result is int 0/1). Mixed int/pointer compares are defined:
  // a pointer never equals an integer.
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  // Logical (operands coerced by truthiness; result int 0/1).
  LNot,
  LAnd,
  LOr,
  // Pointer structure (paper Fig. 5): append a constant field offset /
  // a dynamic array index to the offset sequence.
  PtrField,
  PtrIndex,
  // Mark-bit manipulation for packed pointer words (Harris's set).
  PtrMark,
  PtrGetMark,
  PtrClearMark,
  // Ternary select: (c, a, b) -> c ? a : b  (c must be defined).
  Select,
  // Identity (register copy).
  Copy,
};

/// Number of register operands each PrimOpKind consumes (PtrField also
/// consumes an immediate).
int primOpArity(PrimOpKind K);

/// Printable operator name ("add", "eq", "ptrfield", ...).
const char *primOpName(PrimOpKind K);

/// Evaluates \p Op on concrete values. This is the single definition of LSL
/// operational semantics on values; the range analysis, the reference
/// executor, and the table-based encoder all call it.
/// \p Imm is the immediate operand (only PtrField uses it).
Value evalPrimOp(PrimOpKind Op, const std::vector<Value> &Args, int64_t Imm);

/// The four memory ordering fence kinds of Sparc RMO (paper Sec. 3.1):
/// an X-Y fence orders preceding accesses of kind X before following
/// accesses of kind Y.
enum class FenceKind : uint8_t {
  LoadLoad,
  LoadStore,
  StoreLoad,
  StoreStore,
};

const char *fenceKindName(FenceKind K);

/// The fence kind that orders an earlier access before a later one
/// (load when \p EarlierIsLoad / \p LaterIsLoad, store otherwise).
FenceKind fenceKindFor(bool EarlierIsLoad, bool LaterIsLoad);

/// Parses "load-load" etc.; returns false on unknown spelling.
bool parseFenceKind(const std::string &S, FenceKind &Out);

} // namespace lsl
} // namespace checkfence

#endif // CHECKFENCE_LSL_VALUE_H
