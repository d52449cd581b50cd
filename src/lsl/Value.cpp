//===--- Value.cpp - LSL runtime values and operator semantics ------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "lsl/Value.h"

#include "support/Format.h"

#include <cassert>

using namespace checkfence;
using namespace checkfence::lsl;

Value Value::withOffset(uint32_t Offset) const {
  assert(isPtr() && "offset on non-pointer");
  std::vector<uint32_t> P = PtrPath;
  P.push_back(Offset);
  return pointer(std::move(P), PtrMark);
}

Value Value::withMark(bool Mark) const {
  assert(isPtr() && "mark on non-pointer");
  return pointer(PtrPath, Mark);
}

bool Value::operator==(const Value &O) const {
  if (K != O.K)
    return false;
  switch (K) {
  case Kind::Undefined:
    return true;
  case Kind::Int:
    return IntVal == O.IntVal;
  case Kind::Ptr:
    return PtrPath == O.PtrPath && PtrMark == O.PtrMark;
  }
  return false;
}

bool Value::operator<(const Value &O) const {
  if (K != O.K)
    return static_cast<int>(K) < static_cast<int>(O.K);
  switch (K) {
  case Kind::Undefined:
    return false;
  case Kind::Int:
    return IntVal < O.IntVal;
  case Kind::Ptr:
    if (PtrPath != O.PtrPath)
      return PtrPath < O.PtrPath;
    return PtrMark < O.PtrMark;
  }
  return false;
}

std::string Value::str() const {
  switch (K) {
  case Kind::Undefined:
    return "undef";
  case Kind::Int:
    return formatString("%lld", static_cast<long long>(IntVal));
  case Kind::Ptr: {
    std::string S = "[";
    for (size_t I = 0; I < PtrPath.size(); ++I) {
      if (I != 0)
        S += ' ';
      S += formatString("%u", PtrPath[I]);
    }
    S += ']';
    if (PtrMark)
      S += "&1";
    return S;
  }
  }
  return "<bad>";
}

int checkfence::lsl::primOpArity(PrimOpKind K) {
  switch (K) {
  case PrimOpKind::BitNot:
  case PrimOpKind::LNot:
  case PrimOpKind::PtrField:
  case PrimOpKind::PtrGetMark:
  case PrimOpKind::PtrClearMark:
  case PrimOpKind::Copy:
    return 1;
  case PrimOpKind::Select:
    return 3;
  default:
    return 2;
  }
}

const char *checkfence::lsl::primOpName(PrimOpKind K) {
  switch (K) {
  case PrimOpKind::Add:
    return "add";
  case PrimOpKind::Sub:
    return "sub";
  case PrimOpKind::Mul:
    return "mul";
  case PrimOpKind::Div:
    return "div";
  case PrimOpKind::Mod:
    return "mod";
  case PrimOpKind::BitAnd:
    return "and";
  case PrimOpKind::BitOr:
    return "or";
  case PrimOpKind::BitXor:
    return "xor";
  case PrimOpKind::BitNot:
    return "not";
  case PrimOpKind::Shl:
    return "shl";
  case PrimOpKind::Shr:
    return "shr";
  case PrimOpKind::Eq:
    return "eq";
  case PrimOpKind::Ne:
    return "ne";
  case PrimOpKind::Lt:
    return "lt";
  case PrimOpKind::Le:
    return "le";
  case PrimOpKind::Gt:
    return "gt";
  case PrimOpKind::Ge:
    return "ge";
  case PrimOpKind::LNot:
    return "lnot";
  case PrimOpKind::LAnd:
    return "land";
  case PrimOpKind::LOr:
    return "lor";
  case PrimOpKind::PtrField:
    return "ptrfield";
  case PrimOpKind::PtrIndex:
    return "ptrindex";
  case PrimOpKind::PtrMark:
    return "ptrmark";
  case PrimOpKind::PtrGetMark:
    return "ptrgetmark";
  case PrimOpKind::PtrClearMark:
    return "ptrclearmark";
  case PrimOpKind::Select:
    return "select";
  case PrimOpKind::Copy:
    return "copy";
  }
  return "<bad-op>";
}

/// Integer binary operator core; assumes both operands are ints.
static Value evalIntBinary(PrimOpKind Op, int64_t A, int64_t B) {
  switch (Op) {
  case PrimOpKind::Add:
    return Value::integer(A + B);
  case PrimOpKind::Sub:
    return Value::integer(A - B);
  case PrimOpKind::Mul:
    return Value::integer(A * B);
  case PrimOpKind::Div:
    return B == 0 ? Value::undef() : Value::integer(A / B);
  case PrimOpKind::Mod:
    return B == 0 ? Value::undef() : Value::integer(A % B);
  case PrimOpKind::BitAnd:
    return Value::integer(A & B);
  case PrimOpKind::BitOr:
    return Value::integer(A | B);
  case PrimOpKind::BitXor:
    return Value::integer(A ^ B);
  case PrimOpKind::Shl:
    return (B < 0 || B > 62) ? Value::undef() : Value::integer(A << B);
  case PrimOpKind::Shr:
    return (B < 0 || B > 62) ? Value::undef() : Value::integer(A >> B);
  case PrimOpKind::Lt:
    return Value::integer(A < B);
  case PrimOpKind::Le:
    return Value::integer(A <= B);
  case PrimOpKind::Gt:
    return Value::integer(A > B);
  case PrimOpKind::Ge:
    return Value::integer(A >= B);
  default:
    return Value::undef();
  }
}

Value checkfence::lsl::evalPrimOp(PrimOpKind Op,
                                  const std::vector<Value> &Args,
                                  int64_t Imm) {
  assert(static_cast<int>(Args.size()) == primOpArity(Op) &&
         "wrong arity for primop");

  switch (Op) {
  case PrimOpKind::Copy:
    return Args[0];

  case PrimOpKind::Eq:
  case PrimOpKind::Ne: {
    const Value &A = Args[0], &B = Args[1];
    if (A.isUndef() || B.isUndef())
      return Value::undef();
    bool Equal = (A == B);
    return Value::integer((Op == PrimOpKind::Eq) == Equal);
  }

  case PrimOpKind::LNot: {
    if (Args[0].isUndef())
      return Value::undef();
    return Value::integer(!Args[0].isTruthy());
  }
  // Logical conjunction/disjunction use Kleene three-valued semantics: a
  // defined-false operand decides LAnd and a defined-true operand decides
  // LOr even if the other side is undefined. The flattener's guard algebra
  // relies on this: dead branches carry undefined registers whose values
  // must not poison live-path guards.
  case PrimOpKind::LAnd: {
    bool AFalse = !Args[0].isUndef() && !Args[0].isTruthy();
    bool BFalse = !Args[1].isUndef() && !Args[1].isTruthy();
    if (AFalse || BFalse)
      return Value::integer(0);
    if (Args[0].isUndef() || Args[1].isUndef())
      return Value::undef();
    return Value::integer(1);
  }
  case PrimOpKind::LOr: {
    bool ATrue = !Args[0].isUndef() && Args[0].isTruthy();
    bool BTrue = !Args[1].isUndef() && Args[1].isTruthy();
    if (ATrue || BTrue)
      return Value::integer(1);
    if (Args[0].isUndef() || Args[1].isUndef())
      return Value::undef();
    return Value::integer(0);
  }

  case PrimOpKind::BitNot:
    if (!Args[0].isInt())
      return Value::undef();
    return Value::integer(~Args[0].intValue());

  case PrimOpKind::PtrField:
    if (!Args[0].isPtr())
      return Value::undef();
    return Args[0].withOffset(static_cast<uint32_t>(Imm));

  case PrimOpKind::PtrIndex:
    if (!Args[0].isPtr() || !Args[1].isInt() || Args[1].intValue() < 0)
      return Value::undef();
    return Args[0].withOffset(static_cast<uint32_t>(Args[1].intValue()));

  case PrimOpKind::PtrMark:
    if (!Args[0].isPtr() || !Args[1].isInt())
      return Value::undef();
    return Args[0].withMark(Args[1].intValue() != 0);

  case PrimOpKind::PtrGetMark:
    if (!Args[0].isPtr())
      return Value::undef();
    return Value::integer(Args[0].ptrMark() ? 1 : 0);

  case PrimOpKind::PtrClearMark:
    if (!Args[0].isPtr())
      return Value::undef();
    return Args[0].withMark(false);

  case PrimOpKind::Select: {
    if (Args[0].isUndef())
      return Value::undef();
    return Args[0].isTruthy() ? Args[1] : Args[2];
  }

  default: {
    // Integer arithmetic / shifts / relational operators.
    if (!Args[0].isInt() || !Args[1].isInt())
      return Value::undef();
    return evalIntBinary(Op, Args[0].intValue(), Args[1].intValue());
  }
  }
}

const char *checkfence::lsl::fenceKindName(FenceKind K) {
  switch (K) {
  case FenceKind::LoadLoad:
    return "load-load";
  case FenceKind::LoadStore:
    return "load-store";
  case FenceKind::StoreLoad:
    return "store-load";
  case FenceKind::StoreStore:
    return "store-store";
  }
  return "<bad-fence>";
}

checkfence::lsl::FenceKind
checkfence::lsl::fenceKindFor(bool EarlierIsLoad, bool LaterIsLoad) {
  if (EarlierIsLoad)
    return LaterIsLoad ? FenceKind::LoadLoad : FenceKind::LoadStore;
  return LaterIsLoad ? FenceKind::StoreLoad : FenceKind::StoreStore;
}

bool checkfence::lsl::parseFenceKind(const std::string &S, FenceKind &Out) {
  if (S == "load-load")
    Out = FenceKind::LoadLoad;
  else if (S == "load-store")
    Out = FenceKind::LoadStore;
  else if (S == "store-load")
    Out = FenceKind::StoreLoad;
  else if (S == "store-store")
    Out = FenceKind::StoreStore;
  else
    return false;
  return true;
}
