//===--- CnfBuilder.h - Tseitin circuit construction ------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds CNF incrementally into a live sat::Solver: fresh variables,
/// constant literals, and Tseitin-encoded gates (and/or/xor/ite) with
/// structural hashing so identical subcircuits share literals. Every
/// clause goes straight to the solver; nothing is buffered.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENCODE_CNFBUILDER_H
#define CHECKFENCE_ENCODE_CNFBUILDER_H

#include "sat/Solver.h"

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

namespace checkfence {
namespace encode {

using sat::Lit;
using sat::Var;

/// Incremental CNF builder over a solver.
class CnfBuilder {
public:
  explicit CnfBuilder(sat::Solver &S) : S(S) {
    Var T = S.newVar();
    True = Lit::make(T);
    S.addClause(True);
  }

  sat::Solver &solver() { return S; }

  Lit trueLit() const { return True; }
  Lit falseLit() const { return ~True; }
  Lit boolLit(bool B) const { return B ? True : ~True; }

  bool isTrue(Lit L) const { return L == True; }
  bool isFalse(Lit L) const { return L == ~True; }
  bool isConst(Lit L) const { return isTrue(L) || isFalse(L); }

  Lit fresh() { return Lit::make(S.newVar()); }

  void addClause(const std::vector<Lit> &C) { S.addClause(C); }
  void addClause(Lit A) { addClause(std::vector<Lit>{A}); }
  void addClause(Lit A, Lit B) { addClause(std::vector<Lit>{A, B}); }
  void addClause(Lit A, Lit B, Lit C) { addClause(std::vector<Lit>{A, B, C}); }

  /// y <-> a && b
  Lit andLit(Lit A, Lit B);
  /// y <-> a || b
  Lit orLit(Lit A, Lit B);
  /// y <-> a ^ b
  Lit xorLit(Lit A, Lit B);
  /// y <-> (a <-> b)
  Lit iffLit(Lit A, Lit B) { return ~xorLit(A, B); }
  /// y <-> (c ? a : b)
  Lit iteLit(Lit C, Lit A, Lit B);
  /// Conjunction / disjunction of a list (folds constants).
  Lit andLits(const std::vector<Lit> &Ls);
  Lit orLits(const std::vector<Lit> &Ls);

  /// Asserts A -> B.
  void implies(Lit A, Lit B) { addClause(~A, B); }
  /// Asserts (A && B) -> C.
  void implies(Lit A, Lit B, Lit C) { addClause(~A, ~B, C); }

private:
  sat::Solver &S;
  Lit True;

  // Structural hashing of gates: key = (op, min, max) for commutative ops,
  // (op, a, b, c) for ite.
  std::map<std::tuple<int, int, int>, Lit> BinCache;
  std::map<std::tuple<int, int, int>, Lit> IteCache;
};

} // namespace encode
} // namespace checkfence

#endif // CHECKFENCE_ENCODE_CNFBUILDER_H
