//===--- Solver.h - CDCL SAT solver with incremental solving ----*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver in the Chaff/MiniSat
/// tradition. CheckFence hands its CNF encodings to this solver; the paper
/// used zChaff (2004.11.15). Features: two-watched-literal propagation,
/// first-UIP clause learning with recursive minimization, VSIDS branching,
/// phase saving, Luby restarts, learnt-clause database reduction, and
/// incremental solving under assumptions (required by the specification
/// mining loop, which repeatedly re-solves with added blocking clauses).
///
/// The encoders build straight into a Solver through encode::CnfBuilder;
/// no CNF is stored anywhere else. checker::SolveContext owns the one
/// Solver each encoded problem is solved on.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SAT_SOLVER_H
#define CHECKFENCE_SAT_SOLVER_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace checkfence {
namespace sat {

class ProofLog;

/// A boolean variable, numbered from 0.
using Var = int;

constexpr Var VarUndef = -1;

/// A literal: a variable together with a sign. Encoded as 2*var+sign where
/// sign==1 means the negated literal.
struct Lit {
  int Code = -2;

  Lit() = default;

  static Lit make(Var V, bool Negated = false) {
    assert(V >= 0 && "literal over undefined variable");
    Lit L;
    L.Code = V + V + static_cast<int>(Negated);
    return L;
  }

  Var var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }

  bool operator==(const Lit &O) const { return Code == O.Code; }
  bool operator!=(const Lit &O) const { return Code != O.Code; }
  bool operator<(const Lit &O) const { return Code < O.Code; }

  /// The opposite-sign literal on the same variable.
  Lit operator~() const {
    Lit L;
    L.Code = Code ^ 1;
    return L;
  }

  /// L ^ true flips the sign, L ^ false is the identity.
  Lit operator^(bool Flip) const {
    Lit L;
    L.Code = Code ^ static_cast<int>(Flip);
    return L;
  }
};

const Lit LitUndef = [] { Lit L; L.Code = -2; return L; }();

/// Three-valued truth: True, False, or Undef (unassigned).
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

inline LBool boolToLBool(bool B) { return B ? LBool::True : LBool::False; }

/// Negates a defined LBool; Undef stays Undef.
inline LBool negate(LBool B) {
  if (B == LBool::Undef)
    return LBool::Undef;
  return B == LBool::True ? LBool::False : LBool::True;
}

/// Result of a solve() call.
enum class SolveResult { Sat, Unsat, Unknown };

/// Aggregate counters exposed for the statistics tables (Fig. 10).
struct SolverStats {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Restarts = 0;
  uint64_t LearntLiterals = 0;
  uint64_t MinimizedLiterals = 0;
};

/// The Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... at 0-based
/// index \p I (MiniSat's luby() with base 2). solve() restarts after
/// lubyNumber(k) * 100 conflicts in its k-th restart interval.
int64_t lubyNumber(int64_t I);

/// CDCL SAT solver. Typical use:
/// \code
///   Solver S;
///   Var A = S.newVar(), B = S.newVar();
///   S.addClause({Lit::make(A), Lit::make(B, true)});
///   if (S.solve() == SolveResult::Sat) { ... S.modelValue(...) ... }
/// \endcode
/// After solve() returns, more clauses and variables may be added and
/// solve() called again (incremental use).
class Solver {
public:
  /// With \p LogProof the solver records a DRAT-style clausal proof
  /// (sat/Proof.h) of every clause added or derived, from the first one.
  explicit Solver(bool LogProof = false);
  ~Solver();

  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  /// Creates a fresh variable and returns it.
  Var newVar();

  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause. Returns false if the solver is now known unsatisfiable
  /// (e.g. the clause is empty after level-0 simplification).
  bool addClause(const std::vector<Lit> &Lits);
  bool addClause(Lit A) { return addClause(std::vector<Lit>{A}); }
  bool addClause(Lit A, Lit B) { return addClause(std::vector<Lit>{A, B}); }
  bool addClause(Lit A, Lit B, Lit C) {
    return addClause(std::vector<Lit>{A, B, C});
  }

  /// Solves under the given assumptions. Assumptions are temporary unit
  /// clauses for this call only.
  SolveResult solve(const std::vector<Lit> &Assumptions);
  SolveResult solve() { return solve({}); }

  /// True while no top-level contradiction has been derived.
  bool okay() const { return Ok; }

  /// Value of a variable/literal in the most recent satisfying model.
  LBool modelValue(Var V) const {
    assert(V >= 0 && V < static_cast<int>(Model.size()));
    return Model[V];
  }
  LBool modelValue(Lit L) const {
    LBool B = modelValue(L.var());
    return L.negated() ? negate(B) : B;
  }
  bool modelTrue(Lit L) const { return modelValue(L) == LBool::True; }

  /// Assumptions that were found inconsistent in the last Unsat answer
  /// (subset of the assumption set, negated form not applied).
  const std::vector<Lit> &conflictAssumptions() const { return ConflictVec; }

  /// Problem clauses currently in the database (excludes learnt clauses and
  /// level-0 units).
  std::size_t numClauses() const { return Clauses.size(); }
  std::size_t numLearnts() const { return Learnts.size(); }
  /// Approximate bytes held by the clause database and watcher lists;
  /// stands in for the "zchaff memory" column of Fig. 10.
  size_t memoryBytes() const { return AllocatedBytes + WatchBytes; }

  const SolverStats &stats() const { return Stats; }

  /// If >= 0, search gives up (returns Unknown) after this many conflicts.
  int64_t ConflictBudget = -1;

  /// The recorded proof, or nullptr unless constructed with LogProof.
  const ProofLog *proofLog() const { return Proof.get(); }

private:
  struct Clause; // defined in Solver.cpp

  struct Watcher {
    Clause *C;
    Lit Blocker;
  };

  struct VarData {
    Clause *Reason = nullptr;
    int Level = 0;
  };

  // Clause management.
  Clause *allocClause(const std::vector<Lit> &Lits, bool Learnt);
  void freeClause(Clause *C);
  void attachClause(Clause *C);
  void detachClause(Clause *C);
  void removeClause(Clause *C);
  bool locked(const Clause *C) const;

  // Assignment trail.
  LBool value(Var V) const { return Assigns[V]; }
  LBool value(Lit L) const {
    LBool B = Assigns[L.var()];
    return L.negated() ? negate(B) : B;
  }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }
  void newDecisionLevel() { TrailLim.push_back(Trail.size()); }
  void uncheckedEnqueue(Lit L, Clause *Reason);
  bool enqueue(Lit L, Clause *Reason);
  void cancelUntil(int Level);

  // Search.
  Clause *propagate();
  void analyze(Clause *Conflict, std::vector<Lit> &OutLearnt,
               int &OutBtLevel);
  void analyzeFinal(Lit P, std::vector<Lit> &OutConflict);
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  SolveResult search(int64_t ConflictsBeforeRestart);
  Lit pickBranchLit();
  void reduceDB();
  void rebuildOrderHeap();

  // VSIDS.
  void varBumpActivity(Var V);
  void varDecayActivity();
  void claBumpActivity(Clause *C);
  void claDecayActivity();
  void heapInsert(Var V);
  void heapDecrease(Var V);
  Var heapRemoveMin();
  bool heapEmpty() const { return Heap.empty(); }
  bool heapContains(Var V) const {
    return HeapIndex[V] >= 0;
  }
  void heapPercolateUp(int I);
  void heapPercolateDown(int I);
  bool heapLess(Var A, Var B) const { return Activity[A] > Activity[B]; }

  // State.
  bool Ok = true;
  std::vector<Clause *> Clauses;
  std::vector<Clause *> Learnts;
  std::vector<std::vector<Watcher>> Watches; // indexed by Lit::Code
  std::vector<LBool> Assigns;
  std::vector<char> Polarity;
  std::vector<char> Seen;
  std::vector<VarData> VarInfo;
  std::vector<Lit> Trail;
  std::vector<size_t> TrailLim;
  std::vector<Lit> AssumptionVec;
  std::vector<Lit> ConflictVec;
  std::vector<LBool> Model;
  size_t QHead = 0;

  // Heap of decision variables ordered by activity.
  std::vector<Var> Heap;
  std::vector<int> HeapIndex;
  std::vector<double> Activity;
  double VarInc = 1.0;
  double ClaInc = 1.0;

  // Learnt DB management.
  double MaxLearnts = 0;
  double LearntSizeFactor = 1.0 / 3.0;
  double LearntSizeInc = 1.1;

  size_t AllocatedBytes = 0;
  size_t WatchBytes = 0;

  std::unique_ptr<ProofLog> Proof;

  SolverStats Stats;

  // Scratch for analyze().
  std::vector<Lit> AnalyzeStack;
  std::vector<Lit> AnalyzeToClear;
};

} // namespace sat
} // namespace checkfence

#endif // CHECKFENCE_SAT_SOLVER_H
