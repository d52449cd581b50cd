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
/// Clause storage. Every clause, problem or learnt, lives in one
/// contiguous arena of 32-bit words and is named by a 32-bit clause
/// reference (CRef), the word offset of its header. A clause is a header
/// word (size, learnt and deleted bits), its literals, and for learnt
/// clauses one trailing activity word. Adding a clause appends to the
/// arena; no clause is allocated on its own, and addClause() simplifies
/// in a member scratch buffer, so clause intake does not touch the heap
/// once the arena and the buffers have grown.
///
/// Binary watches. A watcher is a reference with a binary bit plus a
/// blocker literal. For a binary clause the blocker is the other literal,
/// so propagate() satisfies, implies or refutes it from the watcher alone
/// and never reads its arena words. Binary watchers stay in the same
/// per-literal lists as the long ones, in attach order, so propagation
/// visits clauses in the same order as if every clause were long. Since
/// propagate() leaves a binary clause's literal order alone, conflict
/// analysis swaps the implied literal into slot 0 when it reads a binary
/// reason, and a binary conflict is written in the order a long clause
/// would have.
///
/// Compaction. reduceDB() detaches and marks the clauses it drops; their
/// words stay in the arena until a fifth of it is dead. Then the live
/// clauses are copied, in arena order, into a fresh arena, and the
/// problem and learnt lists, every watcher and every variable's reason
/// are relocated. References are identities only, so compaction never
/// changes the search.
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
  /// Clause-arena compactions after reduceDB() (see the file comment).
  uint64_t Compactions = 0;
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
  ~Solver(); // out of line: ProofLog is incomplete here

  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  /// Creates a fresh variable and returns it.
  Var newVar();

  int numVars() const { return static_cast<int>(Assigns.size()); }

  /// Adds a clause. Returns false if the solver is now known unsatisfiable
  /// (e.g. the clause is empty after level-0 simplification).
  bool addClause(const Lit *Lits, size_t N);
  bool addClause(const std::vector<Lit> &Lits) {
    return addClause(Lits.data(), Lits.size());
  }
  bool addClause(Lit A) { return addClause(&A, 1); }
  bool addClause(Lit A, Lit B) {
    const Lit Ls[2] = {A, B};
    return addClause(Ls, 2);
  }
  bool addClause(Lit A, Lit B, Lit C) {
    const Lit Ls[3] = {A, B, C};
    return addClause(Ls, 3);
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

  /// After an Unsat answer under assumptions: the clause the database
  /// implies over the failed assumptions, i.e. ~A for each assumption A
  /// of an inconsistent subset. Empty if the database alone is Unsat.
  const std::vector<Lit> &conflictAssumptions() const { return ConflictVec; }

  /// Problem clauses currently in the database (excludes learnt clauses and
  /// level-0 units).
  std::size_t numClauses() const { return Clauses.size(); }
  std::size_t numLearnts() const { return Learnts.size(); }
  /// Approximate bytes held by the clause database and watcher lists:
  /// the arena's words in use (dead clauses included until the next
  /// compaction) plus two watchers per attached clause. Stands in for the
  /// "zchaff memory" column of Fig. 10.
  size_t memoryBytes() const {
    return Arena.size() * sizeof(uint32_t) + WatchBytes;
  }

  const SolverStats &stats() const { return Stats; }

  /// If >= 0, search gives up (returns Unknown) after this many conflicts.
  int64_t ConflictBudget = -1;

  /// The recorded proof, or nullptr unless constructed with LogProof.
  const ProofLog *proofLog() const { return Proof.get(); }

private:
  /// A clause reference: the arena offset of the clause's header word.
  using CRef = uint32_t;
  static constexpr CRef CRefUndef = UINT32_MAX;

  /// Watches a clause for the negation of one of its two watched
  /// literals. Ref is the clause reference shifted left by one, with the
  /// low bit set for a binary clause; Blocker is a literal of the clause
  /// whose truth satisfies it (for a binary clause, the other literal).
  struct Watcher {
    uint32_t Ref;
    Lit Blocker;

    CRef cref() const { return Ref >> 1; }
    bool binary() const { return (Ref & 1) != 0; }
  };

  struct VarData {
    CRef Reason = CRefUndef;
    int Level = 0;
  };

  // Clause arena. Header word: size << 2 | deleted << 1 | learnt.
  uint32_t clauseSize(CRef C) const { return Arena[C] >> 2; }
  bool isLearnt(CRef C) const { return (Arena[C] & 1) != 0; }
  bool isDeleted(CRef C) const { return (Arena[C] & 2) != 0; }
  /// Words a clause of \p Size literals occupies (header, literals and
  /// the activity word of a learnt clause).
  static uint32_t clauseWords(uint32_t Size, bool Learnt) {
    return 1 + Size + static_cast<uint32_t>(Learnt);
  }
  uint32_t *clauseLits(CRef C) { return &Arena[C + 1]; }
  static Lit wordLit(uint32_t W) {
    Lit L;
    L.Code = static_cast<int>(W);
    return L;
  }
  static uint32_t litWord(Lit L) { return static_cast<uint32_t>(L.Code); }
  Lit clauseLit(CRef C, uint32_t I) const { return wordLit(Arena[C + 1 + I]); }
  float activity(CRef C) const;
  void setActivity(CRef C, float A);

  // Clause management.
  CRef allocClause(const Lit *Lits, size_t N, bool Learnt);
  void attachClause(CRef C);
  void detachClause(CRef C);
  void removeClause(CRef C);
  bool locked(CRef C) const;
  /// The clause's literals in arena order, for the proof log.
  std::vector<Lit> clauseLitVector(CRef C) const;
  /// \p V's reason clause, with \p V's literal moved into slot 0 if the
  /// clause is binary (propagate() does not order binary clauses).
  CRef reasonFor(Var V);
  /// Copies the live clauses into a fresh arena and relocates every
  /// reference to them.
  void compactArena();

  // Assignment trail.
  LBool value(Var V) const { return Assigns[V]; }
  LBool value(Lit L) const {
    LBool B = Assigns[L.var()];
    return L.negated() ? negate(B) : B;
  }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }
  void newDecisionLevel() { TrailLim.push_back(Trail.size()); }
  void uncheckedEnqueue(Lit L, CRef Reason);
  void cancelUntil(int Level);

  // Search.
  CRef propagate();
  void analyze(CRef Conflict, std::vector<Lit> &OutLearnt, int &OutBtLevel);
  void analyzeFinal(Lit P, std::vector<Lit> &OutConflict);
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  SolveResult search(int64_t ConflictsBeforeRestart);
  Lit pickBranchLit();
  void reduceDB();
  void rebuildOrderHeap();

  // VSIDS.
  void varBumpActivity(Var V);
  void varDecayActivity();
  void claBumpActivity(CRef C);
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
  std::vector<uint32_t> Arena;
  size_t WastedWords = 0; ///< words of deleted clauses still in Arena
  std::vector<CRef> Clauses;
  std::vector<CRef> Learnts;
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

  size_t WatchBytes = 0;

  std::unique_ptr<ProofLog> Proof;

  SolverStats Stats;

  // Scratch for addClause(), search() and analyze().
  std::vector<Lit> AddScratch;
  std::vector<Lit> LearntScratch;
  std::vector<Lit> AnalyzeStack;
  std::vector<Lit> AnalyzeToClear;
};

} // namespace sat
} // namespace checkfence

#endif // CHECKFENCE_SAT_SOLVER_H
