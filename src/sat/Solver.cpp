//===--- Solver.cpp - CDCL SAT solver implementation ----------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "sat/Proof.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace checkfence;
using namespace checkfence::sat;

/// In-memory clause layout: a small header followed by the literal array.
/// Clauses are allocated with malloc so the solver works without exceptions.
struct Solver::Clause {
  uint32_t Size;
  uint8_t Learnt;
  uint8_t Deleted;
  float Activity;
  Lit Lits[1]; // actually Size entries

  Lit &operator[](size_t I) { return Lits[I]; }
  const Lit &operator[](size_t I) const { return Lits[I]; }

  static size_t bytesFor(size_t NumLits) {
    return sizeof(Clause) + (NumLits > 0 ? NumLits - 1 : 0) * sizeof(Lit);
  }
};

Solver::Solver(bool LogProof) {
  if (LogProof)
    Proof = std::make_unique<ProofLog>();
}

Solver::~Solver() {
  for (Clause *C : Clauses)
    freeClause(C);
  for (Clause *C : Learnts)
    freeClause(C);
}

Var Solver::newVar() {
  Var V = static_cast<Var>(Assigns.size());
  Assigns.push_back(LBool::Undef);
  Polarity.push_back(0);
  Seen.push_back(0);
  VarInfo.push_back(VarData());
  Activity.push_back(0.0);
  HeapIndex.push_back(-1);
  Watches.emplace_back();
  Watches.emplace_back();
  Model.push_back(LBool::Undef);
  heapInsert(V);
  return V;
}

size_t Solver::numFixedVars() const {
  size_t N = TrailLim.empty() ? Trail.size() : TrailLim[0];
  return N;
}

Solver::Clause *Solver::allocClause(const std::vector<Lit> &Lits,
                                    bool Learnt) {
  size_t Bytes = Clause::bytesFor(Lits.size());
  Clause *C = static_cast<Clause *>(std::malloc(Bytes));
  assert(C && "out of memory allocating clause");
  C->Size = static_cast<uint32_t>(Lits.size());
  C->Learnt = Learnt;
  C->Deleted = 0;
  C->Activity = 0;
  std::memcpy(C->Lits, Lits.data(), Lits.size() * sizeof(Lit));
  AllocatedBytes += Bytes;
  return C;
}

void Solver::freeClause(Clause *C) {
  AllocatedBytes -= Clause::bytesFor(C->Size);
  std::free(C);
}

void Solver::attachClause(Clause *C) {
  assert(C->Size >= 2 && "cannot watch a unit clause");
  Watches[(~(*C)[0]).Code].push_back(Watcher{C, (*C)[1]});
  Watches[(~(*C)[1]).Code].push_back(Watcher{C, (*C)[0]});
  WatchBytes += 2 * sizeof(Watcher);
}

void Solver::detachClause(Clause *C) {
  auto Strip = [&](Lit W) {
    std::vector<Watcher> &WS = Watches[(~W).Code];
    for (size_t I = 0; I < WS.size(); ++I) {
      if (WS[I].C == C) {
        WS[I] = WS.back();
        WS.pop_back();
        break;
      }
    }
  };
  Strip((*C)[0]);
  Strip((*C)[1]);
  WatchBytes -= 2 * sizeof(Watcher);
}

bool Solver::locked(const Clause *C) const {
  Var V = (*C)[0].var();
  return value((*C)[0]) == LBool::True && VarInfo[V].Reason == C;
}

void Solver::removeClause(Clause *C) {
  detachClause(C);
  if (locked(C))
    VarInfo[(*C)[0].var()].Reason = nullptr;
  C->Deleted = 1;
  freeClause(C);
}

bool Solver::addClause(const std::vector<Lit> &Lits) {
  assert(decisionLevel() == 0 && "clauses must be added at level 0");
  if (!Ok)
    return false;
  if (Proof)
    Proof->addInput(Lits);

  // Simplify: sort, strip duplicates and false literals, detect tautology.
  std::vector<Lit> Ls(Lits);
  std::sort(Ls.begin(), Ls.end());
  std::vector<Lit> Out;
  Lit Prev = LitUndef;
  for (Lit L : Ls) {
    assert(L.var() < numVars() && "literal over unknown variable");
    if (value(L) == LBool::True || L == ~Prev)
      return true; // satisfied or tautological
    if (value(L) != LBool::False && L != Prev)
      Out.push_back(L);
    Prev = L;
  }

  if (Out.empty()) {
    Ok = false;
    if (Proof)
      Proof->addDerived({});
    return false;
  }
  if (Out.size() == 1) {
    uncheckedEnqueue(Out[0], nullptr);
    Ok = (propagate() == nullptr);
    if (!Ok && Proof)
      Proof->addDerived({});
    return Ok;
  }
  Clause *C = allocClause(Out, /*Learnt=*/false);
  Clauses.push_back(C);
  attachClause(C);
  return true;
}

void Solver::uncheckedEnqueue(Lit L, Clause *Reason) {
  assert(value(L) == LBool::Undef && "enqueue of assigned literal");
  Assigns[L.var()] = boolToLBool(!L.negated());
  VarInfo[L.var()].Reason = Reason;
  VarInfo[L.var()].Level = decisionLevel();
  Trail.push_back(L);
}

bool Solver::enqueue(Lit L, Clause *Reason) {
  if (value(L) != LBool::Undef)
    return value(L) == LBool::True;
  uncheckedEnqueue(L, Reason);
  return true;
}

void Solver::cancelUntil(int Level) {
  if (decisionLevel() <= Level)
    return;
  for (size_t I = Trail.size(); I > TrailLim[Level];) {
    --I;
    Var V = Trail[I].var();
    Assigns[V] = LBool::Undef;
    Polarity[V] = static_cast<char>(!Trail[I].negated()); // phase saving
    if (!heapContains(V))
      heapInsert(V);
  }
  QHead = TrailLim[Level];
  Trail.resize(TrailLim[Level]);
  TrailLim.resize(Level);
}

Solver::Clause *Solver::propagate() {
  Clause *Conflict = nullptr;
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++]; // P is true; visit watchers of ~P... (see below)
    ++Stats.Propagations;
    std::vector<Watcher> &WS = Watches[P.Code];
    size_t I = 0, J = 0;
    while (I < WS.size()) {
      Watcher W = WS[I++];
      // Blocker optimization: clause already satisfied.
      if (value(W.Blocker) == LBool::True) {
        WS[J++] = W;
        continue;
      }
      Clause &C = *W.C;
      // Normalize: make sure the false literal (~P) is at position 1.
      Lit FalseLit = ~P;
      if (C[0] == FalseLit)
        std::swap(C[0], C[1]);
      assert(C[1] == FalseLit && "watched literal invariant broken");

      Lit First = C[0];
      if (First != W.Blocker && value(First) == LBool::True) {
        WS[J++] = Watcher{&C, First};
        continue;
      }

      // Look for a new literal to watch.
      bool FoundWatch = false;
      for (uint32_t K = 2; K < C.Size; ++K) {
        if (value(C[K]) != LBool::False) {
          std::swap(C[1], C[K]);
          Watches[(~C[1]).Code].push_back(Watcher{&C, First});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;

      // Clause is unit or conflicting.
      WS[J++] = Watcher{&C, First};
      if (value(First) == LBool::False) {
        Conflict = &C;
        QHead = Trail.size();
        while (I < WS.size())
          WS[J++] = WS[I++];
      } else {
        uncheckedEnqueue(First, &C);
      }
    }
    WS.resize(J);
    if (Conflict)
      break;
  }
  return Conflict;
}

void Solver::varBumpActivity(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (heapContains(V))
    heapDecrease(V);
}

void Solver::varDecayActivity() { VarInc *= (1.0 / 0.95); }

void Solver::claBumpActivity(Clause *C) {
  C->Activity += static_cast<float>(ClaInc);
  if (C->Activity > 1e20f) {
    for (Clause *L : Learnts)
      L->Activity *= 1e-20f;
    ClaInc *= 1e-20;
  }
}

void Solver::claDecayActivity() { ClaInc *= (1.0 / 0.999); }

// Indexed binary min-heap on activity (higher activity = smaller key).
void Solver::heapInsert(Var V) {
  assert(!heapContains(V));
  HeapIndex[V] = static_cast<int>(Heap.size());
  Heap.push_back(V);
  heapPercolateUp(HeapIndex[V]);
}

void Solver::heapDecrease(Var V) { heapPercolateUp(HeapIndex[V]); }

Var Solver::heapRemoveMin() {
  Var Top = Heap[0];
  Heap[0] = Heap.back();
  HeapIndex[Heap[0]] = 0;
  Heap.pop_back();
  HeapIndex[Top] = -1;
  if (!Heap.empty())
    heapPercolateDown(0);
  return Top;
}

void Solver::heapPercolateUp(int I) {
  Var V = Heap[I];
  while (I > 0) {
    int Parent = (I - 1) >> 1;
    if (!heapLess(V, Heap[Parent]))
      break;
    Heap[I] = Heap[Parent];
    HeapIndex[Heap[I]] = I;
    I = Parent;
  }
  Heap[I] = V;
  HeapIndex[V] = I;
}

void Solver::heapPercolateDown(int I) {
  Var V = Heap[I];
  int N = static_cast<int>(Heap.size());
  while (2 * I + 1 < N) {
    int Child = 2 * I + 1;
    if (Child + 1 < N && heapLess(Heap[Child + 1], Heap[Child]))
      ++Child;
    if (!heapLess(Heap[Child], V))
      break;
    Heap[I] = Heap[Child];
    HeapIndex[Heap[I]] = I;
    I = Child;
  }
  Heap[I] = V;
  HeapIndex[V] = I;
}

void Solver::rebuildOrderHeap() {
  Heap.clear();
  for (Var V = 0; V < numVars(); ++V) {
    HeapIndex[V] = -1;
    if (value(V) == LBool::Undef)
      heapInsert(V);
  }
}

Lit Solver::pickBranchLit() {
  while (!heapEmpty()) {
    Var V = heapRemoveMin();
    if (value(V) == LBool::Undef)
      return Lit::make(V, !Polarity[V]);
  }
  return LitUndef;
}

/// First-UIP conflict analysis producing an asserting learnt clause and the
/// backtrack level, with recursive clause minimization.
void Solver::analyze(Clause *Conflict, std::vector<Lit> &OutLearnt,
                     int &OutBtLevel) {
  int PathCount = 0;
  Lit P = LitUndef;
  OutLearnt.clear();
  OutLearnt.push_back(LitUndef); // slot for the asserting literal
  size_t Index = Trail.size();

  Clause *Reason = Conflict;
  do {
    assert(Reason && "reached decision without exhausting paths");
    if (Reason->Learnt)
      claBumpActivity(Reason);
    for (uint32_t I = (P == LitUndef ? 0 : 1); I < Reason->Size; ++I) {
      Lit Q = (*Reason)[I];
      Var V = Q.var();
      if (Seen[V] || VarInfo[V].Level == 0)
        continue;
      Seen[V] = 1;
      varBumpActivity(V);
      if (VarInfo[V].Level >= decisionLevel())
        ++PathCount;
      else
        OutLearnt.push_back(Q);
    }
    // Select next literal on the trail to expand.
    while (!Seen[Trail[--Index].var()]) {
    }
    P = Trail[Index];
    Reason = VarInfo[P.var()].Reason;
    Seen[P.var()] = 0;
    --PathCount;
  } while (PathCount > 0);
  OutLearnt[0] = ~P;

  // Minimization: drop literals implied by the rest of the clause.
  AnalyzeToClear = OutLearnt;
  uint32_t AbstractLevels = 0;
  for (size_t I = 1; I < OutLearnt.size(); ++I)
    AbstractLevels |= 1u << (VarInfo[OutLearnt[I].var()].Level & 31);
  size_t KeepJ = 1;
  for (size_t I = 1; I < OutLearnt.size(); ++I) {
    Var V = OutLearnt[I].var();
    if (VarInfo[V].Reason == nullptr ||
        !litRedundant(OutLearnt[I], AbstractLevels))
      OutLearnt[KeepJ++] = OutLearnt[I];
  }
  Stats.MinimizedLiterals += OutLearnt.size() - KeepJ;
  OutLearnt.resize(KeepJ);
  Stats.LearntLiterals += OutLearnt.size();

  // Find backtrack level: the max level among the non-asserting literals.
  if (OutLearnt.size() == 1) {
    OutBtLevel = 0;
  } else {
    size_t MaxI = 1;
    for (size_t I = 2; I < OutLearnt.size(); ++I)
      if (VarInfo[OutLearnt[I].var()].Level >
          VarInfo[OutLearnt[MaxI].var()].Level)
        MaxI = I;
    std::swap(OutLearnt[1], OutLearnt[MaxI]);
    OutBtLevel = VarInfo[OutLearnt[1].var()].Level;
  }

  for (Lit L : AnalyzeToClear)
    if (L != LitUndef)
      Seen[L.var()] = 0;
  // Seen[] may still be set for vars visited by litRedundant; it clears them
  // itself on both paths.
}

/// Checks whether \p L is redundant in the current learnt clause, i.e. it is
/// implied by the other literals through the implication graph.
bool Solver::litRedundant(Lit L, uint32_t AbstractLevels) {
  AnalyzeStack.clear();
  AnalyzeStack.push_back(L);
  size_t TopOfClear = AnalyzeToClear.size();
  while (!AnalyzeStack.empty()) {
    Lit Cur = AnalyzeStack.back();
    AnalyzeStack.pop_back();
    assert(VarInfo[Cur.var()].Reason != nullptr);
    Clause &C = *VarInfo[Cur.var()].Reason;
    for (uint32_t I = 1; I < C.Size; ++I) {
      Lit Q = C[I];
      Var V = Q.var();
      if (Seen[V] || VarInfo[V].Level == 0)
        continue;
      if (VarInfo[V].Reason != nullptr &&
          ((1u << (VarInfo[V].Level & 31)) & AbstractLevels) != 0) {
        Seen[V] = 1;
        AnalyzeStack.push_back(Q);
        AnalyzeToClear.push_back(Q);
        continue;
      }
      // Not redundant: undo the marks added during this check.
      for (size_t J = AnalyzeToClear.size(); J > TopOfClear; --J)
        Seen[AnalyzeToClear[J - 1].var()] = 0;
      AnalyzeToClear.resize(TopOfClear);
      return false;
    }
  }
  return true;
}

/// Specialized analysis when a conflict is caused directly by assumptions:
/// collects the subset of assumptions responsible.
void Solver::analyzeFinal(Lit P, std::vector<Lit> &OutConflict) {
  OutConflict.clear();
  OutConflict.push_back(P);
  if (decisionLevel() == 0)
    return;
  Seen[P.var()] = 1;
  for (size_t I = Trail.size(); I > TrailLim[0];) {
    --I;
    Var V = Trail[I].var();
    if (!Seen[V])
      continue;
    if (VarInfo[V].Reason == nullptr) {
      assert(VarInfo[V].Level > 0);
      OutConflict.push_back(~Trail[I]);
    } else {
      Clause &C = *VarInfo[V].Reason;
      for (uint32_t K = 1; K < C.Size; ++K)
        if (VarInfo[C[K].var()].Level > 0)
          Seen[C[K].var()] = 1;
    }
    Seen[V] = 0;
  }
  Seen[P.var()] = 0;
}

void Solver::reduceDB() {
  // Remove roughly half of the learnt clauses, lowest activity first;
  // keep binary and locked (reason) clauses.
  std::sort(Learnts.begin(), Learnts.end(), [](Clause *A, Clause *B) {
    if ((A->Size > 2) != (B->Size > 2))
      return A->Size > 2;
    return A->Activity < B->Activity;
  });
  size_t I = 0, J = 0;
  double ExtraLim = ClaInc / std::max<size_t>(Learnts.size(), 1);
  for (; I < Learnts.size(); ++I) {
    Clause *C = Learnts[I];
    if (C->Size > 2 && !locked(C) &&
        (I < Learnts.size() / 2 || C->Activity < ExtraLim)) {
      if (Proof)
        Proof->addDelete(std::vector<Lit>(&(*C)[0], &(*C)[0] + C->Size));
      removeClause(C);
    }
    else
      Learnts[J++] = C;
  }
  Learnts.resize(J);
}

SolveResult Solver::search(int64_t ConflictsBeforeRestart) {
  assert(Ok);
  int64_t ConflictCount = 0;
  std::vector<Lit> Learnt;

  for (;;) {
    Clause *Conflict = propagate();
    if (Conflict != nullptr) {
      // Conflict.
      ++Stats.Conflicts;
      ++ConflictCount;
      if (decisionLevel() == 0) {
        Ok = false;
        if (Proof)
          Proof->addDerived({});
        return SolveResult::Unsat;
      }
      int BtLevel;
      analyze(Conflict, Learnt, BtLevel);
      if (Proof)
        Proof->addDerived(Learnt);
      cancelUntil(BtLevel);
      if (Learnt.size() == 1) {
        uncheckedEnqueue(Learnt[0], nullptr);
      } else {
        Clause *C = allocClause(Learnt, /*Learnt=*/true);
        Learnts.push_back(C);
        attachClause(C);
        claBumpActivity(C);
        uncheckedEnqueue(Learnt[0], C);
      }
      varDecayActivity();
      claDecayActivity();
      continue;
    }

    // No conflict.
    if (ConflictsBeforeRestart >= 0 &&
        ConflictCount >= ConflictsBeforeRestart) {
      cancelUntil(0);
      ++Stats.Restarts;
      return SolveResult::Unknown;
    }
    if (ConflictBudget >= 0 &&
        Stats.Conflicts >= static_cast<uint64_t>(ConflictBudget)) {
      cancelUntil(0);
      return SolveResult::Unknown;
    }
    if (static_cast<double>(Learnts.size()) >= MaxLearnts + Trail.size())
      reduceDB();

    // Extend with the next assumption, if any.
    Lit Next = LitUndef;
    while (decisionLevel() < static_cast<int>(AssumptionVec.size())) {
      Lit A = AssumptionVec[decisionLevel()];
      if (value(A) == LBool::True) {
        newDecisionLevel(); // dummy level, assumption already satisfied
      } else if (value(A) == LBool::False) {
        analyzeFinal(~A, ConflictVec);
        // ConflictVec is the implied clause over the negated assumptions;
        // it follows from the database by propagation alone.
        if (Proof)
          Proof->addDerived(ConflictVec);
        return SolveResult::Unsat;
      } else {
        Next = A;
        break;
      }
    }

    if (Next == LitUndef) {
      ++Stats.Decisions;
      Next = pickBranchLit();
      if (Next == LitUndef)
        return SolveResult::Sat; // all variables assigned
    }
    newDecisionLevel();
    uncheckedEnqueue(Next, nullptr);
  }
}

int64_t checkfence::sat::lubyNumber(int64_t I) {
  // Find the smallest complete subsequence (of size 2^k - 1) containing
  // index I, then descend into the half that holds it.
  int64_t Size = 1, Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) >> 1;
    --Seq;
    I = I % Size;
  }
  return static_cast<int64_t>(1) << Seq;
}

SolveResult Solver::solve(const std::vector<Lit> &Assumptions) {
  cancelUntil(0);
  ConflictVec.clear();
  if (!Ok)
    return SolveResult::Unsat;

  AssumptionVec = Assumptions;
  MaxLearnts = std::max(
      static_cast<double>(Clauses.size()) * LearntSizeFactor, 5000.0);
  rebuildOrderHeap();

  SolveResult Result = SolveResult::Unknown;
  for (int64_t RestartIdx = 0; Result == SolveResult::Unknown; ++RestartIdx) {
    int64_t Budget = lubyNumber(RestartIdx) * 100;
    Result = search(Budget);
    if (ConflictBudget >= 0 &&
        Stats.Conflicts >= static_cast<uint64_t>(ConflictBudget) &&
        Result == SolveResult::Unknown)
      break;
    MaxLearnts *= LearntSizeInc;
  }

  if (Result == SolveResult::Sat) {
    for (Var V = 0; V < numVars(); ++V)
      Model[V] = value(V);
  }
  cancelUntil(0);
  AssumptionVec.clear();
  return Result;
}
