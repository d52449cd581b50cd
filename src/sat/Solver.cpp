//===--- Solver.cpp - CDCL SAT solver implementation ----------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "sat/Proof.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace checkfence;
using namespace checkfence::sat;

Solver::Solver(bool LogProof) {
  if (LogProof)
    Proof = std::make_unique<ProofLog>();
}

Solver::~Solver() = default;

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

float Solver::activity(CRef C) const {
  assert(isLearnt(C) && "only learnt clauses carry an activity");
  float A = 0;
  std::memcpy(&A, &Arena[C + 1 + clauseSize(C)], sizeof(A));
  return A;
}

void Solver::setActivity(CRef C, float A) {
  assert(isLearnt(C) && "only learnt clauses carry an activity");
  std::memcpy(&Arena[C + 1 + clauseSize(C)], &A, sizeof(A));
}

Solver::CRef Solver::allocClause(const Lit *Lits, size_t N, bool Learnt) {
  assert(N >= 2 && "unit and empty clauses are not stored");
  // The header keeps 30 bits of size, and a watcher keeps 31 bits of
  // reference. A database past either limit cannot be addressed; like
  // running out of memory, that ends the process.
  size_t Words = 1 + N + static_cast<size_t>(Learnt);
  if (N >= (size_t(1) << 30) || Arena.size() + Words > (size_t(1) << 31)) {
    std::fputs("sat::Solver: clause database exceeds 2^31 words\n", stderr);
    std::abort();
  }
  auto C = static_cast<CRef>(Arena.size());
  Arena.resize(Arena.size() + Words);
  Arena[C] = static_cast<uint32_t>(N) << 2 | static_cast<uint32_t>(Learnt);
  uint32_t *Ls = clauseLits(C);
  for (size_t I = 0; I < N; ++I)
    Ls[I] = litWord(Lits[I]);
  if (Learnt)
    setActivity(C, 0);
  return C;
}

void Solver::attachClause(CRef C) {
  assert(clauseSize(C) >= 2 && "cannot watch a unit clause");
  uint32_t Ref = C << 1 | static_cast<uint32_t>(clauseSize(C) == 2);
  Lit L0 = clauseLit(C, 0), L1 = clauseLit(C, 1);
  Watches[(~L0).Code].push_back(Watcher{Ref, L1});
  Watches[(~L1).Code].push_back(Watcher{Ref, L0});
  WatchBytes += 2 * sizeof(Watcher);
}

void Solver::detachClause(CRef C) {
  auto Strip = [&](Lit W) {
    std::vector<Watcher> &WS = Watches[(~W).Code];
    for (size_t I = 0; I < WS.size(); ++I) {
      if (WS[I].cref() == C) {
        WS[I] = WS.back();
        WS.pop_back();
        break;
      }
    }
  };
  Strip(clauseLit(C, 0));
  Strip(clauseLit(C, 1));
  WatchBytes -= 2 * sizeof(Watcher);
}

bool Solver::locked(CRef C) const {
  Lit First = clauseLit(C, 0);
  return value(First) == LBool::True && VarInfo[First.var()].Reason == C;
}

void Solver::removeClause(CRef C) {
  detachClause(C);
  if (locked(C))
    VarInfo[clauseLit(C, 0).var()].Reason = CRefUndef;
  Arena[C] |= 2;
  WastedWords += clauseWords(clauseSize(C), isLearnt(C));
}

std::vector<Lit> Solver::clauseLitVector(CRef C) const {
  std::vector<Lit> Out;
  Out.reserve(clauseSize(C));
  for (uint32_t I = 0; I < clauseSize(C); ++I)
    Out.push_back(clauseLit(C, I));
  return Out;
}

Solver::CRef Solver::reasonFor(Var V) {
  CRef R = VarInfo[V].Reason;
  assert(R != CRefUndef && "variable has no reason clause");
  uint32_t *Ls = clauseLits(R);
  if (clauseSize(R) == 2 && wordLit(Ls[1]).var() == V)
    std::swap(Ls[0], Ls[1]);
  assert(wordLit(Ls[0]).var() == V && "reason does not imply its variable");
  return R;
}

void Solver::compactArena() {
  std::vector<uint32_t> To;
  To.reserve(Arena.size() - WastedWords);
  // Copy the live clauses in arena order; each old clause's first literal
  // word is overwritten with its new reference.
  for (size_t Pos = 0; Pos < Arena.size();) {
    auto C = static_cast<CRef>(Pos);
    uint32_t Words = clauseWords(clauseSize(C), isLearnt(C));
    if (!isDeleted(C)) {
      auto NewRef = static_cast<CRef>(To.size());
      To.insert(To.end(), Arena.begin() + C, Arena.begin() + C + Words);
      Arena[C + 1] = NewRef;
    }
    Pos += Words;
  }
  auto Reloc = [&](CRef C) {
    assert(!isDeleted(C) && "reference to a deleted clause");
    return Arena[C + 1];
  };
  for (CRef &C : Clauses)
    C = Reloc(C);
  for (CRef &C : Learnts)
    C = Reloc(C);
  for (std::vector<Watcher> &WS : Watches)
    for (Watcher &W : WS)
      W.Ref = Reloc(W.cref()) << 1 | (W.Ref & 1);
  // An assigned variable's reason is locked, hence live. An unassigned
  // variable keeps the reason of its last assignment, which is never read
  // again; it is relocated, or cleared if its clause was deleted, so every
  // reason stays a valid reference.
  for (VarData &D : VarInfo)
    if (D.Reason != CRefUndef)
      D.Reason = isDeleted(D.Reason) ? CRefUndef : Reloc(D.Reason);
  Arena.swap(To);
  WastedWords = 0;
  ++Stats.Compactions;
}

bool Solver::addClause(const Lit *Lits, size_t N) {
  assert(decisionLevel() == 0 && "clauses must be added at level 0");
  if (!Ok)
    return false;
  if (Proof)
    Proof->addInput(std::vector<Lit>(Lits, Lits + N));

  // Simplify in place: sort, strip duplicates and false literals, detect
  // tautology.
  AddScratch.assign(Lits, Lits + N);
  std::sort(AddScratch.begin(), AddScratch.end());
  size_t Out = 0;
  Lit Prev = LitUndef;
  for (Lit L : AddScratch) {
    assert(L.var() < numVars() && "literal over unknown variable");
    if (value(L) == LBool::True || L == ~Prev)
      return true; // satisfied or tautological
    if (value(L) != LBool::False && L != Prev)
      AddScratch[Out++] = L;
    Prev = L;
  }

  if (Out == 0) {
    Ok = false;
    if (Proof)
      Proof->addDerived({});
    return false;
  }
  if (Out == 1) {
    uncheckedEnqueue(AddScratch[0], CRefUndef);
    Ok = (propagate() == CRefUndef);
    if (!Ok && Proof)
      Proof->addDerived({});
    return Ok;
  }
  CRef C = allocClause(AddScratch.data(), Out, /*Learnt=*/false);
  Clauses.push_back(C);
  attachClause(C);
  return true;
}

void Solver::uncheckedEnqueue(Lit L, CRef Reason) {
  assert(value(L) == LBool::Undef && "enqueue of assigned literal");
  Assigns[L.var()] = boolToLBool(!L.negated());
  VarInfo[L.var()].Reason = Reason;
  VarInfo[L.var()].Level = decisionLevel();
  Trail.push_back(L);
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

Solver::CRef Solver::propagate() {
  CRef Conflict = CRefUndef;
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++]; // P is true; visit the watchers of clauses with ~P
    ++Stats.Propagations;
    Lit FalseLit = ~P;
    std::vector<Watcher> &WS = Watches[P.Code];
    Watcher *I = WS.data(), *J = I, *End = I + WS.size();
    while (I != End) {
      Watcher W = *I++;
      // Blocker optimization: clause already satisfied.
      LBool BlockerValue = value(W.Blocker);
      if (BlockerValue == LBool::True) {
        *J++ = W;
        continue;
      }
      if (W.binary()) {
        // The blocker is the other literal: the clause is unit or
        // conflicting, decided without reading it. A conflict is written
        // out as [other, ~P], the order the long-clause path leaves, since
        // analyze() reads a conflict's literals in order.
        *J++ = W;
        if (BlockerValue == LBool::False) {
          Conflict = W.cref();
          uint32_t *Ls = clauseLits(Conflict);
          Ls[0] = litWord(W.Blocker);
          Ls[1] = litWord(FalseLit);
          QHead = Trail.size();
          while (I != End)
            *J++ = *I++;
        } else {
          uncheckedEnqueue(W.Blocker, W.cref());
        }
        continue;
      }
      CRef C = W.cref();
      uint32_t *Ls = clauseLits(C);
      // Normalize: make sure the false literal (~P) is at position 1.
      if (Ls[0] == litWord(FalseLit))
        std::swap(Ls[0], Ls[1]);
      assert(Ls[1] == litWord(FalseLit) && "watched literal invariant broken");

      Lit First = wordLit(Ls[0]);
      if (First != W.Blocker && value(First) == LBool::True) {
        *J++ = Watcher{W.Ref, First};
        continue;
      }

      // Look for a new literal to watch. The new watch list is never WS:
      // its literal is not false, and ~P is.
      bool FoundWatch = false;
      for (uint32_t K = 2, Size = clauseSize(C); K < Size; ++K) {
        if (value(wordLit(Ls[K])) != LBool::False) {
          std::swap(Ls[1], Ls[K]);
          Watches[(~wordLit(Ls[1])).Code].push_back(Watcher{W.Ref, First});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;

      // Clause is unit or conflicting.
      *J++ = Watcher{W.Ref, First};
      if (value(First) == LBool::False) {
        Conflict = C;
        QHead = Trail.size();
        while (I != End)
          *J++ = *I++;
      } else {
        uncheckedEnqueue(First, C);
      }
    }
    WS.resize(static_cast<size_t>(J - WS.data()));
    if (Conflict != CRefUndef)
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

void Solver::claBumpActivity(CRef C) {
  float A = activity(C) + static_cast<float>(ClaInc);
  setActivity(C, A);
  if (A > 1e20f) {
    for (CRef L : Learnts)
      setActivity(L, activity(L) * 1e-20f);
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
void Solver::analyze(CRef Conflict, std::vector<Lit> &OutLearnt,
                     int &OutBtLevel) {
  int PathCount = 0;
  Lit P = LitUndef;
  OutLearnt.clear();
  OutLearnt.push_back(LitUndef); // slot for the asserting literal
  size_t Index = Trail.size();

  CRef Reason = Conflict;
  do {
    assert(Reason != CRefUndef && "reached decision without exhausting paths");
    if (isLearnt(Reason))
      claBumpActivity(Reason);
    for (uint32_t I = (P == LitUndef ? 0 : 1), Size = clauseSize(Reason);
         I < Size; ++I) {
      Lit Q = clauseLit(Reason, I);
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
    Seen[P.var()] = 0;
    --PathCount;
    if (PathCount > 0)
      Reason = reasonFor(P.var());
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
    if (VarInfo[V].Reason == CRefUndef ||
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
    CRef C = reasonFor(Cur.var());
    for (uint32_t I = 1, Size = clauseSize(C); I < Size; ++I) {
      Lit Q = clauseLit(C, I);
      Var V = Q.var();
      if (Seen[V] || VarInfo[V].Level == 0)
        continue;
      if (VarInfo[V].Reason != CRefUndef &&
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
    if (VarInfo[V].Reason == CRefUndef) {
      assert(VarInfo[V].Level > 0);
      OutConflict.push_back(~Trail[I]);
    } else {
      CRef C = reasonFor(V);
      for (uint32_t K = 1, Size = clauseSize(C); K < Size; ++K) {
        Var Q = clauseLit(C, K).var();
        if (VarInfo[Q].Level > 0)
          Seen[Q] = 1;
      }
    }
    Seen[V] = 0;
  }
  Seen[P.var()] = 0;
}

void Solver::reduceDB() {
  // Remove roughly half of the learnt clauses, lowest activity first;
  // keep binary and locked (reason) clauses.
  std::sort(Learnts.begin(), Learnts.end(), [this](CRef A, CRef B) {
    if ((clauseSize(A) > 2) != (clauseSize(B) > 2))
      return clauseSize(A) > 2;
    return activity(A) < activity(B);
  });
  size_t I = 0, J = 0;
  double ExtraLim = ClaInc / std::max<size_t>(Learnts.size(), 1);
  for (; I < Learnts.size(); ++I) {
    CRef C = Learnts[I];
    if (clauseSize(C) > 2 && !locked(C) &&
        (I < Learnts.size() / 2 || activity(C) < ExtraLim)) {
      if (Proof)
        Proof->addDelete(clauseLitVector(C));
      removeClause(C);
    }
    else
      Learnts[J++] = C;
  }
  Learnts.resize(J);
  if (WastedWords * 5 > Arena.size())
    compactArena();
}

SolveResult Solver::search(int64_t ConflictsBeforeRestart) {
  assert(Ok);
  int64_t ConflictCount = 0;
  std::vector<Lit> &Learnt = LearntScratch;

  for (;;) {
    CRef Conflict = propagate();
    if (Conflict != CRefUndef) {
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
        uncheckedEnqueue(Learnt[0], CRefUndef);
      } else {
        CRef C = allocClause(Learnt.data(), Learnt.size(), /*Learnt=*/true);
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
    uncheckedEnqueue(Next, CRefUndef);
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
