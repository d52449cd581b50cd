//===--- Shrinker.cpp - delta-debugging divergent scenarios ------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "explore/Shrinker.h"

#include "harness/Catalog.h"
#include "impls/Impls.h"

#include <vector>

using namespace checkfence;
using namespace checkfence::explore;

namespace {

/// Differential re-runs one shrink may spend; the partially shrunk
/// scenario is returned when they run out.
constexpr int MaxAttempts = 250;

/// Re-derives the rendered source and thread-argument list after a
/// structural edit.
void refreshLitmus(Scenario &S) {
  S.Source = S.Litmus.render();
  S.ThreadArgs.clear();
  for (const LitmusThread &T : S.Litmus.Threads)
    S.ThreadArgs.push_back(T.usesArg() ? 1 : 0);
}

/// Drops globals no thread references and renumbers the rest, keeping
/// repros free of unused state.
bool dropUnusedVars(LitmusProgram &P) {
  std::vector<bool> Used(static_cast<size_t>(P.NumVars), false);
  for (const LitmusThread &T : P.Threads)
    for (const LitmusStmt &S : T.Stmts) {
      if (S.K == LitmusStmt::Kind::Fence)
        continue; // Var is meaningless for fences
      if (S.Var >= 0 && S.Var < P.NumVars)
        Used[static_cast<size_t>(S.Var)] = true;
      if (S.K == LitmusStmt::Kind::LoadStore && S.Var2 >= 0 &&
          S.Var2 < P.NumVars)
        Used[static_cast<size_t>(S.Var2)] = true;
    }
  std::vector<int> Remap(static_cast<size_t>(P.NumVars), -1);
  int Next = 0;
  for (int V = 0; V < P.NumVars; ++V)
    if (Used[static_cast<size_t>(V)])
      Remap[static_cast<size_t>(V)] = Next++;
  if (Next == P.NumVars || Next == 0)
    return false;
  for (LitmusThread &T : P.Threads)
    for (LitmusStmt &S : T.Stmts) {
      S.Var = Remap[static_cast<size_t>(S.Var)];
      if (S.K == LitmusStmt::Kind::LoadStore)
        S.Var2 = Remap[static_cast<size_t>(S.Var2)];
    }
  P.NumVars = Next;
  return true;
}

/// Candidate reductions of a litmus scenario, smallest-step-first in a
/// deterministic order.
std::vector<Scenario> litmusCandidates(const Scenario &S) {
  std::vector<Scenario> Out;
  if (!S.HasStructure)
    return Out;
  const LitmusProgram &P = S.Litmus;

  // Drop a whole thread.
  if (P.Threads.size() > 1) {
    for (size_t T = 0; T < P.Threads.size(); ++T) {
      Scenario C = S;
      C.Litmus.Threads.erase(C.Litmus.Threads.begin() +
                             static_cast<long>(T));
      dropUnusedVars(C.Litmus);
      refreshLitmus(C);
      Out.push_back(std::move(C));
    }
  }
  // Drop one statement.
  for (size_t T = 0; T < P.Threads.size(); ++T) {
    for (size_t I = 0; I < P.Threads[T].Stmts.size(); ++I) {
      if (P.opCount() <= 1)
        break;
      Scenario C = S;
      C.Litmus.Threads[T].Stmts.erase(
          C.Litmus.Threads[T].Stmts.begin() + static_cast<long>(I));
      if (C.Litmus.Threads[T].Stmts.empty() &&
          C.Litmus.Threads.size() > 1)
        C.Litmus.Threads.erase(C.Litmus.Threads.begin() +
                               static_cast<long>(T));
      dropUnusedVars(C.Litmus);
      refreshLitmus(C);
      Out.push_back(std::move(C));
    }
  }
  // Simplify statements: atomic increment -> plain load+observe,
  // constant 2 -> 1.
  for (size_t T = 0; T < P.Threads.size(); ++T) {
    for (size_t I = 0; I < P.Threads[T].Stmts.size(); ++I) {
      const LitmusStmt &St = P.Threads[T].Stmts[I];
      if (St.K == LitmusStmt::Kind::AtomicIncr) {
        Scenario C = S;
        C.Litmus.Threads[T].Stmts[I].K = LitmusStmt::Kind::LoadObserve;
        refreshLitmus(C);
        Out.push_back(std::move(C));
      } else if (St.K == LitmusStmt::Kind::StoreConst && St.Value > 1) {
        Scenario C = S;
        C.Litmus.Threads[T].Stmts[I].Value = 1;
        refreshLitmus(C);
        Out.push_back(std::move(C));
      }
    }
  }
  return Out;
}

/// Candidate reductions of a symbolic scenario.
std::vector<Scenario> symbolicCandidates(const Scenario &S) {
  std::vector<Scenario> Out;
  const impls::ImplInfo *Info = impls::findImpl(S.Impl);
  if (!Info)
    return Out;
  harness::OpAlphabet Alphabet = harness::alphabetFor(Info->Kind);
  harness::TestSpec Spec;
  std::string Err;
  if (!harness::parseTestNotation(S.Notation, Alphabet, Spec, Err))
    return Out;

  auto Push = [&](harness::TestSpec Reduced) {
    if (Reduced.Threads.empty())
      return;
    Scenario C = S;
    C.Notation = harness::renderTestNotation(Reduced, Alphabet);
    Out.push_back(std::move(C));
  };

  if (Spec.Threads.size() > 1) {
    for (size_t T = 0; T < Spec.Threads.size(); ++T) {
      harness::TestSpec R = Spec;
      R.Threads.erase(R.Threads.begin() + static_cast<long>(T));
      Push(std::move(R));
    }
  }
  for (size_t T = 0; T < Spec.Threads.size(); ++T) {
    for (size_t I = 0; I < Spec.Threads[T].size(); ++I) {
      harness::TestSpec R = Spec;
      R.Threads[T].erase(R.Threads[T].begin() + static_cast<long>(I));
      if (R.Threads[T].empty() && R.Threads.size() > 1)
        R.Threads.erase(R.Threads.begin() + static_cast<long>(T));
      Push(std::move(R));
    }
  }
  for (size_t I = 0; I < Spec.Init.size(); ++I) {
    harness::TestSpec R = Spec;
    R.Init.erase(R.Init.begin() + static_cast<long>(I));
    Push(std::move(R));
  }
  // Priming bounds retry loops to one iteration - a semantic reduction
  // that often keeps a divergence while shrinking the unrolling.
  for (size_t T = 0; T < Spec.Threads.size(); ++T) {
    for (size_t I = 0; I < Spec.Threads[T].size(); ++I) {
      if (Spec.Threads[T][I].Primed)
        continue;
      harness::TestSpec R = Spec;
      R.Threads[T][I].Primed = true;
      Push(std::move(R));
    }
  }
  return Out;
}

} // namespace

ShrinkResult checkfence::explore::shrinkScenario(const Scenario &S,
                                                 Verifier &V,
                                                 const DiffOptions &Opts) {
  ShrinkResult Res;
  Res.Min = S;
  Res.Models = Opts.Models;

  DiffOptions Local = Opts;

  auto Diverges = [&](const Scenario &C, Divergence &D) {
    ++Res.Attempts;
    ScenarioOutcome O = DifferentialRunner(V, Local).run(C);
    if (O.Divergences.empty())
      return false;
    D = O.Divergences[0];
    return true;
  };

  // Baseline: confirm (and name) the divergence under the full options.
  if (!Diverges(Res.Min, Res.Repro))
    return Res; // flaky input: nothing to shrink

  // Narrow the model axis to the diverging point first - it divides the
  // cost of every subsequent attempt.
  if (!Res.Repro.Model.empty() && Local.Models.size() > 1) {
    for (const memmodel::ModelParams &M : Local.Models) {
      if (memmodel::modelName(M) != Res.Repro.Model)
        continue;
      DiffOptions Narrow = Local;
      Narrow.Models = {M};
      DiffOptions Saved = Local;
      Local = Narrow;
      Divergence D;
      if (Diverges(Res.Min, D)) {
        Res.Repro = D;
        Res.Models = Local.Models;
        ++Res.Steps;
      } else {
        Local = Saved; // cross-model interaction: keep the full axis
      }
      break;
    }
  }

  bool Progress = true;
  while (Progress) {
    Progress = false;
    std::vector<Scenario> Candidates =
        Res.Min.K == Scenario::Kind::Litmus
            ? litmusCandidates(Res.Min)
            : symbolicCandidates(Res.Min);
    for (const Scenario &C : Candidates) {
      if (Res.Attempts >= MaxAttempts) {
        Res.HitBudget = true;
        return Res;
      }
      Divergence D;
      if (Diverges(C, D)) {
        Res.Min = C;
        Res.Repro = D;
        ++Res.Steps;
        Progress = true;
        break; // restart candidate generation from the smaller scenario
      }
    }
  }
  return Res;
}
