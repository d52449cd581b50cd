//===--- WeakestModelSearch.cpp - weakest-passing-model search --------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "engine/WeakestModelSearch.h"

#include "support/Format.h"
#include "support/Json.h"

#include <sstream>

using namespace checkfence;
using namespace checkfence::engine;
using memmodel::atLeastAsStrong;
using memmodel::ModelParams;

std::vector<ModelParams>
checkfence::engine::weakestPassing(const std::vector<ModelVerdict> &Verdicts) {
  std::vector<ModelParams> Out;
  for (const ModelVerdict &V : Verdicts) {
    if (!V.Passed)
      continue;
    bool Minimal = true;
    for (const ModelVerdict &W : Verdicts) {
      if (!W.Passed || &W == &V)
        continue;
      // A strictly weaker passing model displaces V. Semantically equal
      // models (strong both ways) keep only their first occurrence.
      if (atLeastAsStrong(V.Model, W.Model) &&
          (!atLeastAsStrong(W.Model, V.Model) || &W < &V)) {
        Minimal = false;
        break;
      }
    }
    if (Minimal)
      Out.push_back(V.Model);
  }
  return Out;
}

std::vector<WeakestSummary>
checkfence::engine::summarizeReport(const MatrixReport &Report) {
  // Group cells by (impl, test) in first-appearance order.
  std::vector<WeakestSummary> Groups;
  std::vector<std::vector<ModelVerdict>> Verdicts;
  for (const MatrixCellResult &C : Report.Cells) {
    const Result &R = C.Result;
    size_t G = 0;
    for (; G < Groups.size(); ++G)
      if (Groups[G].Impl == R.Impl && Groups[G].Test == R.Test)
        break;
    if (G == Groups.size()) {
      WeakestSummary S;
      S.Impl = R.Impl;
      S.Test = R.Test;
      Groups.push_back(S);
      Verdicts.emplace_back();
    }
    WeakestSummary &S = Groups[G];
    ++S.CellsRun;
    switch (R.Verdict) {
    case Status::Pass:
      ++S.ModelsChecked;
      ++S.ModelsPassed;
      Verdicts[G].push_back({C.Cell.Model, true});
      break;
    case Status::Fail:
    case Status::SequentialBug:
      ++S.ModelsChecked;
      Verdicts[G].push_back({C.Cell.Model, false});
      break;
    default:
      break; // BoundsExhausted / Error: inconclusive, never extrapolated
    }
  }
  for (size_t G = 0; G < Groups.size(); ++G)
    Groups[G].Weakest = weakestPassing(Verdicts[G]);
  return Groups;
}

std::string
checkfence::engine::weakestJson(const std::vector<WeakestSummary> &Summaries) {
  std::ostringstream OS;
  OS << "[\n";
  for (size_t I = 0; I < Summaries.size(); ++I) {
    const WeakestSummary &S = Summaries[I];
    OS << formatString(
        "    {\"impl\": \"%s\", \"test\": \"%s\", \"weakest\": [",
        support::jsonEscape(S.Impl).c_str(), support::jsonEscape(S.Test).c_str());
    for (size_t M = 0; M < S.Weakest.size(); ++M)
      OS << formatString("%s\"%s\"", M ? ", " : "",
                         memmodel::modelName(S.Weakest[M]).c_str());
    OS << formatString("], \"models_passed\": %d, \"models_checked\": %d}",
                       S.ModelsPassed, S.ModelsChecked);
    OS << (I + 1 < Summaries.size() ? ",\n" : "\n");
  }
  OS << "  ]";
  return OS.str();
}

std::string
checkfence::engine::weakestTable(const std::vector<WeakestSummary> &Summaries) {
  std::ostringstream OS;
  OS << formatString("%-10s %-8s %7s %-s\n", "impl", "test", "passed",
                     "weakest passing model(s)");
  for (const WeakestSummary &S : Summaries) {
    std::string Weakest;
    for (const ModelParams &M : S.Weakest) {
      if (!Weakest.empty())
        Weakest += ", ";
      Weakest += memmodel::modelName(M);
    }
    if (Weakest.empty())
      Weakest = "(none)";
    OS << formatString("%-10s %-8s %4d/%-2d %-s\n", S.Impl.c_str(),
                       S.Test.c_str(), S.ModelsPassed, S.ModelsChecked,
                       Weakest.c_str());
  }
  return OS.str();
}

WeakestModelSearch::WeakestModelSearch(
    const std::vector<ModelParams> &Given) {
  for (size_t I : memmodel::strengthOrder(Given, /*StrongestFirst=*/false))
    Lattice.push_back(Given[I]);
}

WeakestSummary WeakestModelSearch::run(const std::string &Impl,
                                       const std::string &Test,
                                       const CellFn &Run) const {
  WeakestSummary S;
  S.Impl = Impl;
  S.Test = Test;
  std::vector<ModelVerdict> Known; // conclusive verdicts so far

  for (const ModelParams &M : Lattice) {
    // Monotone inference from what is already known.
    bool Inferred = false, Verdict = false;
    for (const ModelVerdict &K : Known) {
      if (K.Passed && atLeastAsStrong(M, K.Model)) {
        Inferred = true;
        Verdict = true; // a weaker model passed; M passes
        break;
      }
      if (!K.Passed && atLeastAsStrong(K.Model, M)) {
        Inferred = true;
        Verdict = false; // a stronger model failed; M fails
        break;
      }
    }
    if (Inferred) {
      ++S.CellsInferred;
      ++S.ModelsChecked;
      S.ModelsPassed += Verdict;
      Known.push_back({M, Verdict});
      continue;
    }

    MatrixCell Cell;
    Cell.Impl = Impl;
    Cell.Test = Test;
    Cell.Model = M;
    checker::CheckResult R = Run(Cell);
    ++S.CellsRun;
    switch (R.Status) {
    case Status::Pass:
      ++S.ModelsChecked;
      ++S.ModelsPassed;
      Known.push_back({M, true});
      break;
    case Status::Fail:
    case Status::SequentialBug:
      ++S.ModelsChecked;
      Known.push_back({M, false});
      break;
    default:
      break; // inconclusive: no inference in either direction
    }
  }

  S.Weakest = weakestPassing(Known);
  return S;
}
