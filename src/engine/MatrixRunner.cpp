//===--- MatrixRunner.cpp - parallel (impl x test x model) runs --------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "engine/MatrixRunner.h"

#include "engine/WeakestModelSearch.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <thread>

using namespace checkfence;
using namespace checkfence::engine;

void checkfence::engine::parallelFor(
    int Jobs, size_t Count, const std::function<void(size_t)> &Body) {
  // The calling thread is always one worker; spawn the extras.
  size_t Workers = Jobs < 1 ? 1 : std::min(static_cast<size_t>(Jobs), Count);
  if (Workers <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Body(I);
    return;
  }
  std::atomic<size_t> Next{0};
  // Spans recorded by workers must land in the caller's trace, so the
  // current tracer (if any) is reinstalled in every spawned thread.
  obs::Tracer *ParentTracer = obs::currentTracer();
  auto Work = [&] {
    obs::TraceContext TC(ParentTracer);
    for (;;) {
      size_t I = Next.fetch_add(1);
      if (I >= Count)
        return;
      Body(I);
    }
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Workers - 1);
  for (size_t W = 1; W < Workers; ++W)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}

std::string MatrixCell::label() const {
  return Impl + ":" + Test + ":" + memmodel::modelName(Model);
}

int MatrixReport::countWithStatus(Status S) const {
  int N = 0;
  for (const MatrixCellResult &C : Cells)
    N += C.Result.Verdict == S;
  return N;
}

bool MatrixReport::allCompleted() const {
  return countWithStatus(Status::Error) == 0 &&
         countWithStatus(Status::Cancelled) == 0;
}

Result checkfence::engine::convertResult(const checker::CheckResult &R,
                                         const std::string &Impl,
                                         const std::string &Test,
                                         const std::string &Model) {
  Result Out;
  Out.Verdict = R.Status;
  Out.Message = R.Message;
  Out.Impl = Impl;
  Out.Test = Test;
  Out.Model = Model;
  for (const checker::Observation &O : R.Spec)
    Out.Observations.push_back(O.str());
  if (R.Counterexample) {
    Out.HasCounterexample = true;
    Out.CounterexampleTrace = R.Counterexample->str();
    Out.CounterexampleColumns = R.Counterexample->columns();
    Out.CounterexampleObservation =
        R.Counterexample->Obs.str(R.Counterexample->ObsLabels);
  }
  const checker::CheckStats &S = R.Stats;
  ResultStats &St = Out.Stats;
  St.ObservationCount = S.ObservationCount;
  St.BoundIterations = S.BoundIterations;
  St.UnrolledInstrs = S.Inclusion.UnrolledInstrs;
  St.Loads = S.Inclusion.Loads;
  St.Stores = S.Inclusion.Stores;
  St.SatVars = S.Inclusion.SatVars;
  St.SatClauses = static_cast<unsigned long long>(S.Inclusion.SatClauses);
  St.EncodeSeconds = S.Inclusion.EncodeSeconds;
  St.SolveSeconds = S.Inclusion.SolveSeconds;
  St.MiningSeconds = S.MiningSeconds;
  St.IncludeSeconds = S.IncludeSeconds;
  St.ProbeSeconds = S.ProbeSeconds;
  St.TotalSeconds = S.TotalSeconds;
  Out.FinalBounds = R.FinalBounds;
  return Out;
}

std::string MatrixReport::json(bool IncludeTimings) const {
  std::ostringstream OS;
  OS << "{\n";
  OS << formatString("  \"schema_version\": %d,\n", JsonSchemaVersion);
  if (IncludeTimings)
    OS << formatString("  \"jobs\": %d,\n  \"wall_seconds\": %.3f,\n",
                       Jobs, WallSeconds);
  // The "cancelled" bucket appears only when non-zero, keeping
  // uncancelled reports on the historical five-field shape.
  support::JsonObject Summary;
  Summary.field("pass", countWithStatus(Status::Pass))
      .field("fail", countWithStatus(Status::Fail))
      .field("sequential_bug", countWithStatus(Status::SequentialBug))
      .field("bounds_exhausted", countWithStatus(Status::BoundsExhausted))
      .field("error", countWithStatus(Status::Error));
  if (int Cancelled = countWithStatus(Status::Cancelled))
    Summary.field("cancelled", Cancelled);
  OS << "  \"summary\": " << Summary.str() << ",\n";
  OS << "  \"cells\": [\n";
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Result &R = Cells[I].Result;
    const ResultStats &S = R.Stats;
    support::JsonObject Cell;
    Cell.field("impl", R.Impl)
        .field("test", R.Test)
        .field("model", R.Model)
        .field("status", statusName(R.Verdict))
        .field("message", R.Message)
        .field("observations", S.ObservationCount)
        .field("bound_iterations", S.BoundIterations)
        .field("unrolled_instrs", S.UnrolledInstrs)
        .field("loads", S.Loads)
        .field("stores", S.Stores)
        .field("sat_vars", S.SatVars)
        .field("sat_clauses", S.SatClauses);
    if (R.HasCounterexample)
      Cell.field("counterexample", R.CounterexampleObservation);
    if (IncludeTimings)
      Cell.fixed("seconds", Cells[I].Seconds)
          .fixed("encode_seconds", S.EncodeSeconds)
          .fixed("solve_seconds", S.SolveSeconds)
          .fixed("mining_seconds", S.MiningSeconds)
          .fixed("include_seconds", S.IncludeSeconds)
          .fixed("probe_seconds", S.ProbeSeconds);
    OS << "    " << Cell.str() << (I + 1 < Cells.size() ? ",\n" : "\n");
  }
  OS << "  ]";
  // Multi-model sweeps additionally report the weakest passing model per
  // (impl, test). Derived from the verdicts above, so it stays
  // byte-identical across job counts.
  std::vector<WeakestSummary> Summaries = summarizeReport(*this);
  if (Cells.size() > Summaries.size()) {
    OS << ",\n  \"weakest_passing\": ";
    OS << weakestJson(Summaries);
    OS << "\n";
  } else {
    OS << "\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string MatrixReport::table() const {
  std::ostringstream OS;
  OS << formatString("%-10s %-8s %-8s %-16s %8s %6s %9s\n", "impl", "test",
                     "model", "status", "obs", "iters", "seconds");
  for (const MatrixCellResult &C : Cells) {
    const Result &R = C.Result;
    OS << formatString("%-10s %-8s %-8s %-16s %8d %6d %9.2f\n",
                       R.Impl.c_str(), R.Test.c_str(), R.Model.c_str(),
                       statusName(R.Verdict), R.Stats.ObservationCount,
                       R.Stats.BoundIterations, C.Seconds);
  }
  // Optional buckets appear only when non-zero, so the counts always sum
  // to the cell count without lengthening the common line.
  std::string Notes;
  if (int Exhausted = countWithStatus(Status::BoundsExhausted))
    Notes += formatString(", %d bounds-exhausted", Exhausted);
  if (int Cancelled = countWithStatus(Status::Cancelled))
    Notes += formatString(", %d cancelled", Cancelled);
  OS << formatString("%d cells: %d pass, %d fail, %d error%s (%.2fs "
                     "wall, %d jobs)\n",
                     static_cast<int>(Cells.size()),
                     countWithStatus(Status::Pass),
                     countWithStatus(Status::Fail) +
                         countWithStatus(Status::SequentialBug),
                     countWithStatus(Status::Error), Notes.c_str(),
                     WallSeconds, Jobs);
  std::vector<WeakestSummary> Summaries = summarizeReport(*this);
  if (Cells.size() > Summaries.size()) {
    OS << "\nweakest passing model per (impl, test):\n";
    OS << weakestTable(Summaries);
  }
  return OS.str();
}

MatrixReport MatrixRunner::run(const std::vector<MatrixCell> &Cells,
                               const CellFn &Run) const {
  MatrixReport Report;
  Report.Jobs = Jobs;
  Report.Cells.resize(Cells.size());

  // One job per program: the cell indices sharing (impl, test), in
  // first-appearance order.
  std::vector<std::vector<size_t>> Programs;
  std::map<std::pair<std::string, std::string>, size_t> ProgramOf;
  for (size_t I = 0; I < Cells.size(); ++I) {
    auto [It, New] =
        ProgramOf.try_emplace({Cells[I].Impl, Cells[I].Test}, Programs.size());
    if (New)
      Programs.emplace_back();
    Programs[It->second].push_back(I);
  }

  Timer Wall;
  parallelFor(Jobs, Programs.size(), [&](size_t P) {
    const std::vector<size_t> &Members = Programs[P];
    std::vector<memmodel::ModelParams> Models;
    for (size_t I : Members)
      Models.push_back(Cells[I].Model);
    std::vector<size_t> Done; // this program's finished cells
    for (size_t K : memmodel::strengthOrder(Models, /*StrongestFirst=*/true)) {
      const size_t I = Members[K];
      MatrixCell Cell = Cells[I];
      for (size_t J : Done) {
        const MatrixCellResult &Prev = Report.Cells[J];
        if (Prev.Result.Verdict != Status::Pass ||
            !memmodel::atLeastAsStrong(Prev.Cell.Model, Cell.Model))
          continue;
        for (const auto &[Loop, Bound] : Prev.Result.FinalBounds) {
          int &Seed = Cell.SeedBounds[Loop];
          Seed = std::max(Seed, Bound);
        }
      }
      obs::Span CellSpan("matrix", [&] { return "cell:" + Cell.label(); });
      Timer CellTimer;
      checker::CheckResult R = Run(Cell);
      MatrixCellResult &Out = Report.Cells[I];
      Out.Seconds = CellTimer.seconds();
      Out.Cell = Cells[I];
      Out.Result = convertResult(R, Cell.Impl, Cell.Test,
                                 memmodel::modelName(Cell.Model));
      Done.push_back(I);
    }
  });
  Report.WallSeconds = Wall.seconds();
  return Report;
}
