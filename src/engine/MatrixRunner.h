//===--- MatrixRunner.h - parallel (impl x test x model) runs ---*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation (Fig. 10/11) is a matrix: every implementation
/// against every applicable Fig. 8 test under every memory model of
/// interest. MatrixRunner executes such a matrix across a worker thread
/// pool. Cells are independent (each runs its own CheckSession), results
/// are aggregated by cell index, and the report is deterministic: the same
/// matrix yields byte-identical timing-free JSON at any job count.
///
/// The engine layer does not know how to turn cell names into programs -
/// that is the harness's job (harness::catalogCellRunner); the runner just
/// schedules an abstract cell function. parallelFor is exposed separately
/// for other embarrassingly parallel check workloads (e.g. the fence
/// minimization pass).
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENGINE_MATRIXRUNNER_H
#define CHECKFENCE_ENGINE_MATRIXRUNNER_H

#include "checker/CheckFence.h"

#include <functional>
#include <string>
#include <vector>

namespace checkfence {
namespace engine {

/// Runs \p Body(I) for every I in [0, Count) on up to \p Jobs worker
/// threads (Jobs <= 1 runs inline). Blocks until all iterations finished.
/// \p Body must be safe to call concurrently for distinct indices.
void parallelFor(int Jobs, size_t Count,
                 const std::function<void(size_t)> &Body);

/// The schema_version stamped into every JSON report (matrix and single
/// checks share one schema; see docs/API.md).
inline constexpr int ReportSchemaVersion = 1;

/// The per-cell field set of the versioned report schema. One renderer
/// defines the cell shape for every emitter - matrix cells here, and
/// the facade's single-check serializer (which holds pre-rendered
/// strings, not engine objects).
struct ReportCellFields {
  std::string Impl;
  std::string Test;
  std::string Model;
  const char *StatusName = "";
  std::string Message;
  int Observations = 0;
  int BoundIterations = 0;
  int UnrolledInstrs = 0;
  int Loads = 0;
  int Stores = 0;
  int SatVars = 0;
  unsigned long long SatClauses = 0;
  bool HasCounterexample = false;
  std::string Counterexample;
  bool IncludeTimings = false;
  double Seconds = 0;
  double EncodeSeconds = 0;
  double SolveSeconds = 0;
  double MiningSeconds = 0;
  double IncludeSeconds = 0;
  double ProbeSeconds = 0;
  int OracleAttempts = 0;
  int OracleDischarges = 0;
  double OracleSeconds = 0;
  int AnalysisAttempts = 0;
  int AnalysisDischarges = 0;
  double AnalysisSeconds = 0;
};

/// Renders one inline cell object of the report schema.
std::string renderReportCell(const ReportCellFields &F);

/// Renders the report's inline summary object. The "cancelled" bucket
/// appears only when non-zero, keeping uncancelled reports on the
/// historical five-field shape byte-for-byte.
std::string renderReportSummary(int Pass, int Fail, int SequentialBug,
                                int BoundsExhausted, int Error,
                                int Cancelled);

/// One cell of the evaluation matrix.
struct MatrixCell {
  std::string Impl; ///< implementation name (harness resolves it)
  std::string Test; ///< catalog test name
  /// Defaults to the one CheckOptions default so a default-model change
  /// cannot skew only some callers.
  memmodel::ModelParams Model = checker::CheckOptions{}.Model;

  std::string label() const;
};

/// Maps a cell to its check result. Implementations must be thread-safe.
using CellFn = std::function<checker::CheckResult(const MatrixCell &)>;

struct MatrixCellResult {
  MatrixCell Cell;
  checker::CheckResult Result;
  double Seconds = 0;
};

struct MatrixReport {
  std::vector<MatrixCellResult> Cells; ///< in input-matrix order
  int Jobs = 1;
  double WallSeconds = 0;

  int countWithStatus(checker::CheckStatus S) const;
  /// True when every cell ran to a verdict: no Error and no Cancelled
  /// cells.
  bool allCompleted() const;

  /// Machine-readable report. With \p IncludeTimings false the output
  /// depends only on the matrix and the verdicts - byte-identical across
  /// job counts and machines.
  std::string json(bool IncludeTimings = true) const;

  /// Human-readable fixed-width table.
  std::string table() const;
};

class MatrixRunner {
public:
  explicit MatrixRunner(int Jobs) : Jobs(Jobs < 1 ? 1 : Jobs) {}

  /// Runs every cell through \p Run on the worker pool and aggregates
  /// deterministically (results land at their cell's index).
  MatrixReport run(const std::vector<MatrixCell> &Cells,
                   const CellFn &Run) const;

private:
  int Jobs;
};

} // namespace engine
} // namespace checkfence

#endif // CHECKFENCE_ENGINE_MATRIXRUNNER_H
