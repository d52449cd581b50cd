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
/// pool, one job per program: the cells sharing an (impl, test) pair run
/// in sequence, strongest model first, and each starts from the loop
/// bounds its program's stronger passing cells already proved sufficient
/// (MatrixCell::SeedBounds). Results are aggregated by cell index, and
/// the report is deterministic: a cell's seed depends only on its own
/// program's earlier cells, so the same matrix yields byte-identical
/// timing-free JSON at any job count.
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

/// The public stats record of a check: the one CheckStats -> ResultStats
/// copy, shared by matrix cells and the facade's single-check results.
ResultStats resultStats(const checker::CheckStats &S);

/// Renders one inline cell object of the report schema from a Result's
/// identity, verdict, message, stats and counterexample observation.
/// \p Seconds is the cell's wall clock (matrix cells time the cell
/// function, single checks report the run's TotalSeconds). One renderer
/// defines the cell shape for every emitter.
std::string renderReportCell(const Result &R, double Seconds,
                             bool IncludeTimings);

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
  /// Loop bounds the check may start from. MatrixRunner::run sets them to
  /// the pointwise max of FinalBounds over the program's earlier passing
  /// cells whose model is at least as strong: a stronger model's
  /// executions are a subset of this one's, so a passing cell needs those
  /// bounds anyway, and the last probe still proves the bounds
  /// sufficient. The cell function decides whether to apply them.
  trans::LoopBounds SeedBounds;

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

  int countWithStatus(Status S) const;
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

  /// Runs every cell through \p Run and aggregates deterministically
  /// (results land at their cell's index). The worker pool runs programs
  /// - the cells sharing Impl and Test - in parallel; a program's cells
  /// run in sequence, strongest model first (memmodel::strengthOrder),
  /// with SeedBounds filled from the program's stronger passing cells.
  MatrixReport run(const std::vector<MatrixCell> &Cells,
                   const CellFn &Run) const;

private:
  int Jobs;
};

} // namespace engine
} // namespace checkfence

#endif // CHECKFENCE_ENGINE_MATRIXRUNNER_H
