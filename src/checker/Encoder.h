//===--- Encoder.h - end-to-end problem encoding ---------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the full formula Phi(T,I,Y) (Sec. 3.2.1) for one test program:
/// flatten the thread procedures, run the range analysis, encode the
/// thread-local dataflow (Delta_k), the memory model (Theta), the side
/// conditions (assumes as hard constraints, asserts and runtime-type checks
/// as the error flag), the loop-bound marks, and the observation vector.
///
/// ProblemEncoding is the formula plus its decode maps. Its clauses flow
/// through a CnfBuilder straight into the solver of the SolveContext
/// (checker/SolveContext.h) that owns it. The loop-bound probe marks and
/// the mismatch-clause groups are gated by activation literals instead of
/// hard-asserted, so one encoding serves specification mining (Serial
/// model, blocking clauses), inclusion checking (weak model, a mismatch
/// clause per specification element) and the lazy-unrolling bound probe.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_ENCODER_H
#define CHECKFENCE_CHECKER_ENCODER_H

#include "checker/Observation.h"
#include "checker/Trace.h"
#include "encode/ValueEncoding.h"
#include "memmodel/MemoryModel.h"
#include "trans/Flattener.h"

#include <memory>
#include <optional>
#include <string>

namespace checkfence {
namespace checker {

struct ProblemConfig {
  memmodel::ModelParams Model = memmodel::ModelParams::relaxed();
  /// Use the range-analysis results to fix constants, minimize widths, and
  /// prune aliases (Fig. 11c ablation switch).
  bool RangeAnalysis = true;
  /// Give up (Unknown) after this many conflicts; -1 = no budget.
  int64_t ConflictBudget = -1;
  /// Record a DRAT-style clausal proof (sat/Proof.h); an Unsat inclusion
  /// check (a PASS verdict) can then be validated independently.
  bool ProofLog = false;
};

/// Size/time statistics for one encoded problem (Fig. 10 columns).
struct EncodeStats {
  int UnrolledInstrs = 0;
  int Loads = 0;
  int Stores = 0;
  double EncodeSeconds = 0;
  int SatVars = 0;
  uint64_t SatClauses = 0;
  size_t SolverMemBytes = 0;
  double SolveSeconds = 0;  ///< accumulated over all solve() calls
  uint64_t SolveCalls = 0;  ///< number of solve() calls charged here
  uint64_t LearntClauses = 0; ///< learnt clauses live after the last solve
};

/// The decode-map half of a SolveContext: flat program, range info,
/// value/model encoders, the error flag, and the activation literals. All
/// clauses go through the CnfBuilder handed to the constructor.
class ProblemEncoding {
public:
  ProblemEncoding(encode::CnfBuilder &Cnf, const lsl::Program &Prog,
                  const std::vector<std::string> &ThreadProcs,
                  const trans::LoopBounds &Bounds, const ProblemConfig &Cfg);

  bool ok() const { return ErrorMsg.empty(); }
  const std::string &error() const { return ErrorMsg; }

  /// Assumptions restricting the search to executions within the loop
  /// bounds (one negated mark literal per non-restricted loop instance).
  /// Restricted marks are hard-asserted off in both modes.
  const std::vector<sat::Lit> &withinBoundsAssumptions() const {
    return WithinAssumptions;
  }

  /// Assumptions activating the bound-exceed probe ("at least one
  /// non-restricted mark fires").
  std::vector<sat::Lit> probeAssumptions() const { return {ProbeAct}; }

  /// Decodes the observation of the current model (after Sat).
  Observation decodeObservation(const sat::Solver &S) const;

  /// Adds the clause "observation != O" (the mining blocking clause and
  /// the inclusion-check constraint); it may create comparator gates. With
  /// a defined \p Activation the clause only binds while that literal is
  /// assumed (retractable constraint group). Returns false if the solver
  /// became unsat.
  bool addMismatch(const Observation &O,
                   sat::Lit Activation = sat::LitUndef);

  /// Constrains the problem to executions with exactly observation \p O
  /// (used by the litmus tests: "is this outcome reachable?"). Hard.
  /// Returns false, adding nothing, when \p O does not have one value per
  /// observation slot; otherwise false if the solver became unsat.
  bool requireObservation(const Observation &O);

  /// Decodes a full counterexample trace (after Sat).
  Trace decodeTrace(const sat::Solver &S) const;

  /// After a Sat probe solve: keys of the loop instances whose bounds were
  /// exceeded in the current model.
  std::vector<std::string> exceededLoops(const sat::Solver &S) const;

  const trans::FlatProgram &flat() const { return Flat; }
  /// Range-analysis results for flat() (always computed; the static
  /// robustness analysis reuses them instead of re-running the pass).
  const trans::RangeInfo &ranges() const { return Ranges; }
  const trans::LoopBounds &bounds() const { return Bounds; }
  const EncodeStats &stats() const { return Stats; }
  EncodeStats &stats() { return Stats; }
  std::vector<std::string> observationLabels() const;

private:
  void encodeChecksAndBounds(const ProblemConfig &Cfg);
  void fail(const std::string &Msg) {
    if (ErrorMsg.empty())
      ErrorMsg = Msg;
  }

  encode::CnfBuilder *Cnf = nullptr;
  trans::FlatProgram Flat;
  trans::LoopBounds Bounds;
  trans::RangeInfo Ranges;
  std::unique_ptr<encode::ValueEncoder> Values;
  std::unique_ptr<memmodel::MemoryModelEncoder> Model;

  encode::Lit ErrorLit;
  struct ErrorSource {
    encode::Lit L;
    std::string Description;
  };
  std::vector<ErrorSource> ErrorSources;
  struct MarkLit {
    encode::Lit L;
    std::string Key;
  };
  std::vector<MarkLit> ProbeMarks;
  std::vector<sat::Lit> WithinAssumptions;
  sat::Lit ProbeAct;

  EncodeStats Stats;
  std::string ErrorMsg;
};

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_ENCODER_H
