//===--- ApiInternal.cpp - facade implementation helpers ---------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "api/ApiInternal.h"

#include "engine/MatrixRunner.h"
#include "impls/Impls.h"
#include "support/Format.h"
#include "support/Json.h"

using namespace checkfence;
using namespace checkfence::api;

Status checkfence::api::toStatus(checker::CheckStatus S) {
  switch (S) {
  case checker::CheckStatus::Pass:
    return Status::Pass;
  case checker::CheckStatus::Fail:
    return Status::Fail;
  case checker::CheckStatus::SequentialBug:
    return Status::SequentialBug;
  case checker::CheckStatus::BoundsExhausted:
    return Status::BoundsExhausted;
  case checker::CheckStatus::Error:
    return Status::Error;
  case checker::CheckStatus::Cancelled:
    return Status::Cancelled;
  }
  return Status::Error;
}

CompiledCase checkfence::api::buildCase(const Request &Req) {
  CompiledCase Case;

  // Resolve the implementation source.
  std::string Source;
  if (!Req.SourceText.empty()) {
    Source = impls::preludeSource() + Req.SourceText;
    Case.ImplLabel = Req.Label.empty() ? "<source>" : Req.Label;
    Case.KindStr = Req.DataKind;
  } else if (!Req.ImplName.empty()) {
    const impls::ImplInfo *Info = impls::findImpl(Req.ImplName);
    if (!Info) {
      Case.Error = "unknown implementation '" + Req.ImplName + "'";
      return Case;
    }
    Source = impls::sourceFor(Req.ImplName);
    Case.ImplLabel = Req.ImplName;
    Case.KindStr = Info->Kind;
  } else {
    Case.Error = "request names no implementation (impl() or source())";
    return Case;
  }
  Case.FullSource = Source;

  // Resolve the test.
  if (!Req.Notation.empty()) {
    harness::OpAlphabet Alphabet = harness::alphabetFor(Case.KindStr);
    if (Alphabet.empty()) {
      Case.Error = Case.KindStr.empty()
                       ? "notation tests require dataType()"
                       : "unknown data-type kind '" + Case.KindStr + "'";
      return Case;
    }
    std::string Err;
    if (!harness::parseTestNotation(Req.Notation, Alphabet, Case.Test,
                                    Err)) {
      Case.Error = "bad test notation: " + Err;
      return Case;
    }
    Case.Test.Name = "custom";
  } else if (!Req.TestName.empty()) {
    if (!harness::catalogTest(Req.TestName, Case.Test, Case.Error))
      return Case;
  } else {
    Case.Error = "request names no test (test() or notation())";
    return Case;
  }

  // Compile the implementation with the requested variant, plus the
  // reference implementation for refset specification mining.
  harness::RunOptions Opts;
  Opts.StripFences = Req.StripAllFences;
  Opts.StripFenceLines.insert(Req.StripLines.begin(), Req.StripLines.end());
  Opts.Defines.insert(Req.Defines.begin(), Req.Defines.end());
  if (Req.UseRefSpec) {
    if (harness::alphabetFor(Case.KindStr).empty()) {
      Case.Error = "refSpec() requires a known data-type kind";
      return Case;
    }
    Opts.SpecSource = impls::referenceFor(Case.KindStr);
  }
  if (!harness::compileTest(Source, Case.Test, Opts, Case.Compiled,
                            Case.Error))
    return Case;
  Case.Ok = true;
  return Case;
}

bool checkfence::api::checkOptionsFrom(const Request &Req,
                                       checker::CheckOptions &Out,
                                       std::string &Error) {
  Out = checker::CheckOptions{}; // the one defaults instance
  if (!Req.ModelName.empty()) {
    auto M = memmodel::modelFromName(Req.ModelName);
    if (!M) {
      Error = "unknown model '" + Req.ModelName + "'";
      return false;
    }
    Out.Model = *M;
  }
  if (Req.UseRangeAnalysis)
    Out.RangeAnalysis = *Req.UseRangeAnalysis;
  if (Req.MaxBoundIterations)
    Out.MaxBoundIterations = *Req.MaxBoundIterations;
  if (Req.MaxProbes)
    Out.MaxProbes = *Req.MaxProbes;
  if (Req.ConflictBudget)
    Out.ConflictBudget = *Req.ConflictBudget;
  Out.Fresh = Req.Fresh;
  // Oracle pruning only decides which machinery produces the (identical)
  // answer, so it stays out of optionsFingerprint - cached results are
  // shared either way.
  Out.OraclePrune = Req.UseFastOracle;
  // The static robustness pruner shares the oracle's contract (and its
  // request switch): identical results, so never fingerprinted.
  Out.AnalysisPrune = Req.UseFastOracle;
  return true;
}

std::string checkfence::api::optionsFingerprint(
    const checker::CheckOptions &O) {
  return formatString(
      "%s|ra%d|it%d|pr%d|cb%lld|obs%llu|%s", O.Model.str().c_str(),
      O.RangeAnalysis ? 1 : 0, O.MaxBoundIterations, O.MaxProbes,
      static_cast<long long>(O.ConflictBudget),
      static_cast<unsigned long long>(O.MaxObservations),
      O.Fresh ? "fresh" : "session");
}

Result checkfence::api::convertResult(const checker::CheckResult &R,
                                      const std::string &ImplLabel,
                                      const std::string &TestName,
                                      const std::string &ModelName) {
  Result Out;
  Out.Verdict = toStatus(R.Status);
  Out.Message = R.Message;
  Out.Impl = ImplLabel;
  Out.Test = TestName;
  Out.Model = ModelName;
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
  Out.Stats.ObservationCount = S.ObservationCount;
  Out.Stats.BoundIterations = S.BoundIterations;
  Out.Stats.UnrolledInstrs = S.Inclusion.UnrolledInstrs;
  Out.Stats.Loads = S.Inclusion.Loads;
  Out.Stats.Stores = S.Inclusion.Stores;
  Out.Stats.SatVars = S.Inclusion.SatVars;
  Out.Stats.SatClauses =
      static_cast<unsigned long long>(S.Inclusion.SatClauses);
  Out.Stats.EncodeSeconds = S.Inclusion.EncodeSeconds;
  Out.Stats.SolveSeconds = S.Inclusion.SolveSeconds;
  Out.Stats.MiningSeconds = S.MiningSeconds;
  Out.Stats.IncludeSeconds = S.IncludeSeconds;
  Out.Stats.ProbeSeconds = S.ProbeSeconds;
  Out.Stats.TotalSeconds = S.TotalSeconds;
  Out.Stats.OracleAttempts = S.OracleAttempts;
  Out.Stats.OracleDischarges = S.OracleDischarges;
  Out.Stats.OracleSeconds = S.OracleSeconds;
  Out.Stats.AnalysisAttempts = S.AnalysisAttempts;
  Out.Stats.AnalysisDischarges = S.AnalysisDischarges;
  Out.Stats.AnalysisSeconds = S.AnalysisSeconds;
  for (const auto &[Loop, Bound] : R.FinalBounds)
    Out.FinalBounds[Loop] = Bound;
  return Out;
}

std::string checkfence::api::renderSingleCellJson(const Result &R,
                                                 bool IncludeTimings) {
  // The one-cell shape of engine::MatrixReport::json - the summary and
  // cell bodies come from the same renderers the matrix report uses, so
  // the schema has a single definition.
  auto Is = [&](Status S) { return R.Verdict == S ? 1 : 0; };
  std::string OS;
  OS += "{\n";
  OS += formatString("  \"schema_version\": %d,\n", JsonSchemaVersion);
  if (IncludeTimings)
    OS += formatString("  \"jobs\": %d,\n  \"wall_seconds\": %.3f,\n", 1,
                       R.Stats.TotalSeconds);
  OS += "  \"summary\": " +
        engine::renderReportSummary(
            Is(Status::Pass), Is(Status::Fail), Is(Status::SequentialBug),
            Is(Status::BoundsExhausted), Is(Status::Error),
            Is(Status::Cancelled)) +
        ",\n";
  OS += "  \"cells\": [\n";
  engine::ReportCellFields F;
  F.Impl = R.Impl;
  F.Test = R.Test;
  F.Model = R.Model;
  F.StatusName = statusName(R.Verdict);
  F.Message = R.Message;
  F.Observations = R.Stats.ObservationCount;
  F.BoundIterations = R.Stats.BoundIterations;
  F.UnrolledInstrs = R.Stats.UnrolledInstrs;
  F.Loads = R.Stats.Loads;
  F.Stores = R.Stats.Stores;
  F.SatVars = R.Stats.SatVars;
  F.SatClauses = R.Stats.SatClauses;
  F.HasCounterexample = R.HasCounterexample;
  F.Counterexample = R.CounterexampleObservation;
  if (IncludeTimings) {
    F.IncludeTimings = true;
    F.Seconds = R.Stats.TotalSeconds;
    F.EncodeSeconds = R.Stats.EncodeSeconds;
    F.SolveSeconds = R.Stats.SolveSeconds;
    F.MiningSeconds = R.Stats.MiningSeconds;
    F.IncludeSeconds = R.Stats.IncludeSeconds;
    F.ProbeSeconds = R.Stats.ProbeSeconds;
    F.OracleAttempts = R.Stats.OracleAttempts;
    F.OracleDischarges = R.Stats.OracleDischarges;
    F.OracleSeconds = R.Stats.OracleSeconds;
    F.AnalysisAttempts = R.Stats.AnalysisAttempts;
    F.AnalysisDischarges = R.Stats.AnalysisDischarges;
    F.AnalysisSeconds = R.Stats.AnalysisSeconds;
  }
  OS += "    " + engine::renderReportCell(F) + "\n";
  OS += "  ]\n";
  OS += "}\n";
  return OS;
}
