//===--- ApiInternal.cpp - facade implementation helpers ---------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "api/ApiInternal.h"

#include "impls/Impls.h"
#include "support/Format.h"

using namespace checkfence;
using namespace checkfence::api;

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
