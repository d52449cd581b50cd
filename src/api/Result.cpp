//===--- Result.cpp - public result types ------------------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checkfence/Result.h"

#include "engine/MatrixRunner.h"
#include "explore/Explore.h"
#include "support/Format.h"
#include "support/Json.h"

using namespace checkfence;

const char *checkfence::statusName(Status S) {
  switch (S) {
  case Status::Pass:
    return "PASS";
  case Status::Fail:
    return "FAIL";
  case Status::SequentialBug:
    return "SEQUENTIAL-BUG";
  case Status::BoundsExhausted:
    return "BOUNDS-EXHAUSTED";
  case Status::Error:
    return "ERROR";
  case Status::Cancelled:
    return "CANCELLED";
  }
  return "<bad-status>";
}

int checkfence::exitCodeFor(Status S) {
  switch (S) {
  case Status::Pass:
    return 0;
  case Status::Fail:
    return 1;
  case Status::SequentialBug:
    return 2;
  case Status::BoundsExhausted:
    return 3;
  case Status::Error:
    return 4;
  case Status::Cancelled:
    return 5;
  }
  return 4;
}

std::string Result::json(bool IncludeTimings) const {
  // A one-cell matrix report: the report shell has one renderer. Its
  // identity fields come from this Result, so the cell stays default.
  engine::MatrixReport Rep;
  Rep.WallSeconds = Stats.TotalSeconds;
  Rep.Cells.push_back({engine::MatrixCell{}, *this, Stats.TotalSeconds});
  return Rep.json(IncludeTimings);
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

Report Report::makeError(std::string Message) {
  Report R;
  R.Err = std::move(Message);
  return R;
}

size_t Report::cellCount() const {
  return Rep ? Rep->Cells.size() : 0;
}

int Report::jobs() const { return Rep ? Rep->Jobs : 0; }

double Report::wallSeconds() const { return Rep ? Rep->WallSeconds : 0; }

int Report::count(Status S) const {
  return Rep ? Rep->countWithStatus(S) : 0;
}

bool Report::allCompleted() const {
  return Rep ? Rep->allCompleted() : false;
}

std::vector<Report::Cell> Report::cells() const {
  std::vector<Cell> Out;
  if (!Rep)
    return Out;
  Out.reserve(Rep->Cells.size());
  for (const engine::MatrixCellResult &C : Rep->Cells)
    Out.push_back({C.Result.Impl, C.Result.Test, C.Result.Model,
                   C.Result.Verdict, C.Result.Message, C.Seconds});
  return Out;
}

std::string Report::json(bool IncludeTimings) const {
  return Rep ? Rep->json(IncludeTimings) : std::string("{}\n");
}

std::string Report::table() const {
  return Rep ? Rep->table() : std::string();
}

//===----------------------------------------------------------------------===//
// SynthOutcome
//===----------------------------------------------------------------------===//

std::string SynthOutcome::json(bool IncludeTimings) const {
  support::JsonObject Obj;
  Obj.field("schema_version", JsonSchemaVersion)
      .field("success", Success)
      .field("message", Message)
      .field("checks", ChecksRun);
  if (IncludeTimings)
    Obj.fixed("seconds", TotalSeconds)
        .fixed("repair_seconds", RepairSeconds)
        .fixed("minimize_seconds", MinimizeSeconds);
  support::JsonArray Arr;
  for (const SynthFence &F : Fences) {
    support::JsonObject Fence;
    Fence.field("line", F.Line).field("kind", F.Kind);
    Arr.item(Fence);
  }
  Obj.raw("fences", Arr.str());
  return Obj.str() + "\n";
}

//===----------------------------------------------------------------------===//
// AnalysisOutcome
//===----------------------------------------------------------------------===//

bool AnalysisOutcome::allRobust() const {
  for (const AnalysisModelRow &Row : Models)
    if (Row.Eligible && !Row.Robust)
      return false;
  return true;
}

namespace {

/// "LL LS SL SS +fwd" - the delayable edge kinds of a row, "-" when the
/// point delays nothing (sc-strength).
std::string delaySetStr(const AnalysisModelRow &Row) {
  std::string S;
  auto Add = [&](bool On, const char *Tag) {
    if (!On)
      return;
    if (!S.empty())
      S += ' ';
    S += Tag;
  };
  Add(Row.DelayLoadLoad, "LL");
  Add(Row.DelayLoadStore, "LS");
  Add(Row.DelayStoreLoad, "SL");
  Add(Row.DelayStoreStore, "SS");
  if (S.empty())
    S = "-";
  if (Row.Forwarding)
    S += " +fwd";
  return S;
}

} // namespace

std::string AnalysisOutcome::json() const {
  // Multi-line scaffolding, one model row per line (the matrix-report
  // layout convention); everything inside a row uses the inline writers.
  std::string S;
  support::JsonObject Head;
  Head.field("schema_version", JsonSchemaVersion)
      .field("kind", "analysis")
      .field("ok", Ok);
  if (!Ok)
    Head.field("error", Error);
  Head.field("impl", Impl)
      .field("test", Test)
      .field("loads", Loads)
      .field("stores", Stores)
      .field("fences", Fences)
      .field("all_robust", allRobust());
  S += "{\n  " + Head.str().substr(1);
  S.erase(S.size() - 1); // drop the closing brace, the rows follow
  S += ",\n  \"models\": [\n";
  for (size_t I = 0; I < Models.size(); ++I) {
    const AnalysisModelRow &Row = Models[I];
    support::JsonObject Obj;
    Obj.field("model", Row.Model)
        .field("descriptor", Row.Descriptor)
        .field("eligible", Row.Eligible)
        .field("robust", Row.Robust);
    support::JsonObject Delays;
    Delays.field("load_load", Row.DelayLoadLoad)
        .field("load_store", Row.DelayLoadStore)
        .field("store_load", Row.DelayStoreLoad)
        .field("store_store", Row.DelayStoreStore)
        .field("forwarding", Row.Forwarding);
    Obj.raw("delays", Delays.str())
        .field("delayed_pairs", Row.DelayedPairs)
        .field("cycle_pairs", Row.CyclePairs)
        .field("coherence_hazards", Row.CoherenceHazards)
        .field("reason", Row.Reason);
    support::JsonArray Cycles;
    for (const std::string &C : Row.Cycles)
      Cycles.item(support::jsonQuote(C));
    Obj.raw("cycles", Cycles.str());
    support::JsonArray Cuts;
    for (const SynthFence &F : Row.Cuts) {
      support::JsonObject Cut;
      Cut.field("line", F.Line).field("kind", F.Kind);
      Cuts.item(Cut);
    }
    Obj.raw("suggested_cuts", Cuts.str());
    S += "    " + Obj.str() + (I + 1 < Models.size() ? ",\n" : "\n");
  }
  S += "  ]\n}\n";
  return S;
}

std::string AnalysisOutcome::table() const {
  if (!Ok)
    return "analysis error: " + Error + "\n";
  std::string S = formatString(
      "critical-cycle analysis: %s %s (%d loads, %d stores, %d fences)\n",
      Impl.c_str(), Test.c_str(), Loads, Stores, Fences);
  S += formatString("%-10s %-16s %-14s %-11s %6s %6s %4s\n",
                             "model", "descriptor", "delays", "verdict",
                             "pairs", "cycles", "coh");
  for (const AnalysisModelRow &Row : Models) {
    const char *Verdict = !Row.Eligible ? "n/a"
                          : Row.Robust  ? "robust"
                                        : "NOT ROBUST";
    S += formatString(
        "%-10s %-16s %-14s %-11s %6d %6d %4d\n", Row.Model.c_str(),
        Row.Descriptor.c_str(), delaySetStr(Row).c_str(), Verdict,
        Row.DelayedPairs, Row.CyclePairs, Row.CoherenceHazards);
  }
  for (const AnalysisModelRow &Row : Models) {
    if (Row.Cycles.empty() && Row.Cuts.empty())
      continue;
    S += formatString("\n%s: %s\n", Row.Model.c_str(),
                               Row.Reason.c_str());
    for (const std::string &C : Row.Cycles)
      S += "  cycle: " + C + "\n";
    for (const SynthFence &F : Row.Cuts)
      S += formatString("  cut: %s fence before line %d\n",
                                 F.Kind.c_str(), F.Line);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// ExploreOutcome - thin view over explore::ExploreReport
//===----------------------------------------------------------------------===//

bool ExploreOutcome::ok() const { return Rep && Rep->Ok; }

const std::string &ExploreOutcome::error() const {
  static const std::string NoReport = "no explore report";
  return Rep ? Rep->Error : NoReport;
}

bool ExploreOutcome::cancelled() const { return Rep && Rep->Cancelled; }

unsigned long long ExploreOutcome::seed() const {
  return Rep ? Rep->Seed : 0;
}

int ExploreOutcome::generated() const { return Rep ? Rep->Generated : 0; }

int ExploreOutcome::deduplicated() const {
  return Rep ? Rep->Deduplicated : 0;
}

int ExploreOutcome::run() const { return Rep ? Rep->Run : 0; }

int ExploreOutcome::skips() const { return Rep ? Rep->SkipEntries : 0; }

int ExploreOutcome::shrunk() const { return Rep ? Rep->Shrunk : 0; }

double ExploreOutcome::wallSeconds() const {
  return Rep ? Rep->WallSeconds : 0;
}

std::vector<std::string> ExploreOutcome::warnings() const {
  return Rep ? Rep->Warnings : std::vector<std::string>();
}

std::vector<ExploreDivergence> ExploreOutcome::divergences() const {
  return Rep ? Rep->Divergences : std::vector<ExploreDivergence>();
}

std::string ExploreOutcome::json(bool IncludeTimings) const {
  if (!Rep)
    return "{}\n";
  return Rep->json(IncludeTimings);
}
