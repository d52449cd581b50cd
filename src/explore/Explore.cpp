//===--- Explore.cpp - the scenario-exploration driver -----------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "explore/Explore.h"

#include "engine/MatrixRunner.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Timing.h"

#include <atomic>

using namespace checkfence;
using namespace checkfence::explore;

namespace {

ExploreReport errorReport(ExploreReport Rep, std::string Message) {
  Rep.Ok = false;
  Rep.Error = std::move(Message);
  return Rep;
}

} // namespace

ExploreReport checkfence::explore::runExplore(Verifier &V,
                                              const ExploreOptions &Opts) {
  Timer Wall;
  ExploreReport Rep;
  Rep.Seed = Opts.Seed;
  Rep.Budget = Opts.Budget;
  Rep.Jobs = Opts.Jobs < 1 ? 1 : Opts.Jobs;

  if (Opts.Budget <= 0)
    return errorReport(std::move(Rep), "explore budget must be positive");

  std::vector<memmodel::ModelParams> Models = Opts.Models;
  if (Models.empty())
    Models = {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
              memmodel::ModelParams::relaxed()};
  for (const memmodel::ModelParams &M : Models) {
    if (!M.MultiCopyAtomic)
      return errorReport(std::move(Rep),
                         "explore cannot check non-multi-copy-atomic "
                         "model '" + memmodel::modelName(M) + "'");
    Rep.Models.push_back(memmodel::modelName(M));
  }

  Corpus Corp(Opts.CorpusDir);
  Corp.load();
  Generator Gen(Opts.Seed, Opts.Limits);

  //===------------------------------------------------------------===//
  // Generation + dedup: serial, in index order, so the selected set is
  // a pure function of (seed, limits, corpus contents).
  //===------------------------------------------------------------===//

  std::vector<Scenario> Selected;
  std::vector<std::string> Fingerprints;
  // In-run dedup is tracked separately from the corpus: a fingerprint
  // becomes corpus-seen only once its scenario actually ran, so a
  // cancelled run cannot permanently exclude never-checked scenarios
  // from future sessions.
  std::set<std::string> RunSeen;
  const int GenCap = Opts.Budget * 8 + 16;
  for (int Index = 0;
       static_cast<int>(Selected.size()) < Opts.Budget && Index < GenCap;
       ++Index) {
    if (Opts.Control.stopRequested()) {
      Rep.Cancelled = true;
      break;
    }
    Scenario S = Gen.at(Index);
    ++Rep.Generated;
    std::string Err;
    std::string Fp = scenarioFingerprint(S, Err);
    if (Fp.empty()) {
      // A generator bug: keep the scenario so the differential runner
      // reports the frontend error as a divergence.
      Fp = formatString("invalid-%d", Index);
    }
    if (Corp.seen(Fp) || !RunSeen.insert(Fp).second) {
      ++Rep.Deduplicated;
      continue;
    }
    Selected.push_back(std::move(S));
    Fingerprints.push_back(Fp);
  }

  //===------------------------------------------------------------===//
  // Differential phase: embarrassingly parallel, outcomes land at their
  // scenario's slot.
  //===------------------------------------------------------------===//

  DiffOptions Diff = Opts.Diff;
  Diff.Models = Models;
  Diff.Control = Opts.Control;
  DifferentialRunner Runner(V, Diff);

  std::vector<ScenarioOutcome> Outcomes(Selected.size());
  std::vector<double> Seconds(Selected.size(), 0);
  std::atomic<size_t> Finished{0};
  engine::parallelFor(
      Rep.Jobs, Selected.size(), [&](size_t I) {
        if (Opts.Control.stopRequested()) {
          Outcomes[I].Cancelled = true;
          return;
        }
        obs::Span ScenarioSpan(
            "explore", [&] { return "scenario:" + Selected[I].label(); });
        Timer T;
        Outcomes[I] = Runner.run(Selected[I]);
        Seconds[I] = T.seconds();
        if (Opts.Sink) {
          for (const Divergence &D : Outcomes[I].Divergences)
            Opts.Sink->onDivergenceFound(
                {Selected[I].label(), D.Kind, D.Model, D.Detail});
          Opts.Sink->onScenarioChecked(
              {Selected[I].label(), Finished.fetch_add(1) + 1,
               Selected.size(), !Outcomes[I].Divergences.empty(),
               Outcomes[I].Summary});
        }
      });

  //===------------------------------------------------------------===//
  // Aggregation + shrinking: serial, in index order.
  //===------------------------------------------------------------===//

  for (size_t I = 0; I < Selected.size(); ++I) {
    const Scenario &S = Selected[I];
    ScenarioOutcome &O = Outcomes[I];

    ScenarioRecord R;
    R.Index = S.Index;
    R.Label = S.label();
    R.Kind = S.K == Scenario::Kind::Litmus ? "litmus" : "symbolic";
    R.Summary = O.Summary;
    R.Skips = O.Skips;
    R.Seconds = Seconds[I];
    Rep.SkipEntries += static_cast<int>(O.Skips.size());
    if (O.Cancelled) {
      R.Result = "cancelled";
      Rep.Cancelled = true;
    } else if (!O.Divergences.empty()) {
      R.Result = "divergence";
    } else if (O.Ran) {
      R.Result = "ok";
    } else {
      R.Result = "skipped";
    }
    if (!O.Cancelled)
      Corp.note(Fingerprints[I]); // checked: remember across runs
    if (O.Ran)
      ++Rep.Run;
    Rep.Scenarios.push_back(std::move(R));

    if (O.Divergences.empty())
      continue;

    Divergence D = O.Divergences[0];
    Scenario Min = S;
    std::vector<memmodel::ModelParams> ReproModels = Models;
    bool Shrunk = false;
    if (Opts.Shrink && !Opts.Control.stopRequested()) {
      obs::Span ShrinkSpan("explore",
                           [&] { return "shrink:" + S.label(); });
      ShrinkResult SR = shrinkScenario(S, V, Diff);
      if (!SR.Repro.Kind.empty()) {
        Min = SR.Min;
        D = SR.Repro;
        ReproModels = SR.Models;
        if (SR.Steps > 0) {
          Shrunk = true;
          ++Rep.Shrunk;
        }
      }
    }

    ExploreDivergence DR;
    DR.Label = S.label();
    DR.Kind = D.Kind;
    DR.Model = D.Model;
    DR.Detail = D.Detail;
    DR.Shrunk = Shrunk;
    DR.Threads = Min.threadCount();
    DR.Ops = Min.opCount();
    Repro RP;
    std::string ReproErr;
    if (buildRepro(Min, D, ReproModels, RP, ReproErr)) {
      DR.Notation = RP.Notation;
      DR.Source = RP.Source;
      std::string FpErr;
      std::string Fp = scenarioFingerprint(Min, FpErr);
      if (!Fp.empty()) {
        std::string SaveErr;
        DR.ReproPath = Corp.saveRepro(RP, Fp, SaveErr);
        if (DR.ReproPath.empty() && !SaveErr.empty())
          Rep.Warnings.push_back("repro for " + DR.Label +
                                 " not persisted: " + SaveErr);
      }
    } else {
      Rep.Warnings.push_back("repro for " + DR.Label +
                             " not renderable: " + ReproErr);
    }
    Rep.Divergences.push_back(std::move(DR));
  }

  if (!Corp.persist())
    Rep.Warnings.push_back("corpus not persisted: cannot write " +
                           Opts.CorpusDir + "/seen.txt");
  Rep.WallSeconds = Wall.seconds();
  return Rep;
}

//===----------------------------------------------------------------------===//
// Report JSON
//===----------------------------------------------------------------------===//

std::string ExploreReport::json(bool IncludeTimings) const {
  using support::JsonArray;
  using support::JsonObject;
  using support::jsonQuote;

  std::string OS;
  OS += "{\n";
  OS += formatString("  \"schema_version\": %d,\n", JsonSchemaVersion);
  OS += "  \"kind\": \"explore\",\n";
  if (!Ok) {
    OS += "  \"error\": " + jsonQuote(Error) + "\n}\n";
    return OS;
  }
  OS += formatString("  \"seed\": %llu,\n", Seed);
  OS += formatString("  \"budget\": %d,\n", Budget);
  {
    JsonArray ModelsArr;
    for (const std::string &M : Models)
      ModelsArr.item(jsonQuote(M));
    OS += "  \"models\": " + ModelsArr.str() + ",\n";
  }
  if (IncludeTimings)
    OS += formatString("  \"jobs\": %d,\n  \"wall_seconds\": %.3f,\n",
                       Jobs, WallSeconds);
  {
    JsonObject Summary;
    Summary.field("generated", Generated)
        .field("deduplicated", Deduplicated)
        .field("run", Run)
        .field("skips", SkipEntries)
        .field("divergences", divergenceCount())
        .field("shrunk", Shrunk)
        .field("cancelled", Cancelled);
    OS += "  \"summary\": " + Summary.str() + ",\n";
  }
  {
    JsonArray Warn;
    for (const std::string &W : Warnings)
      Warn.item(jsonQuote(W));
    OS += "  \"warnings\": " + Warn.str() + ",\n";
  }
  OS += "  \"scenarios\": [\n";
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    const ScenarioRecord &R = Scenarios[I];
    JsonObject Cell;
    Cell.field("index", R.Index)
        .field("label", R.Label)
        .field("kind", R.Kind)
        .field("result", R.Result)
        .field("summary", R.Summary);
    JsonArray Skips;
    for (const std::string &S : R.Skips)
      Skips.item(jsonQuote(S));
    Cell.raw("skips", Skips.str());
    if (IncludeTimings)
      Cell.fixed("seconds", R.Seconds);
    OS += "    " + Cell.str() +
          (I + 1 < Scenarios.size() ? ",\n" : "\n");
  }
  OS += "  ],\n";
  OS += "  \"divergences\": [\n";
  for (size_t I = 0; I < Divergences.size(); ++I) {
    const ExploreDivergence &D = Divergences[I];
    JsonObject Cell;
    Cell.field("label", D.Label)
        .field("kind", D.Kind)
        .field("model", D.Model)
        .field("detail", D.Detail)
        .field("shrunk", D.Shrunk)
        .field("threads", D.Threads)
        .field("ops", D.Ops)
        .field("notation", D.Notation)
        .field("source", D.Source)
        .field("repro", D.ReproPath);
    OS += "    " + Cell.str() +
          (I + 1 < Divergences.size() ? ",\n" : "\n");
  }
  OS += "  ]\n";
  OS += "}\n";
  return OS;
}
