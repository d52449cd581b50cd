//===--- Verifier.cpp - the verification service -----------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checkfence/Verifier.h"

#include "analysis/CriticalCycles.h"
#include "api/ApiInternal.h"
#include "api/Cache.h"
#include "api/RunControl.h"
#include "checker/SolveContext.h"
#include "trans/Flattener.h"
#include "engine/MatrixRunner.h"
#include "engine/SpecStore.h"
#include "engine/WeakestModelSearch.h"
#include "explore/Explore.h"
#include "harness/Catalog.h"
#include "harness/FenceSynth.h"
#include "impls/Impls.h"
#include "obs/Trace.h"
#include "support/Fingerprint.h"
#include "support/Format.h"
#include "support/Timing.h"

#include <memory>

#include <atomic>
#include <vector>

using namespace checkfence;
using namespace checkfence::api;

namespace {

/// Per-request tracing scope. When the request asked for a trace file
/// this owns a fresh Tracer, installs it for the calling thread (worker
/// fan-out points re-install it in their threads), and writes the file
/// on destruction. When TraceFile is empty it is fully inert - in
/// particular it does NOT displace a tracer installed by an enclosing
/// scope (the checkfenced server installs one per traced RPC), so
/// library-internal reuse of the public entry points keeps tracing.
class TraceFileScope {
public:
  explicit TraceFileScope(const std::string &Path)
      : Path(Path), T(Path.empty() ? nullptr : new obs::Tracer()),
        Ctx(T.get()) {}
  ~TraceFileScope() {
    if (T)
      T->writeFile(Path);
  }
  obs::Tracer *tracer() { return T.get(); }

private:
  std::string Path;
  std::unique_ptr<obs::Tracer> T;
  obs::TraceContext Ctx;
};

/// Wires a sink + control into the engine's hook structure.
checker::CheckHooks makeHooks(const std::string &Label, EventSink *Sink,
                              const RunControl &Control) {
  checker::CheckHooks Hooks;
  Hooks.Cancelled = [Control] { return Control.stopRequested(); };
  if (Sink) {
    Hooks.OnRoundStarted = [Label, Sink](int Round) {
      Sink->onRoundStarted({Label, Round});
    };
    Hooks.OnObservationsMined = [Label, Sink](int Count) {
      Sink->onObservationsMined({Label, Count});
    };
    Hooks.OnBoundGrown = [Label, Sink](const std::string &Loop, int B) {
      Sink->onBoundGrown({Label, Loop, B});
    };
  }
  return Hooks;
}

void fireVerdict(EventSink *Sink, const std::string &Label, Status S,
                 const std::string &Message, bool FromCache) {
  if (Sink)
    Sink->onVerdict({Label, S, Message, FromCache});
}

/// A ready-made Cancelled result for cells whose run was never started
/// (the stop request arrived first) - skips the per-cell compile.
checker::CheckResult cancelledCell() {
  checker::CheckResult R;
  R.Status = Status::Cancelled;
  R.Message = "check cancelled";
  return R;
}

/// The check of one catalog cell for matrix and weakest-model requests:
/// catalogCellRunner over \p Opts and the request's compile options, plus
/// the request's stop check, the cell's progress hooks and, for
/// refSpec(), the reference implementation of the cell's data-type kind
/// to mine the specification from. An unknown implementation keeps an
/// empty SpecSource (referenceFor aborts on unknown kinds);
/// catalogCellRunner reports it as an error cell.
engine::CellFn cellRunner(const Request &Req,
                          const checker::CheckOptions &Opts, EventSink *Sink,
                          const RunControl &Control) {
  harness::RunOptions Base;
  Base.Check = Opts;
  Base.StripFences = Req.StripAllFences;
  Base.StripFenceLines.insert(Req.StripLines.begin(), Req.StripLines.end());
  Base.Defines.insert(Req.Defines.begin(), Req.Defines.end());
  return [Base, RefSpec = Req.UseRefSpec, Sink,
          Control](const engine::MatrixCell &Cell) -> checker::CheckResult {
    if (Control.stopRequested())
      return cancelledCell();
    harness::RunOptions O = Base;
    O.Check.Hooks = makeHooks(Cell.label(), Sink, Control);
    if (RefSpec)
      if (const impls::ImplInfo *Info = impls::findImpl(Cell.Impl))
        O.SpecSource = impls::referenceFor(Info->Kind);
    return harness::catalogCellRunner(O)(Cell);
  };
}

/// Expands model-axis strings ("tso", "po:ll,fwd", "all", "lattice");
/// empty input falls back to \p Fallback. False + Error on bad names.
bool resolveModelAxis(const std::vector<std::string> &Names,
                      memmodel::ModelParams Fallback,
                      std::vector<memmodel::ModelParams> &Out,
                      std::string &Error) {
  for (const std::string &M : Names) {
    if (M == "all") {
      for (const memmodel::NamedModel &N : memmodel::namedModels())
        Out.push_back(N.Params);
      continue;
    }
    if (M == "lattice") {
      for (const memmodel::ModelParams &P : memmodel::latticeModels())
        Out.push_back(P);
      continue;
    }
    auto K = memmodel::modelFromName(M);
    if (!K) {
      Error = "unknown model '" + M + "'";
      return false;
    }
    Out.push_back(*K);
  }
  if (Out.empty())
    Out.push_back(Fallback);
  return true;
}

Result errorResult(const Request &Req, std::string Message);

/// Error results are terminal verdicts too: consumers correlating
/// requests with onVerdict events must see one even when the request
/// never ran.
Result failRequest(const Request &Req, EventSink *Sink,
                   std::string Message) {
  Result R = errorResult(Req, std::move(Message));
  fireVerdict(Sink, R.Impl + ":" + R.Test + ":" + R.Model,
              Status::Error, R.Message, false);
  return R;
}

Result errorResult(const Request &Req, std::string Message) {
  Result R;
  R.Verdict = Status::Error;
  R.Message = std::move(Message);
  R.Impl = !Req.ImplName.empty()
               ? Req.ImplName
               : (Req.Label.empty() ? "<source>" : Req.Label);
  R.Test = Req.TestName.empty() ? "custom" : Req.TestName;
  // Canonical model name where possible, matching the success paths
  // (empty request model = the library default).
  if (Req.ModelName.empty())
    R.Model = memmodel::modelName(checker::CheckOptions{}.Model);
  else if (auto M = memmodel::modelFromName(Req.ModelName))
    R.Model = memmodel::modelName(*M);
  else
    R.Model = Req.ModelName; // the unresolvable name the error is about
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Verifier::Impl - the result cache
//===----------------------------------------------------------------------===//

struct Verifier::Impl {
  VerifierConfig Cfg;
  ResultCache Cache;

  int jobsFor(const Request &Req) const {
    int J = Req.Jobs > 0 ? Req.Jobs : Cfg.Jobs;
    return J < 1 ? 1 : J;
  }
};

Verifier::Verifier(VerifierConfig Config)
    : Self(std::make_unique<Impl>()) {
  Self->Cfg = std::move(Config);
  if (Self->Cfg.EnableCache && !Self->Cfg.CachePath.empty())
    Self->Cache.load(Self->Cfg.CachePath);
}

Verifier::~Verifier() {
  // save() refuses to overwrite a file that is not a cache.
  if (Self->Cfg.EnableCache && !Self->Cfg.CachePath.empty())
    Self->Cache.save(Self->Cfg.CachePath);
}

CacheStats Verifier::cacheStats() const { return Self->Cache.stats(); }

void Verifier::clearCache() { Self->Cache.clear(); }

bool Verifier::loadCache(const std::string &Path) {
  std::string Source = Path.empty() ? Self->Cfg.CachePath : Path;
  if (Source.empty())
    return false;
  return Self->Cache.load(Source);
}

bool Verifier::saveCache(const std::string &Path) const {
  std::string Target = Path.empty() ? Self->Cfg.CachePath : Path;
  if (Target.empty())
    return false;
  return Self->Cache.save(Target);
}

PoolStats Verifier::poolStats() const { return PoolStats{}; }

//===----------------------------------------------------------------------===//
// Single checks
//===----------------------------------------------------------------------===//

Result Verifier::check(const Request &Req, EventSink *Sink,
                       CancelToken Token) {
  TraceFileScope Trace(Req.TraceFile);
  obs::Span RequestSpan("request", "request:check");
  checker::CheckOptions Opts;
  std::string Error;
  if (!checkOptionsFrom(Req, Opts, Error))
    return failRequest(Req, Sink, Error);

  CompiledCase Case = buildCase(Req);
  if (!Case.Ok)
    return failRequest(Req, Sink, Case.Error);

  const harness::CompiledTest &C = Case.Compiled;
  const std::string ModelStr = memmodel::modelName(Opts.Model);
  const std::string Label =
      Case.ImplLabel + ":" + Case.Test.Name + ":" + ModelStr;
  // Fingerprint the lowered programs (not the source text): stripping a
  // fence, flipping a define, or changing the test all land here.
  const std::string ProgramFp =
      support::loweredProgramFingerprint(C.Impl, C.Threads, C.spec());
  const std::string Key = ProgramFp + "|" + optionsFingerprint(Opts);
  const bool Caching = Self->Cfg.EnableCache && Req.UseCache;

  if (Caching) {
    if (std::optional<Result> Hit = Self->Cache.lookup(Key)) {
      fireVerdict(Sink, Label, Hit->Verdict, Hit->Message, true);
      return *Hit;
    }
    // Miss with a matching program fingerprint: seed the lazy unrolling
    // from the earlier passing run's final bounds (Fig. 10 workflow).
    if (auto Bounds = Self->Cache.boundsFor(ProgramFp)) {
      for (const auto &[Loop, Bound] : *Bounds)
        Opts.InitialBounds[Loop] = Bound;
      Self->Cache.noteSeed();
    }
  }

  RunControl Control = RunControl::make(Token, Req.DeadlineSeconds);
  Opts.Hooks = makeHooks(Label, Sink, Control);

  // One fresh session per check: a check never sees solver state left by
  // another, so a noCache() re-run reproduces its timing-free JSON byte
  // for byte. Sharing across checks is the result cache's job.
  checker::CheckResult R =
      checker::runCheck(C.Impl, C.Threads, Opts, C.spec());

  Result Out =
      engine::convertResult(R, Case.ImplLabel, Case.Test.Name, ModelStr);
  if (Out.Verdict == Status::Cancelled && Control.expired() &&
      !Token.cancelled())
    Out.Message = "deadline exceeded";
  if (Caching && Out.Verdict != Status::Cancelled)
    Self->Cache.insert(Key, ProgramFp, Out);
  fireVerdict(Sink, Label, Out.Verdict, Out.Message, false);
  return Out;
}

//===----------------------------------------------------------------------===//
// Batched matrices and sweeps
//===----------------------------------------------------------------------===//

Report Verifier::matrix(const Request &Req, EventSink *Sink,
                        CancelToken Token) {
  TraceFileScope Trace(Req.TraceFile);
  obs::Span RequestSpan("request", "request:matrix");
  auto Fail = [Sink](std::string Message) {
    fireVerdict(Sink, "matrix", Status::Error, Message, false);
    return Report::makeError(std::move(Message));
  };
  checker::CheckOptions Opts;
  std::string Error;
  if (!checkOptionsFrom(Req, Opts, Error))
    return Fail(Error);

  std::vector<memmodel::ModelParams> Models;
  if (Req.RequestKind == Request::Kind::Sweep) {
    for (const memmodel::ModelParams &P : memmodel::latticeModels())
      Models.push_back(P);
  } else if (!resolveModelAxis(Req.Models, Opts.Model, Models, Error)) {
    return Fail(Error);
  }

  std::vector<engine::MatrixCell> Cells =
      harness::expandMatrix(Req.Impls, Req.Tests, Models);
  if (Cells.empty())
    return Fail("matrix is empty (check impls/tests)");

  // The cells of one program differ in model only, so they mine each
  // specification once; the store dies with the request.
  engine::SpecStore Specs;
  Opts.Specs = &Specs;

  RunControl Control = RunControl::make(Token, Req.DeadlineSeconds);
  engine::CellFn Run = cellRunner(Req, Opts, Sink, Control);
  std::atomic<size_t> Finished{0};
  const size_t Total = Cells.size();

  // Matrix cells skip the result cache and its cross-request bounds
  // seeding, so the timing-free report stays byte-identical across cache
  // states. The runner seeds a cell only from its own program's stronger
  // passing cells, which run before it on the same job, so the report is
  // byte-identical across job counts too (freshPipeline() never seeds).
  engine::CellFn Fn =
      [&Run, Sink, Control, &Finished,
       Total](const engine::MatrixCell &Cell) -> checker::CheckResult {
    if (Control.stopRequested()) {
      // Skipped cells still complete the progress contract: Finished
      // reaches Total even when a deadline wipes out the tail.
      if (Sink)
        Sink->onCellFinished({Cell.label(), Finished.fetch_add(1) + 1,
                              Total, Status::Cancelled, 0});
      return cancelledCell();
    }
    Timer T;
    checker::CheckResult R = Run(Cell);
    if (Sink)
      Sink->onCellFinished({Cell.label(), Finished.fetch_add(1) + 1,
                            Total, R.Status, T.seconds()});
    return R;
  };

  auto Rep = std::make_shared<engine::MatrixReport>(
      engine::MatrixRunner(Self->jobsFor(Req)).run(Cells, Fn));
  Status Overall =
      Control.stopRequested()
          ? Status::Cancelled
          : (Rep->allCompleted() ? Status::Pass : Status::Error);
  fireVerdict(Sink, "matrix", Overall,
              formatString("%d cells", static_cast<int>(Total)), false);
  return Report(std::move(Rep));
}

//===----------------------------------------------------------------------===//
// Weakest-model search
//===----------------------------------------------------------------------===//

WeakestOutcome Verifier::weakestModels(const Request &Req,
                                       EventSink *Sink,
                                       CancelToken Token) {
  TraceFileScope Trace(Req.TraceFile);
  obs::Span RequestSpan("request", "request:weakest");
  WeakestOutcome Out;
  Out.Impl = Req.ImplName;
  Out.Test = Req.TestName;
  // One terminal verdict per request, setup failures included (see
  // failRequest).
  const std::string Label = Req.ImplName + ":" + Req.TestName + ":weakest";
  auto Fail = [&]() -> WeakestOutcome & {
    fireVerdict(Sink, Label, Status::Error, Out.Error, false);
    return Out;
  };
  if (!impls::findImpl(Req.ImplName)) {
    Out.Error = "unknown implementation '" + Req.ImplName + "'";
    return Fail();
  }
  if (!harness::findCatalogEntry(Req.TestName)) {
    Out.Error = "unknown catalog test '" + Req.TestName + "'";
    return Fail();
  }
  checker::CheckOptions Opts;
  if (!checkOptionsFrom(Req, Opts, Out.Error))
    return Fail();

  // The lattice walk is sequential (each verdict prunes the next
  // frontier) and runs on the calling thread.
  engine::SpecStore Specs; // shared by every step of the walk
  Opts.Specs = &Specs;
  RunControl Control = RunControl::make(Token, Req.DeadlineSeconds);

  std::vector<memmodel::ModelParams> Lattice;
  if (!Req.Models.empty()) {
    if (!resolveModelAxis(Req.Models, Opts.Model, Lattice, Out.Error))
      return Fail();
  } else {
    Lattice = memmodel::latticeModels();
  }

  engine::WeakestSummary S =
      engine::WeakestModelSearch(Lattice).run(
          Req.ImplName, Req.TestName, cellRunner(Req, Opts, Sink, Control));
  for (const memmodel::ModelParams &M : S.Weakest)
    Out.Weakest.push_back(memmodel::modelName(M));
  Out.ModelsPassed = S.ModelsPassed;
  Out.ModelsChecked = S.ModelsChecked;
  Out.CellsRun = S.CellsRun;
  Out.CellsInferred = S.CellsInferred;
  Out.Cancelled = Control.stopRequested();
  Out.Ok = true;
  fireVerdict(Sink, Label, Out.Cancelled ? Status::Cancelled : Status::Pass,
              formatString("%d of %d models pass", Out.ModelsPassed,
                           Out.ModelsChecked),
              false);
  return Out;
}

//===----------------------------------------------------------------------===//
// Fence synthesis
//===----------------------------------------------------------------------===//

SynthOutcome Verifier::synthesize(const Request &Req, EventSink *Sink,
                                  CancelToken Token) {
  TraceFileScope Trace(Req.TraceFile);
  obs::Span RequestSpan("request", "request:synth");
  SynthOutcome Out;
  // Setup failures are terminal verdicts too (see failRequest).
  auto Fail = [&]() -> SynthOutcome & {
    fireVerdict(Sink, Req.ImplName + ":synth", Status::Error,
                Out.Message, false);
    return Out;
  };
  checker::CheckOptions Opts;
  if (!checkOptionsFrom(Req, Opts, Out.Message))
    return Fail();
  // Synthesis always mines from the candidate placement itself.
  if (Req.UseRefSpec) {
    Out.Message = "refSpec() is not supported by fence synthesis";
    return Fail();
  }

  // Resolve the source and the tests (one, or a Tests list).
  Request Probe = Req;
  std::vector<std::string> TestNames = Req.Tests;
  if (TestNames.empty() && !Req.TestName.empty())
    TestNames.push_back(Req.TestName);
  if (TestNames.empty() && Req.Notation.empty()) {
    Out.Message = "synthesis request names no test";
    return Fail();
  }
  if (!TestNames.empty())
    Probe.TestName = TestNames[0];
  CompiledCase Case = buildCase(Probe);
  if (!Case.Ok) {
    Out.Message = Case.Error;
    return Fail();
  }

  std::vector<harness::TestSpec> Tests;
  if (!Req.Notation.empty()) {
    Tests.push_back(Case.Test);
  } else {
    for (const std::string &Name : TestNames) {
      harness::TestSpec Spec;
      if (!harness::catalogTest(Name, Spec, Out.Message))
        return Fail();
      Tests.push_back(std::move(Spec));
    }
  }

  harness::SynthOptions SO;
  SO.Check = Opts;
  SO.Defines.insert(Req.Defines.begin(), Req.Defines.end());
  SO.Jobs = Self->jobsFor(Req);
  // Every candidate placement differs in fences only: one mine per
  // (test, bounds) serves the whole search.
  engine::SpecStore Specs;
  SO.Check.Specs = &Specs;

  RunControl Control = RunControl::make(Token, Req.DeadlineSeconds);
  SO.Check.Hooks =
      makeHooks(Case.ImplLabel + ":synth", Sink, Control);

  harness::SynthResult S =
      harness::synthesizeFences(Case.FullSource, Tests, SO);
  Out.Success = S.Success;
  Out.Message = S.Message;
  for (const harness::FencePlacement &P : S.Fences)
    Out.Fences.push_back({P.Line, lsl::fenceKindName(P.Kind)});
  for (const harness::FencePlacement &P : S.Removed)
    Out.Removed.push_back({P.Line, lsl::fenceKindName(P.Kind)});
  Out.ChecksRun = S.ChecksRun;
  Out.TotalSeconds = S.TotalSeconds;
  Out.RepairSeconds = S.RepairSeconds;
  Out.MinimizeSeconds = S.MinimizeSeconds;
  Out.Log = S.Log;
  if (Control.stopRequested()) {
    // A stop mid-run poisons whatever phase it interrupted: repair-loop
    // probes come back Cancelled (non-pass), and minimization removal
    // probes read as refutations, silently skipping the necessity
    // checks. Never report such a run as a completed success.
    Out.Cancelled = true;
    Out.Success = false;
    Out.Message = "synthesis cancelled: " + Out.Message;
  }
  fireVerdict(Sink, Case.ImplLabel + ":synth",
              Out.Cancelled ? Status::Cancelled
                            : (Out.Success ? Status::Pass : Status::Error),
              Out.Message, false);
  return Out;
}

//===----------------------------------------------------------------------===//
// Static critical-cycle robustness analysis
//===----------------------------------------------------------------------===//

AnalysisOutcome Verifier::analyze(const Request &Req) {
  TraceFileScope Trace(Req.TraceFile);
  obs::Span RequestSpan("request", "request:analyze");
  AnalysisOutcome Out;

  // Model axis: explicit models() > a single model() > the full lattice
  // (the lint default: one verdict per relaxation point).
  std::vector<memmodel::ModelParams> Axis;
  if (!Req.Models.empty()) {
    if (!resolveModelAxis(Req.Models, checker::CheckOptions{}.Model, Axis,
                          Out.Error))
      return Out;
  } else if (!Req.ModelName.empty()) {
    auto M = memmodel::modelFromName(Req.ModelName);
    if (!M) {
      Out.Error = "unknown model '" + Req.ModelName + "'";
      return Out;
    }
    Axis.push_back(*M);
  } else {
    Axis = memmodel::latticeModels();
  }

  CompiledCase Case = buildCase(Req);
  if (!Case.Ok) {
    Out.Error = Case.Error;
    return Out;
  }
  Out.Impl = Case.ImplLabel;
  Out.Test = Case.Test.Name.empty() ? Req.TestName : Case.Test.Name;

  // One flattening at the default initial bounds serves every model row:
  // the graph construction is model-independent, only the delay set (and
  // with it the enforced-order closure) varies per row. Larger unrolling
  // bounds only replicate loop bodies, which adds instances of the same
  // static pairs, so the verdict is bound-independent.
  trans::FlatProgram Flat;
  trans::LoopBounds Bounds = checker::CheckOptions{}.InitialBounds;
  const harness::CompiledTest &C = Case.Compiled;
  trans::Flattener F(C.Impl, Flat, Bounds); // Flattener keeps a ref
  for (size_t T = 0; T < C.Threads.size(); ++T)
    if (!F.flattenThread(C.Threads[T], static_cast<int>(T))) {
      Out.Error = "flattening failed: " + F.error();
      return Out;
    }
  trans::RangeInfo Ranges = trans::analyzeRanges(Flat);
  for (const trans::FlatEvent &E : Flat.Events) {
    Out.Loads += E.isLoad();
    Out.Stores += E.isStore();
    Out.Fences += !E.isAccess();
  }

  // Cuts go where synthesis would place fences: after the prelude.
  analysis::AnalysisOptions AO;
  AO.MinLine = impls::firstImplLine(Case.FullSource);

  // The rows are independent and the results land in indexed slots, so
  // the fan-out is observation-free: any job count produces identical
  // outcomes (the --analyze determinism contract).
  Out.Models.resize(Axis.size());
  engine::parallelFor(Self->jobsFor(Req), Axis.size(), [&](size_t I) {
    const memmodel::ModelParams &M = Axis[I];
    AnalysisModelRow &Row = Out.Models[I];
    Row.Model = memmodel::modelName(M);
    Row.Descriptor = M.str();
    analysis::DelaySet D = analysis::delaySetFor(M);
    Row.DelayLoadLoad = D.LoadLoad;
    Row.DelayLoadStore = D.LoadStore;
    Row.DelayStoreLoad = D.StoreLoad;
    Row.DelayStoreStore = D.StoreStore;
    Row.Forwarding = D.Forwarding;
    Row.Eligible = analysis::analysisEligible(M);
    if (!Row.Eligible) {
      Row.Reason = M.SerialOps
                       ? "outside the analysis fragment: serial "
                         "operation granularity has no per-access "
                         "memory order"
                       : "outside the analysis fragment: no single "
                         "total memory order without multi-copy "
                         "atomicity";
      return;
    }
    analysis::RobustnessResult RR =
        analysis::analyzeRobustness(Flat, Ranges, M, AO);
    Row.Robust = RR.Robust;
    Row.Reason = RR.Reason;
    Row.DelayedPairs = RR.DelayedPairs;
    Row.CyclePairs = RR.CyclePairs;
    Row.CoherenceHazards = RR.CoherenceHazards;
    for (const analysis::CriticalCycle &C : RR.Cycles)
      Row.Cycles.push_back(C.str());
    for (const analysis::SuggestedCut &C : RR.Cuts)
      Row.Cuts.push_back({C.Line, lsl::fenceKindName(C.Kind)});
  });

  Out.Ok = true;
  return Out;
}

//===----------------------------------------------------------------------===//
// Randomized differential exploration
//===----------------------------------------------------------------------===//

ExploreOutcome Verifier::explore(const Request &Req, EventSink *Sink,
                                 CancelToken Token) {
  TraceFileScope Trace(Req.TraceFile);
  obs::Span RequestSpan("request", "request:explore");
  explore::ExploreOptions EO;
  EO.Seed = Req.ExploreSeed;
  EO.Budget = Req.ExploreBudget;
  EO.Jobs = Self->jobsFor(Req);
  EO.Shrink = Req.ExploreShrink;
  EO.CorpusDir = Req.CorpusDir;
  EO.Sink = Sink;
  // One stop check for the driver, the differential runner and, through
  // the remaining deadline, each inner engine check.
  EO.Control = RunControl::make(Token, Req.DeadlineSeconds);
  EO.Diff.UseFastOracle = Req.UseFastOracle;
  if (Req.SymbolicPerMille >= 0)
    EO.Limits.SymbolicPerMille = Req.SymbolicPerMille;

  // Empty = the explore default axis (sc/tso/relaxed), not the single
  // default model the other request kinds fall back to.
  std::string Error;
  if (!Req.Models.empty() &&
      !resolveModelAxis(Req.Models, checker::CheckOptions{}.Model,
                        EO.Models, Error)) {
    auto Rep = std::make_shared<explore::ExploreReport>();
    Rep->Ok = false;
    Rep->Error = Error;
    fireVerdict(Sink, "explore", Status::Error, Error, false);
    return ExploreOutcome(std::move(Rep));
  }

  auto Rep = std::make_shared<explore::ExploreReport>(
      explore::runExplore(*this, EO));
  Status Overall = !Rep->Ok ? Status::Error
                   : Rep->Cancelled
                       ? Status::Cancelled
                       : (Rep->Divergences.empty() ? Status::Pass
                                                   : Status::Fail);
  fireVerdict(Sink, "explore", Overall,
              formatString("%d scenarios, %d divergences", Rep->Run,
                           Rep->divergenceCount()),
              false);
  return ExploreOutcome(std::move(Rep));
}

//===----------------------------------------------------------------------===//
// Litmus reachability
//===----------------------------------------------------------------------===//

LitmusOutcome Verifier::observable(const Request &Req) {
  TraceFileScope Trace(Req.TraceFile);
  obs::Span RequestSpan("request", "request:litmus");
  LitmusOutcome Out;
  checker::CheckOptions Opts;
  if (!checkOptionsFrom(Req, Opts, Out.Error))
    return Out;
  if (Req.SourceText.empty() || Req.LitmusThreads.empty()) {
    Out.Error = "litmus requests need source() and at least one thread()";
    return Out;
  }

  harness::TestSpec Spec;
  Spec.Name = "litmus";
  for (const std::string &Op : Req.LitmusThreads)
    Spec.Threads.push_back({harness::OpSpec{Op, 0, false, false}});
  harness::RunOptions RO;
  RO.Defines.insert(Req.Defines.begin(), Req.Defines.end());
  harness::CompiledTest C;
  if (!harness::compileTest(Req.SourceText, Spec, RO, C, Out.Error))
    return Out;

  checker::ProblemConfig Cfg;
  Cfg.Model = Opts.Model;
  Cfg.RangeAnalysis = Opts.RangeAnalysis;
  Cfg.ConflictBudget = Opts.ConflictBudget;
  checker::SolveContext Ctx(C.Impl, C.Threads, {}, Cfg);
  checker::ProblemEncoding &Enc = Ctx.encoding();
  if (!Enc.ok()) {
    Out.Error = Enc.error();
    return Out;
  }
  const size_t Slots = Enc.flat().Observations.size();
  if (Req.ExpectedValues.size() != Slots) {
    Out.Error = formatString("litmus expects %zu observed values, got %zu",
                             Slots, Req.ExpectedValues.size());
    return Out;
  }
  checker::Observation O;
  for (long long V : Req.ExpectedValues)
    O.Values.push_back(lsl::Value::integer(V));
  Enc.requireObservation(O);
  sat::SolveResult R = Ctx.solve();
  if (R == sat::SolveResult::Unknown) {
    Out.Error = "solver budget exhausted";
    return Out;
  }
  Out.Ok = true;
  Out.Reachable = R == sat::SolveResult::Sat;
  return Out;
}
