//===--- Wire.cpp - JSON wire codecs for the daemon protocol ------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "server/Wire.h"

#include "support/Format.h"
#include "support/Json.h"

using namespace checkfence;
using namespace checkfence::server;
using support::JsonArray;
using support::JsonObject;
using support::JsonValue;

namespace {

std::string quotedList(const std::vector<std::string> &Items) {
  JsonArray A;
  for (const std::string &S : Items)
    A.item(support::jsonQuote(S));
  return A.str();
}

void readStringList(const JsonValue &Obj, const char *Key,
                    std::vector<std::string> &Out) {
  const JsonValue *V = Obj.find(Key);
  if (!V || !V->isArray())
    return;
  for (const JsonValue &Item : V->Items)
    Out.push_back(Item.asString());
}

const JsonValue *member(const JsonValue &Obj, const char *Key) {
  return Obj.isObject() ? Obj.find(Key) : nullptr;
}

std::string str(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = member(Obj, Key);
  return V ? V->asString() : std::string();
}

bool boolean(const JsonValue &Obj, const char *Key, bool Default) {
  const JsonValue *V = member(Obj, Key);
  return V ? V->asBool(Default) : Default;
}

int integer(const JsonValue &Obj, const char *Key, int Default = 0) {
  const JsonValue *V = member(Obj, Key);
  return V ? V->asInt(Default) : Default;
}

double dbl(const JsonValue &Obj, const char *Key, double Default = 0) {
  const JsonValue *V = member(Obj, Key);
  return V ? V->asDouble(Default) : Default;
}

std::optional<Status> statusFromName(const std::string &Name) {
  for (Status S : {Status::Pass, Status::Fail, Status::SequentialBug,
                   Status::BoundsExhausted, Status::Error,
                   Status::Cancelled})
    if (Name == statusName(S))
      return S;
  return std::nullopt;
}

const char *kindName(Request::Kind K) {
  switch (K) {
  case Request::Kind::Check:
    return "check";
  case Request::Kind::Matrix:
    return "matrix";
  case Request::Kind::Sweep:
    return "sweep";
  case Request::Kind::WeakestModel:
    return "weakestModel";
  case Request::Kind::Synthesis:
    return "synthesis";
  case Request::Kind::Litmus:
    return "litmus";
  case Request::Kind::Explore:
    return "explore";
  case Request::Kind::Analyze:
    return "analyze";
  }
  return "check";
}

std::string encodeFences(const std::vector<SynthFence> &Fences) {
  JsonArray A;
  for (const SynthFence &F : Fences)
    A.item(JsonObject().field("line", F.Line).field("kind", F.Kind));
  return A.str();
}

void decodeFences(const JsonValue &Obj, const char *Key,
                  std::vector<SynthFence> &Out) {
  const JsonValue *V = member(Obj, Key);
  if (!V || !V->isArray())
    return;
  for (const JsonValue &Item : V->Items)
    Out.push_back({integer(Item, "line"), str(Item, "kind")});
}

} // namespace

std::string checkfence::server::wireDouble(double V) {
  return formatString("%.17g", V);
}

std::string checkfence::server::encodeRequest(const Request &Req) {
  JsonObject O;
  O.field("kind", kindName(Req.RequestKind));
  O.field("impl", Req.ImplName);
  O.field("source", Req.SourceText);
  O.field("label", Req.Label);
  O.field("dataKind", Req.DataKind);
  O.field("test", Req.TestName);
  O.field("notation", Req.Notation);
  O.field("model", Req.ModelName);
  O.raw("impls", quotedList(Req.Impls));
  O.raw("tests", quotedList(Req.Tests));
  O.raw("models", quotedList(Req.Models));
  O.raw("litmusThreads", quotedList(Req.LitmusThreads));
  {
    JsonArray A;
    for (long long V : Req.ExpectedValues)
      A.item(formatString("%lld", V));
    O.raw("expect", A.str());
  }
  O.raw("defines", quotedList(Req.Defines));
  O.field("stripFences", Req.StripAllFences);
  {
    JsonArray A;
    for (int L : Req.StripLines)
      A.item(formatString("%d", L));
    O.raw("stripLines", A.str());
  }
  O.field("refSpec", Req.UseRefSpec);
  if (Req.UseRangeAnalysis)
    O.field("rangeAnalysis", *Req.UseRangeAnalysis);
  if (Req.MaxBoundIterations)
    O.field("maxBoundIterations", *Req.MaxBoundIterations);
  if (Req.MaxProbes)
    O.field("maxProbes", *Req.MaxProbes);
  if (Req.ConflictBudget)
    O.field("conflictBudget", *Req.ConflictBudget);
  O.field("fresh", Req.Fresh);
  O.field("jobs", Req.Jobs);
  O.field("fastOracle", Req.UseFastOracle);
  O.raw("deadlineSeconds", wireDouble(Req.DeadlineSeconds));
  O.field("useCache", Req.UseCache);
  O.field("traceFile", Req.TraceFile);
  O.field("synthStrip", Req.SynthStrip);
  if (Req.SynthMinLine)
    O.field("synthMinLine", *Req.SynthMinLine);
  if (Req.SynthMaxFences)
    O.field("synthMaxFences", *Req.SynthMaxFences);
  O.field("synthMinimize", Req.SynthMinimize);
  O.field("exploreSeed", static_cast<unsigned long long>(Req.ExploreSeed));
  O.field("exploreBudget", Req.ExploreBudget);
  O.field("exploreShrink", Req.ExploreShrink);
  O.field("corpusDir", Req.CorpusDir);
  O.field("oracleSamplePeriod", Req.OracleSamplePeriod);
  O.field("symbolicPerMille", Req.SymbolicPerMille);
  return O.str();
}

bool checkfence::server::decodeRequest(const JsonValue &V, Request &Out,
                                       std::string &Error) {
  if (!V.isObject()) {
    Error = "params must be a request object";
    return false;
  }
  std::string Kind = str(V, "kind");
  if (Kind == "check")
    Out.RequestKind = Request::Kind::Check;
  else if (Kind == "matrix")
    Out.RequestKind = Request::Kind::Matrix;
  else if (Kind == "sweep")
    Out.RequestKind = Request::Kind::Sweep;
  else if (Kind == "weakestModel")
    Out.RequestKind = Request::Kind::WeakestModel;
  else if (Kind == "synthesis")
    Out.RequestKind = Request::Kind::Synthesis;
  else if (Kind == "litmus")
    Out.RequestKind = Request::Kind::Litmus;
  else if (Kind == "explore")
    Out.RequestKind = Request::Kind::Explore;
  else if (Kind == "analyze")
    Out.RequestKind = Request::Kind::Analyze;
  else {
    Error = "unknown request kind '" + Kind + "'";
    return false;
  }
  Out.ImplName = str(V, "impl");
  Out.SourceText = str(V, "source");
  Out.Label = str(V, "label");
  Out.DataKind = str(V, "dataKind");
  Out.TestName = str(V, "test");
  Out.Notation = str(V, "notation");
  Out.ModelName = str(V, "model");
  readStringList(V, "impls", Out.Impls);
  readStringList(V, "tests", Out.Tests);
  readStringList(V, "models", Out.Models);
  readStringList(V, "litmusThreads", Out.LitmusThreads);
  if (const JsonValue *A = member(V, "expect"); A && A->isArray())
    for (const JsonValue &Item : A->Items)
      Out.ExpectedValues.push_back(Item.asI64());
  readStringList(V, "defines", Out.Defines);
  Out.StripAllFences = boolean(V, "stripFences", false);
  if (const JsonValue *A = member(V, "stripLines"); A && A->isArray())
    for (const JsonValue &Item : A->Items)
      Out.StripLines.push_back(Item.asInt());
  Out.UseRefSpec = boolean(V, "refSpec", false);
  if (const JsonValue *F = member(V, "rangeAnalysis"))
    Out.UseRangeAnalysis = F->asBool();
  if (const JsonValue *F = member(V, "maxBoundIterations"))
    Out.MaxBoundIterations = F->asInt();
  if (const JsonValue *F = member(V, "maxProbes"))
    Out.MaxProbes = F->asInt();
  if (const JsonValue *F = member(V, "conflictBudget"))
    Out.ConflictBudget = F->asI64();
  Out.Fresh = boolean(V, "fresh", false);
  Out.Jobs = integer(V, "jobs");
  Out.UseFastOracle = boolean(V, "fastOracle", true);
  Out.DeadlineSeconds = dbl(V, "deadlineSeconds");
  Out.UseCache = boolean(V, "useCache", true);
  if (const JsonValue *F = member(V, "traceFile"))
    Out.TraceFile = F->asString();
  Out.SynthStrip = boolean(V, "synthStrip", true);
  if (const JsonValue *F = member(V, "synthMinLine"))
    Out.SynthMinLine = F->asInt();
  if (const JsonValue *F = member(V, "synthMaxFences"))
    Out.SynthMaxFences = F->asInt();
  Out.SynthMinimize = boolean(V, "synthMinimize", true);
  if (const JsonValue *F = member(V, "exploreSeed"))
    Out.ExploreSeed = F->asU64(1);
  Out.ExploreBudget = integer(V, "exploreBudget", 100);
  Out.ExploreShrink = boolean(V, "exploreShrink", true);
  Out.CorpusDir = str(V, "corpusDir");
  Out.OracleSamplePeriod = integer(V, "oracleSamplePeriod", 8);
  Out.SymbolicPerMille = integer(V, "symbolicPerMille", -1);
  return true;
}

std::string checkfence::server::encodeResult(const Result &R) {
  JsonObject O;
  O.field("verdict", statusName(R.Verdict));
  O.field("message", R.Message);
  O.field("impl", R.Impl);
  O.field("test", R.Test);
  O.field("model", R.Model);
  O.raw("observations", quotedList(R.Observations));
  O.field("hasCounterexample", R.HasCounterexample);
  O.field("counterexampleTrace", R.CounterexampleTrace);
  O.field("counterexampleColumns", R.CounterexampleColumns);
  O.field("counterexampleObservation", R.CounterexampleObservation);
  JsonObject S;
  S.field("observationCount", R.Stats.ObservationCount);
  S.field("boundIterations", R.Stats.BoundIterations);
  S.field("unrolledInstrs", R.Stats.UnrolledInstrs);
  S.field("loads", R.Stats.Loads);
  S.field("stores", R.Stats.Stores);
  S.field("satVars", R.Stats.SatVars);
  S.field("satClauses", R.Stats.SatClauses);
  S.raw("encodeSeconds", wireDouble(R.Stats.EncodeSeconds));
  S.raw("solveSeconds", wireDouble(R.Stats.SolveSeconds));
  S.raw("miningSeconds", wireDouble(R.Stats.MiningSeconds));
  S.raw("includeSeconds", wireDouble(R.Stats.IncludeSeconds));
  S.raw("probeSeconds", wireDouble(R.Stats.ProbeSeconds));
  S.raw("totalSeconds", wireDouble(R.Stats.TotalSeconds));
  O.raw("stats", S.str());
  {
    JsonArray A;
    for (const auto &[Loop, Bound] : R.FinalBounds)
      A.item(JsonObject().field("loop", Loop).field("bound", Bound));
    O.raw("finalBounds", A.str());
  }
  O.field("fromCache", R.FromCache);
  return O.str();
}

bool checkfence::server::decodeResult(const JsonValue &V, Result &Out,
                                      std::string &Error) {
  if (!V.isObject()) {
    Error = "result payload must be an object";
    return false;
  }
  auto S = statusFromName(str(V, "verdict"));
  if (!S) {
    Error = "missing or unknown verdict in result payload";
    return false;
  }
  Out.Verdict = *S;
  Out.Message = str(V, "message");
  Out.Impl = str(V, "impl");
  Out.Test = str(V, "test");
  Out.Model = str(V, "model");
  readStringList(V, "observations", Out.Observations);
  Out.HasCounterexample = boolean(V, "hasCounterexample", false);
  Out.CounterexampleTrace = str(V, "counterexampleTrace");
  Out.CounterexampleColumns = str(V, "counterexampleColumns");
  Out.CounterexampleObservation = str(V, "counterexampleObservation");
  if (const JsonValue *St = member(V, "stats"); St && St->isObject()) {
    Out.Stats.ObservationCount = integer(*St, "observationCount");
    Out.Stats.BoundIterations = integer(*St, "boundIterations");
    Out.Stats.UnrolledInstrs = integer(*St, "unrolledInstrs");
    Out.Stats.Loads = integer(*St, "loads");
    Out.Stats.Stores = integer(*St, "stores");
    Out.Stats.SatVars = integer(*St, "satVars");
    if (const JsonValue *F = St->find("satClauses"))
      Out.Stats.SatClauses = F->asU64();
    Out.Stats.EncodeSeconds = dbl(*St, "encodeSeconds");
    Out.Stats.SolveSeconds = dbl(*St, "solveSeconds");
    Out.Stats.MiningSeconds = dbl(*St, "miningSeconds");
    Out.Stats.IncludeSeconds = dbl(*St, "includeSeconds");
    Out.Stats.ProbeSeconds = dbl(*St, "probeSeconds");
    Out.Stats.TotalSeconds = dbl(*St, "totalSeconds");
  }
  if (const JsonValue *B = member(V, "finalBounds"); B && B->isArray())
    for (const JsonValue &Item : B->Items)
      Out.FinalBounds[str(Item, "loop")] = integer(Item, "bound");
  Out.FromCache = boolean(V, "fromCache", false);
  return true;
}

std::string
checkfence::server::encodeSynthOutcome(const SynthOutcome &S) {
  JsonObject O;
  O.field("success", S.Success);
  O.field("message", S.Message);
  O.field("cancelled", S.Cancelled);
  O.raw("fences", encodeFences(S.Fences));
  O.raw("removed", encodeFences(S.Removed));
  O.field("checksRun", S.ChecksRun);
  O.raw("totalSeconds", wireDouble(S.TotalSeconds));
  O.raw("repairSeconds", wireDouble(S.RepairSeconds));
  O.raw("minimizeSeconds", wireDouble(S.MinimizeSeconds));
  O.raw("log", quotedList(S.Log));
  return O.str();
}

bool checkfence::server::decodeSynthOutcome(const JsonValue &V,
                                            SynthOutcome &Out,
                                            std::string &Error) {
  if (!V.isObject()) {
    Error = "synthesis payload must be an object";
    return false;
  }
  Out.Success = boolean(V, "success", false);
  Out.Message = str(V, "message");
  Out.Cancelled = boolean(V, "cancelled", false);
  decodeFences(V, "fences", Out.Fences);
  decodeFences(V, "removed", Out.Removed);
  Out.ChecksRun = integer(V, "checksRun");
  Out.TotalSeconds = dbl(V, "totalSeconds");
  Out.RepairSeconds = dbl(V, "repairSeconds");
  Out.MinimizeSeconds = dbl(V, "minimizeSeconds");
  readStringList(V, "log", Out.Log);
  return true;
}

std::string
checkfence::server::encodeWeakestOutcome(const WeakestOutcome &W) {
  JsonObject O;
  O.field("ok", W.Ok);
  O.field("error", W.Error);
  O.field("cancelled", W.Cancelled);
  O.field("impl", W.Impl);
  O.field("test", W.Test);
  O.raw("weakest", quotedList(W.Weakest));
  O.field("modelsPassed", W.ModelsPassed);
  O.field("modelsChecked", W.ModelsChecked);
  O.field("cellsRun", W.CellsRun);
  O.field("cellsInferred", W.CellsInferred);
  return O.str();
}

bool checkfence::server::decodeWeakestOutcome(const JsonValue &V,
                                              WeakestOutcome &Out,
                                              std::string &Error) {
  if (!V.isObject()) {
    Error = "weakest-model payload must be an object";
    return false;
  }
  Out.Ok = boolean(V, "ok", false);
  Out.Error = str(V, "error");
  Out.Cancelled = boolean(V, "cancelled", false);
  Out.Impl = str(V, "impl");
  Out.Test = str(V, "test");
  readStringList(V, "weakest", Out.Weakest);
  Out.ModelsPassed = integer(V, "modelsPassed");
  Out.ModelsChecked = integer(V, "modelsChecked");
  Out.CellsRun = integer(V, "cellsRun");
  Out.CellsInferred = integer(V, "cellsInferred");
  return true;
}

std::string
checkfence::server::encodeDivergence(const ExploreDivergence &D) {
  JsonObject O;
  O.field("label", D.Label);
  O.field("kind", D.Kind);
  O.field("model", D.Model);
  O.field("detail", D.Detail);
  O.field("shrunk", D.Shrunk);
  O.field("threads", D.Threads);
  O.field("ops", D.Ops);
  O.field("notation", D.Notation);
  O.field("source", D.Source);
  O.field("reproPath", D.ReproPath);
  return O.str();
}

bool checkfence::server::decodeDivergence(const JsonValue &V,
                                          ExploreDivergence &Out) {
  if (!V.isObject())
    return false;
  Out.Label = str(V, "label");
  Out.Kind = str(V, "kind");
  Out.Model = str(V, "model");
  Out.Detail = str(V, "detail");
  Out.Shrunk = boolean(V, "shrunk", false);
  Out.Threads = integer(V, "threads");
  Out.Ops = integer(V, "ops");
  Out.Notation = str(V, "notation");
  Out.Source = str(V, "source");
  Out.ReproPath = str(V, "reproPath");
  return true;
}

std::string checkfence::server::rpcRequest(const std::string &Method,
                                           const std::string &ParamsJson,
                                           int Id) {
  JsonObject O;
  O.field("jsonrpc", "2.0");
  O.field("id", Id);
  O.field("method", Method);
  O.raw("params", ParamsJson);
  return O.str();
}

std::string checkfence::server::rpcResult(const std::string &ResultJson,
                                          int Id) {
  JsonObject O;
  O.field("jsonrpc", "2.0");
  O.field("id", Id);
  O.raw("result", ResultJson);
  return O.str();
}

std::string checkfence::server::rpcResultWithTrace(
    const std::string &ResultJson, int Id,
    const std::string &TraceEventsJson) {
  JsonObject O;
  O.field("jsonrpc", "2.0");
  O.field("id", Id);
  O.raw("result", ResultJson);
  O.raw("trace", TraceEventsJson);
  return O.str();
}

std::string checkfence::server::rpcError(int Code,
                                         const std::string &Message,
                                         int Id) {
  JsonObject O;
  O.field("jsonrpc", "2.0");
  O.field("id", Id);
  O.raw("error",
        JsonObject().field("code", Code).field("message", Message).str());
  return O.str();
}
