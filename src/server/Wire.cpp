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

std::string encodeFences(const std::vector<SynthFence> &Fences) {
  JsonArray A;
  for (const SynthFence &F : Fences)
    A.item(JsonObject().field("line", F.Line).field("kind", F.Kind));
  return A.str();
}

std::vector<SynthFence> decodeFences(const JsonValue &Fences) {
  std::vector<SynthFence> Out;
  for (const JsonValue &Item : Fences.Items)
    Out.push_back({Item.at("line").asInt(), Item.at("kind").asString()});
  return Out;
}

} // namespace

const RequestKindName &checkfence::server::requestKind(Request::Kind K) {
  for (const RequestKindName &N : RequestKinds)
    if (N.Kind == K)
      return N;
  return RequestKinds[0];
}

std::string checkfence::server::encodeRequest(const Request &Req) {
  JsonObject O;
  O.field("kind", requestKind(Req.RequestKind).Wire);
  O.field("impl", Req.ImplName);
  O.field("source", Req.SourceText);
  O.field("label", Req.Label);
  O.field("dataKind", Req.DataKind);
  O.field("test", Req.TestName);
  O.field("notation", Req.Notation);
  O.field("model", Req.ModelName);
  O.strings("impls", Req.Impls);
  O.strings("tests", Req.Tests);
  O.strings("models", Req.Models);
  O.strings("litmusThreads", Req.LitmusThreads);
  {
    JsonArray A;
    for (long long V : Req.ExpectedValues)
      A.item(formatString("%lld", V));
    O.raw("expect", A.str());
  }
  O.strings("defines", Req.Defines);
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
  O.exact("deadlineSeconds", Req.DeadlineSeconds);
  O.field("useCache", Req.UseCache);
  O.field("traceFile", Req.TraceFile);
  O.field("exploreSeed", static_cast<unsigned long long>(Req.ExploreSeed));
  O.field("exploreBudget", Req.ExploreBudget);
  O.field("exploreShrink", Req.ExploreShrink);
  O.field("corpusDir", Req.CorpusDir);
  O.field("symbolicPerMille", Req.SymbolicPerMille);
  return O.str();
}

bool checkfence::server::decodeRequest(const JsonValue &V, Request &Out,
                                       std::string &Error) {
  Out = Request{};
  if (!V.isObject()) {
    Error = "params must be a request object";
    return false;
  }
  std::string Kind = V.at("kind").asString();
  const RequestKindName *Named = nullptr;
  for (const RequestKindName &N : RequestKinds)
    if (Kind == N.Wire)
      Named = &N;
  if (!Named) {
    Error = "unknown request kind '" + Kind + "'";
    return false;
  }
  Out.RequestKind = Named->Kind;
  Out.ImplName = V.at("impl").asString();
  Out.SourceText = V.at("source").asString();
  Out.Label = V.at("label").asString();
  Out.DataKind = V.at("dataKind").asString();
  Out.TestName = V.at("test").asString();
  Out.Notation = V.at("notation").asString();
  Out.ModelName = V.at("model").asString();
  Out.Impls = V.at("impls").asStrings();
  Out.Tests = V.at("tests").asStrings();
  Out.Models = V.at("models").asStrings();
  Out.LitmusThreads = V.at("litmusThreads").asStrings();
  for (const JsonValue &Item : V.at("expect").Items)
    Out.ExpectedValues.push_back(Item.asI64());
  Out.Defines = V.at("defines").asStrings();
  Out.StripAllFences = V.at("stripFences").asBool();
  for (const JsonValue &Item : V.at("stripLines").Items)
    Out.StripLines.push_back(Item.asInt());
  Out.UseRefSpec = V.at("refSpec").asBool();
  if (const JsonValue *F = V.find("rangeAnalysis"))
    Out.UseRangeAnalysis = F->asBool();
  if (const JsonValue *F = V.find("maxBoundIterations"))
    Out.MaxBoundIterations = F->asInt();
  if (const JsonValue *F = V.find("maxProbes"))
    Out.MaxProbes = F->asInt();
  if (const JsonValue *F = V.find("conflictBudget"))
    Out.ConflictBudget = F->asI64();
  Out.Fresh = V.at("fresh").asBool();
  Out.Jobs = V.at("jobs").asInt();
  Out.DeadlineSeconds = V.at("deadlineSeconds").asDouble();
  Out.UseCache = V.at("useCache").asBool(true);
  if (const JsonValue *F = V.find("traceFile"))
    Out.TraceFile = F->asString();
  if (const JsonValue *F = V.find("exploreSeed"))
    Out.ExploreSeed = F->asU64(1);
  Out.ExploreBudget = V.at("exploreBudget").asInt(100);
  Out.ExploreShrink = V.at("exploreShrink").asBool(true);
  Out.CorpusDir = V.at("corpusDir").asString();
  Out.SymbolicPerMille = V.at("symbolicPerMille").asInt(-1);
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
  O.exact("totalSeconds", S.TotalSeconds);
  O.exact("repairSeconds", S.RepairSeconds);
  O.exact("minimizeSeconds", S.MinimizeSeconds);
  O.strings("log", S.Log);
  return O.str();
}

bool checkfence::server::decodeSynthOutcome(const JsonValue &V,
                                            SynthOutcome &Out,
                                            std::string &Error) {
  Out = SynthOutcome{};
  if (!V.isObject()) {
    Error = "synthesis payload must be an object";
    return false;
  }
  Out.Success = V.at("success").asBool();
  Out.Message = V.at("message").asString();
  Out.Cancelled = V.at("cancelled").asBool();
  Out.Fences = decodeFences(V.at("fences"));
  Out.Removed = decodeFences(V.at("removed"));
  Out.ChecksRun = V.at("checksRun").asInt();
  Out.TotalSeconds = V.at("totalSeconds").asDouble();
  Out.RepairSeconds = V.at("repairSeconds").asDouble();
  Out.MinimizeSeconds = V.at("minimizeSeconds").asDouble();
  Out.Log = V.at("log").asStrings();
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
  O.strings("weakest", W.Weakest);
  O.field("modelsPassed", W.ModelsPassed);
  O.field("modelsChecked", W.ModelsChecked);
  O.field("cellsRun", W.CellsRun);
  O.field("cellsInferred", W.CellsInferred);
  return O.str();
}

bool checkfence::server::decodeWeakestOutcome(const JsonValue &V,
                                              WeakestOutcome &Out,
                                              std::string &Error) {
  Out = WeakestOutcome{};
  if (!V.isObject()) {
    Error = "weakest-model payload must be an object";
    return false;
  }
  Out.Ok = V.at("ok").asBool();
  Out.Error = V.at("error").asString();
  Out.Cancelled = V.at("cancelled").asBool();
  Out.Impl = V.at("impl").asString();
  Out.Test = V.at("test").asString();
  Out.Weakest = V.at("weakest").asStrings();
  Out.ModelsPassed = V.at("modelsPassed").asInt();
  Out.ModelsChecked = V.at("modelsChecked").asInt();
  Out.CellsRun = V.at("cellsRun").asInt();
  Out.CellsInferred = V.at("cellsInferred").asInt();
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
