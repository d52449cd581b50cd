//===--- Remote.cpp - client for a checkfenced daemon -------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checkfence/Remote.h"

#include "api/ResultCodec.h"
#include "obs/Trace.h"
#include "server/Http.h"
#include "server/Wire.h"
#include "support/Format.h"
#include "support/JsonParse.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

using namespace checkfence;
using namespace checkfence::server;
using support::JsonValue;

struct RemoteVerifier::Impl {
  std::string Host;
  int Port = 0;
  std::string UrlError; ///< set when the base URL failed to parse
  std::string Priority = "normal";
  int NextId = 1;

  /// One JSON-RPC round trip. On success \p ResultOut points into
  /// \p Doc's "result" member. When \p TraceFile is non-empty (the
  /// request carried traceFile()) and no tracer is already installed,
  /// this call owns one and writes the merged client+server trace file;
  /// under an enclosing tracer the spans land there instead.
  RemoteStatus call(const std::string &Method, const std::string &Params,
                    JsonValue &Doc, const JsonValue *&ResultOut,
                    const std::string &TraceFile = std::string()) {
    std::unique_ptr<obs::Tracer> Owned;
    if (!TraceFile.empty() && !obs::currentTracer())
      Owned = std::make_unique<obs::Tracer>();
    obs::TraceContext Ctx(Owned.get());
    RemoteStatus S = callTraced(Method, Params, Doc, ResultOut);
    if (Owned)
      Owned->writeFile(TraceFile);
    return S;
  }

  RemoteStatus callTraced(const std::string &Method,
                          const std::string &Params, JsonValue &Doc,
                          const JsonValue *&ResultOut) {
    obs::Tracer *T = obs::currentTracer();
    obs::Span RpcSpan("rpc", [&] { return "rpc:" + Method; });
    RemoteStatus S;
    if (!UrlError.empty()) {
      S.Error = UrlError;
      return S;
    }
    int Id = NextId++;
    std::map<std::string, std::string> Headers;
    if (Priority != "normal")
      Headers["X-Checkfence-Priority"] = Priority;
    if (T)
      Headers["X-Checkfence-Trace"] = "1";
    uint64_t SentNs = T ? T->nowNs() : 0;
    HttpResult H = httpRequest(Host, Port, "POST", "/rpc",
                               rpcRequest(Method, Params, Id), Headers);
    if (!H.Ok) {
      S.Error = H.Error;
      return S;
    }
    S.HttpStatus = H.StatusCode;
    if (H.StatusCode == 429) {
      if (auto It = H.Headers.find("retry-after"); It != H.Headers.end())
        S.RetryAfterSeconds = std::atoi(It->second.c_str());
      S.Error = "server busy: request queue is full";
      return S;
    }
    std::string ParseError;
    if (!support::parseJson(H.Body, Doc, ParseError) || !Doc.isObject()) {
      S.Error = "malformed server response: " + ParseError;
      return S;
    }
    mergeServerTrace(T, Doc, SentNs);
    if (const JsonValue *Err = Doc.find("error")) {
      const JsonValue *Msg = Err->isObject() ? Err->find("message")
                                             : nullptr;
      S.Error = Msg ? Msg->asString() : "server error";
      return S;
    }
    ResultOut = Doc.find("result");
    if (!ResultOut || H.StatusCode != 200) {
      S.Error = formatString("unexpected server response (HTTP %d)",
                             H.StatusCode);
      return S;
    }
    S.Ok = true;
    return S;
  }

  /// Imports the envelope's "trace" array (server-side spans) into lane
  /// pid=1, shifting the server timeline so its earliest span lines up
  /// with the moment this client sent the request. The clocks are
  /// unrelated steady clocks, so this alignment is presentational; span
  /// durations are exact.
  static void mergeServerTrace(obs::Tracer *T, const JsonValue &Doc,
                               uint64_t SentNs) {
    if (!T)
      return;
    const JsonValue *Tr = Doc.find("trace");
    if (!Tr)
      return;
    std::vector<obs::TraceEvent> Events;
    if (!obs::Tracer::parseEvents(*Tr, Events) || Events.empty())
      return;
    uint64_t MinStart = Events.front().StartNs;
    for (const obs::TraceEvent &Ev : Events)
      MinStart = std::min(MinStart, Ev.StartNs);
    int64_t ShiftNs =
        static_cast<int64_t>(SentNs) - static_cast<int64_t>(MinStart);
    for (const obs::TraceEvent &Ev : Events)
      T->recordForeign(Ev, /*Pid=*/1, ShiftNs);
  }
};

RemoteVerifier::RemoteVerifier(std::string BaseUrl)
    : Self(std::make_unique<Impl>()) {
  std::string Error;
  if (!parseServerUrl(BaseUrl, Self->Host, Self->Port, Error))
    Self->UrlError = Error;
}

RemoteVerifier::~RemoteVerifier() = default;

void RemoteVerifier::setPriority(std::string Priority) {
  Self->Priority = std::move(Priority);
}

RemoteStatus RemoteVerifier::version(std::string &VersionOut,
                                     int &SchemaOut) {
  JsonValue Doc;
  const JsonValue *R = nullptr;
  RemoteStatus S = Self->call("checkfence.version", "{}", Doc, R);
  if (!S)
    return S;
  if (const JsonValue *V = R->find("version"))
    VersionOut = V->asString();
  if (const JsonValue *V = R->find("schema"))
    SchemaOut = V->asInt();
  return S;
}

RemoteStatus RemoteVerifier::check(const Request &Req, Result &Out) {
  JsonValue Doc;
  const JsonValue *R = nullptr;
  RemoteStatus S =
      Self->call("checkfence.check", encodeRequest(Req), Doc, R,
                 Req.TraceFile);
  if (!S)
    return S;
  std::string Error;
  if (!api::decodeResult(*R, Out, Error)) {
    S.Ok = false;
    S.Error = Error;
  }
  return S;
}

RemoteStatus RemoteVerifier::matrix(const Request &Req, Report &Out) {
  JsonValue Doc;
  const JsonValue *R = nullptr;
  RemoteStatus S =
      Self->call("checkfence.matrix", encodeRequest(Req), Doc, R,
                 Req.TraceFile);
  if (!S)
    return S;
  std::string Error;
  if (!api::decodeReport(*R, Out, Error)) {
    S.Ok = false;
    S.Error = Error;
  }
  return S;
}

RemoteStatus RemoteVerifier::analyze(const Request &Req,
                                     RemoteAnalysis &Out) {
  JsonValue Doc;
  const JsonValue *R = nullptr;
  RemoteStatus S =
      Self->call("checkfence.analyze", encodeRequest(Req), Doc, R,
                 Req.TraceFile);
  if (!S)
    return S;
  const JsonValue *Ok = R->find("ok");
  Out.Ok = Ok && Ok->asBool();
  if (const JsonValue *V = R->find("error"))
    Out.Error = V->asString();
  if (const JsonValue *V = R->find("table"))
    Out.Table = V->asString();
  if (const JsonValue *V = R->find("json"))
    Out.Json = V->asString();
  return S;
}

RemoteStatus RemoteVerifier::explore(const Request &Req,
                                     RemoteExplore &Out) {
  JsonValue Doc;
  const JsonValue *R = nullptr;
  RemoteStatus S =
      Self->call("checkfence.explore", encodeRequest(Req), Doc, R,
                 Req.TraceFile);
  if (!S)
    return S;
  auto Str = [&](const char *K) {
    const JsonValue *V = R->find(K);
    return V ? V->asString() : std::string();
  };
  auto Int = [&](const char *K) {
    const JsonValue *V = R->find(K);
    return V ? V->asInt() : 0;
  };
  const JsonValue *Ok = R->find("ok");
  Out.Ok = Ok && Ok->asBool();
  Out.Error = Str("error");
  if (const JsonValue *V = R->find("cancelled"))
    Out.Cancelled = V->asBool();
  if (const JsonValue *V = R->find("seed"))
    Out.Seed = V->asU64();
  Out.Generated = Int("generated");
  Out.Deduplicated = Int("deduplicated");
  Out.Run = Int("run");
  Out.Skips = Int("skips");
  Out.Shrunk = Int("shrunk");
  if (const JsonValue *V = R->find("wallSeconds"))
    Out.WallSeconds = V->asDouble();
  Out.Json = Str("json");
  Out.JsonNoTimings = Str("jsonNoTimings");
  if (const JsonValue *W = R->find("warnings"); W && W->isArray())
    for (const JsonValue &Item : W->Items)
      Out.Warnings.push_back(Item.asString());
  if (const JsonValue *D = R->find("divergences"); D && D->isArray())
    for (const JsonValue &Item : D->Items) {
      ExploreDivergence Div;
      if (decodeDivergence(Item, Div))
        Out.Divergences.push_back(std::move(Div));
    }
  return S;
}

RemoteStatus RemoteVerifier::synthesize(const Request &Req,
                                        SynthOutcome &Out) {
  JsonValue Doc;
  const JsonValue *R = nullptr;
  RemoteStatus S =
      Self->call("checkfence.synthesize", encodeRequest(Req), Doc, R,
                 Req.TraceFile);
  if (!S)
    return S;
  std::string Error;
  const JsonValue *Outcome = R->find("outcome");
  if (!Outcome || !decodeSynthOutcome(*Outcome, Out, Error)) {
    S.Ok = false;
    S.Error = Error.empty() ? "missing synthesis outcome" : Error;
  }
  return S;
}

RemoteStatus RemoteVerifier::weakestModels(const Request &Req,
                                           WeakestOutcome &Out) {
  JsonValue Doc;
  const JsonValue *R = nullptr;
  RemoteStatus S =
      Self->call("checkfence.weakestModel", encodeRequest(Req), Doc, R,
                 Req.TraceFile);
  if (!S)
    return S;
  std::string Error;
  if (!decodeWeakestOutcome(*R, Out, Error)) {
    S.Ok = false;
    S.Error = Error;
  }
  return S;
}
