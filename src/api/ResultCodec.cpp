//===--- ResultCodec.cpp - the one Result JSON codec -------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "api/ResultCodec.h"

#include "support/Json.h"

using namespace checkfence;
using support::JsonArray;
using support::JsonObject;
using support::JsonValue;

std::optional<Status> checkfence::api::statusFromName(const std::string &Name) {
  for (Status S : {Status::Pass, Status::Fail, Status::SequentialBug,
                   Status::BoundsExhausted, Status::Error,
                   Status::Cancelled})
    if (Name == statusName(S))
      return S;
  return std::nullopt;
}

std::string checkfence::api::encodeResult(const Result &R) {
  JsonObject O;
  O.field("verdict", statusName(R.Verdict));
  O.field("message", R.Message);
  O.field("impl", R.Impl);
  O.field("test", R.Test);
  O.field("model", R.Model);
  O.strings("observations", R.Observations);
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
  S.exact("encodeSeconds", R.Stats.EncodeSeconds);
  S.exact("solveSeconds", R.Stats.SolveSeconds);
  S.exact("miningSeconds", R.Stats.MiningSeconds);
  S.exact("includeSeconds", R.Stats.IncludeSeconds);
  S.exact("probeSeconds", R.Stats.ProbeSeconds);
  S.exact("totalSeconds", R.Stats.TotalSeconds);
  O.raw("stats", S.str());
  JsonArray Bounds;
  for (const auto &[Loop, Bound] : R.FinalBounds)
    Bounds.item(JsonObject().field("loop", Loop).field("bound", Bound));
  O.raw("finalBounds", Bounds.str());
  O.field("fromCache", R.FromCache);
  return O.str();
}

bool checkfence::api::decodeResult(const JsonValue &V, Result &Out,
                                   std::string &Error) {
  Out = Result{};
  if (!V.isObject()) {
    Error = "result payload must be an object";
    return false;
  }
  auto S = statusFromName(V.at("verdict").asString());
  if (!S) {
    Error = "missing or unknown verdict in result payload";
    return false;
  }
  Out.Verdict = *S;
  Out.Message = V.at("message").asString();
  Out.Impl = V.at("impl").asString();
  Out.Test = V.at("test").asString();
  Out.Model = V.at("model").asString();
  Out.Observations = V.at("observations").asStrings();
  Out.HasCounterexample = V.at("hasCounterexample").asBool();
  Out.CounterexampleTrace = V.at("counterexampleTrace").asString();
  Out.CounterexampleColumns = V.at("counterexampleColumns").asString();
  Out.CounterexampleObservation =
      V.at("counterexampleObservation").asString();
  const JsonValue &St = V.at("stats");
  Out.Stats.ObservationCount = St.at("observationCount").asInt();
  Out.Stats.BoundIterations = St.at("boundIterations").asInt();
  Out.Stats.UnrolledInstrs = St.at("unrolledInstrs").asInt();
  Out.Stats.Loads = St.at("loads").asInt();
  Out.Stats.Stores = St.at("stores").asInt();
  Out.Stats.SatVars = St.at("satVars").asInt();
  Out.Stats.SatClauses = St.at("satClauses").asU64();
  Out.Stats.EncodeSeconds = St.at("encodeSeconds").asDouble();
  Out.Stats.SolveSeconds = St.at("solveSeconds").asDouble();
  Out.Stats.MiningSeconds = St.at("miningSeconds").asDouble();
  Out.Stats.IncludeSeconds = St.at("includeSeconds").asDouble();
  Out.Stats.ProbeSeconds = St.at("probeSeconds").asDouble();
  Out.Stats.TotalSeconds = St.at("totalSeconds").asDouble();
  for (const JsonValue &Item : V.at("finalBounds").Items)
    Out.FinalBounds[Item.at("loop").asString()] = Item.at("bound").asInt();
  Out.FromCache = V.at("fromCache").asBool();
  return true;
}
