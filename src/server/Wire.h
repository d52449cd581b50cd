//===--- Wire.h - JSON wire codecs for the daemon protocol ------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared encode/decode of the checkfenced JSON-RPC payloads. Both ends
/// link the same codecs, so the representation question ("which fields
/// cross the wire, spelled how") has one answer per payload.
///
/// Requests serialize every public Request field. A single-check result
/// travels as the one Result codec, api::encodeResult (api/ResultCodec.h),
/// which the persisted result cache shares, and an explore report as its
/// own JSON (explore::decodeReport reads it back): the client re-renders
/// either locally, byte-identical to an in-process run. Doubles travel as
/// %.17g (JsonObject::exact) so they round-trip exactly. Every decoder
/// resets its out-parameter first.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SERVER_WIRE_H
#define CHECKFENCE_SERVER_WIRE_H

#include "checkfence/Request.h"
#include "checkfence/Result.h"

#include "support/JsonParse.h"

#include <string>

namespace checkfence {
namespace server {

/// How one Request::Kind is named across the daemon protocol.
struct RequestKindName {
  Request::Kind Kind;
  const char *Wire;   ///< the params' "kind" member
  const char *Method; ///< the JSON-RPC method that serves it
  /// Short label: the server's "dispatch:<label>" span and the
  /// kind="<label>" value of its request-latency histogram.
  const char *Label;
};

/// Every request kind, one row each (the order the latency histogram's
/// series render in).
inline constexpr RequestKindName RequestKinds[] = {
    {Request::Kind::Check, "check", "checkfence.check", "check"},
    {Request::Kind::Matrix, "matrix", "checkfence.matrix", "matrix"},
    {Request::Kind::Sweep, "sweep", "checkfence.matrix", "sweep"},
    {Request::Kind::WeakestModel, "weakestModel", "checkfence.weakestModel",
     "weakest"},
    {Request::Kind::Synthesis, "synthesis", "checkfence.synthesize",
     "synth"},
    {Request::Kind::Litmus, "litmus", "checkfence.litmus", "litmus"},
    {Request::Kind::Explore, "explore", "checkfence.explore", "explore"},
    {Request::Kind::Analyze, "analyze", "checkfence.analyze", "analyze"},
};

/// The row of \p K.
const RequestKindName &requestKind(Request::Kind K);

/// Request <-> params object.
std::string encodeRequest(const Request &Req);
bool decodeRequest(const support::JsonValue &V, Request &Out,
                   std::string &Error);

/// SynthOutcome <-> object (full field round-trip; the client renders
/// the JSON report from it).
std::string encodeSynthOutcome(const SynthOutcome &S);
bool decodeSynthOutcome(const support::JsonValue &V, SynthOutcome &Out,
                        std::string &Error);

/// WeakestOutcome <-> object.
std::string encodeWeakestOutcome(const WeakestOutcome &W);
bool decodeWeakestOutcome(const support::JsonValue &V, WeakestOutcome &Out,
                          std::string &Error);

/// JSON-RPC 2.0 envelopes.
std::string rpcRequest(const std::string &Method,
                       const std::string &ParamsJson, int Id);
std::string rpcResult(const std::string &ResultJson, int Id);
/// rpcResult plus a sibling "trace" member carrying the server-side
/// span array (the X-Checkfence-Trace round-trip; see
/// docs/OBSERVABILITY.md). `TraceEventsJson` is a pre-rendered JSON
/// array (obs::Tracer::eventsJson()).
std::string rpcResultWithTrace(const std::string &ResultJson, int Id,
                               const std::string &TraceEventsJson);
std::string rpcError(int Code, const std::string &Message, int Id);

// JSON-RPC error codes used by the daemon (the -32xxx ones are the
// standard assignments).
constexpr int RpcParseError = -32700;
constexpr int RpcInvalidRequest = -32600;
constexpr int RpcMethodNotFound = -32601;
constexpr int RpcInvalidParams = -32602;
constexpr int RpcQueueFull = -32001;
constexpr int RpcShuttingDown = -32002;

} // namespace server
} // namespace checkfence

#endif // CHECKFENCE_SERVER_WIRE_H
