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
/// which the persisted result cache shares: the client re-renders it
/// locally and is byte-identical to an in-process run. Doubles travel as
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

/// Request <-> params object.
std::string encodeRequest(const Request &Req);
bool decodeRequest(const support::JsonValue &V, Request &Out,
                   std::string &Error);

/// SynthOutcome <-> object (full field round-trip; the rendered JSON
/// report travels separately).
std::string encodeSynthOutcome(const SynthOutcome &S);
bool decodeSynthOutcome(const support::JsonValue &V, SynthOutcome &Out,
                        std::string &Error);

/// WeakestOutcome <-> object.
std::string encodeWeakestOutcome(const WeakestOutcome &W);
bool decodeWeakestOutcome(const support::JsonValue &V, WeakestOutcome &Out,
                          std::string &Error);

/// ExploreDivergence <-> object.
std::string encodeDivergence(const ExploreDivergence &D);
bool decodeDivergence(const support::JsonValue &V, ExploreDivergence &Out);

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
