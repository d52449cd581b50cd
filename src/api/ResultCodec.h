//===--- ResultCodec.h - the one Result JSON codec --------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one serialization of a full public Result, so the question "which
/// fields a Result carries, spelled how" lives in exactly one file. The
/// checkfenced wire payloads (server/) and each entry of the persisted
/// result cache (api/Cache) are this object; a matrix Report travels as
/// the list of its cells' Results. Every public Result field round-trips;
/// doubles travel as %.17g so timings come back exactly, and a decoded
/// Result or Report re-renders byte-identical JSON.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_API_RESULTCODEC_H
#define CHECKFENCE_API_RESULTCODEC_H

#include "checkfence/Result.h"

#include "support/JsonParse.h"

#include <optional>
#include <string>

namespace checkfence {
namespace api {

/// The verdict whose statusName() is \p Name, or nullopt.
std::optional<Status> statusFromName(const std::string &Name);

/// Result -> one-line JSON object.
std::string encodeResult(const Result &R);

/// JSON object -> \p Out, which is reset first (nothing of a previous
/// decode survives). False + \p Error when \p V is not an object or
/// carries no known verdict.
bool decodeResult(const support::JsonValue &V, Result &Out,
                  std::string &Error);

/// Report -> one-line JSON object: "ok", "error", "jobs", "wallSeconds"
/// and "cells", one {"seconds", "result"} object per cell whose result
/// is encodeResult's object.
std::string encodeReport(const Report &R);

/// JSON object -> \p Out (replaced). A decoded report renders table()
/// and json() byte-identical to the encoded one. False + \p Error when a
/// cell is malformed or names a model that does not parse.
bool decodeReport(const support::JsonValue &V, Report &Out,
                  std::string &Error);

} // namespace api
} // namespace checkfence

#endif // CHECKFENCE_API_RESULTCODEC_H
