//===--- JsonParse.h - a small JSON value parser ----------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read half of the repository's JSON story (support/Json.h is the
/// write half): a strict recursive-descent parser into a small value
/// tree. Used by the checkfenced server (JSON-RPC request bodies) and
/// the remote client (response bodies).
///
/// Numbers keep their source spelling alongside the double conversion so
/// 64-bit integers (clause counts, seeds) round-trip exactly through
/// asI64/asU64.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SUPPORT_JSONPARSE_H
#define CHECKFENCE_SUPPORT_JSONPARSE_H

#include <string>
#include <utility>
#include <vector>

namespace checkfence {
namespace support {

/// One parsed JSON value. Object member order is preserved (the parser
/// never reorders), duplicate keys keep the last occurrence via find().
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind ValueKind = Kind::Null;
  bool BoolVal = false;
  double NumVal = 0;
  std::string NumText; ///< source spelling, for exact integer reads
  std::string Str;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  bool isBool() const { return ValueKind == Kind::Bool; }
  bool isNumber() const { return ValueKind == Kind::Number; }
  bool isString() const { return ValueKind == Kind::String; }
  bool isArray() const { return ValueKind == Kind::Array; }
  bool isObject() const { return ValueKind == Kind::Object; }

  /// Member lookup (objects only); nullptr when absent. Last duplicate
  /// wins, matching common JSON semantics.
  const JsonValue *find(const std::string &Key) const;

  // Typed reads with defaults; wrong-kind values return the default
  // (callers that must distinguish test the kind first).
  bool asBool(bool Default = false) const;
  double asDouble(double Default = 0) const;
  int asInt(int Default = 0) const;
  long long asI64(long long Default = 0) const;
  unsigned long long asU64(unsigned long long Default = 0) const;
  std::string asString(std::string Default = std::string()) const;
};

/// Parses \p Text into \p Out. False + \p Error (with an offset) on any
/// syntax problem; trailing non-whitespace is an error.
bool parseJson(const std::string &Text, JsonValue &Out,
               std::string &Error);

} // namespace support
} // namespace checkfence

#endif // CHECKFENCE_SUPPORT_JSONPARSE_H
