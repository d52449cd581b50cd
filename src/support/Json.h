//===--- Json.h - JSON escaping and writers ---------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON emission path shared by every report in the repository:
/// string escaping plus small object/array writers. Two layout styles are
/// supported because the reports mix them deliberately:
///
///  * JsonObject / JsonArray - *inline* writers: fields joined by ", ",
///    no newlines. Matrix cells and weakest-passing entries use this so
///    one record stays one line.
///  * The multi-line scaffolding of a whole report (indentation, one cell
///    per line) stays with the report code; the writers only guarantee
///    that escaping and field syntax are uniform.
///
/// Formatting is deterministic: doubles always print with an explicit
/// precision (fixed for reports, %.17g for exact round-trips), field
/// order is insertion order.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SUPPORT_JSON_H
#define CHECKFENCE_SUPPORT_JSON_H

#include <string>
#include <vector>

namespace checkfence {
namespace support {

/// Escapes \p S for embedding in a JSON string literal (quotes,
/// backslashes, and control characters; non-ASCII bytes pass through).
std::string jsonEscape(const std::string &S);

/// `"escaped"` - jsonEscape with surrounding quotes.
std::string jsonQuote(const std::string &S);

/// Inline JSON object writer: `{"a": 1, "b": "x"}`. Fields appear in
/// insertion order, separated by ", ".
class JsonObject {
public:
  /// String value (escaped and quoted).
  JsonObject &field(const char *Key, const std::string &Value);
  JsonObject &field(const char *Key, const char *Value);
  /// Integer values.
  JsonObject &field(const char *Key, int Value);
  JsonObject &field(const char *Key, long long Value);
  JsonObject &field(const char *Key, unsigned long long Value);
  JsonObject &field(const char *Key, bool Value);
  /// Fixed-precision double ("%.3f" by default - the report convention).
  JsonObject &fixed(const char *Key, double Value, int Precision = 3);
  /// %.17g - the shortest spelling guaranteed to round-trip an IEEE
  /// double through text (wire payloads, persisted results).
  JsonObject &exact(const char *Key, double Value);
  /// Array of strings (each escaped and quoted).
  JsonObject &strings(const char *Key,
                      const std::vector<std::string> &Values);
  /// Pre-rendered JSON (nested object/array).
  JsonObject &raw(const char *Key, const std::string &Json);

  bool empty() const { return Body.empty(); }
  /// The complete object, braces included.
  std::string str() const { return "{" + Body + "}"; }

private:
  JsonObject &append(const char *Key, const std::string &Rendered);
  std::string Body;
};

/// Inline JSON array writer over pre-rendered items: `[a, b]`.
class JsonArray {
public:
  JsonArray &item(const std::string &Json);
  JsonArray &item(const JsonObject &Obj) { return item(Obj.str()); }

  bool empty() const { return Body.empty(); }
  size_t size() const { return Items; }
  /// The complete array, brackets included.
  std::string str() const { return "[" + Body + "]"; }

private:
  std::string Body;
  size_t Items = 0;
};

} // namespace support
} // namespace checkfence

#endif // CHECKFENCE_SUPPORT_JSON_H
