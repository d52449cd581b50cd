//===--- Json.cpp - JSON escaping and writers --------------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Format.h"

using namespace checkfence;
using namespace checkfence::support;

std::string checkfence::support::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

std::string checkfence::support::jsonQuote(const std::string &S) {
  return "\"" + jsonEscape(S) + "\"";
}

JsonObject &JsonObject::append(const char *Key,
                               const std::string &Rendered) {
  if (!Body.empty())
    Body += ", ";
  Body += "\"";
  Body += Key;
  Body += "\": ";
  Body += Rendered;
  return *this;
}

JsonObject &JsonObject::field(const char *Key, const std::string &Value) {
  return append(Key, jsonQuote(Value));
}

JsonObject &JsonObject::field(const char *Key, const char *Value) {
  return append(Key, jsonQuote(Value));
}

JsonObject &JsonObject::field(const char *Key, int Value) {
  return append(Key, formatString("%d", Value));
}

JsonObject &JsonObject::field(const char *Key, long long Value) {
  return append(Key, formatString("%lld", Value));
}

JsonObject &JsonObject::field(const char *Key, unsigned long long Value) {
  return append(Key, formatString("%llu", Value));
}

JsonObject &JsonObject::field(const char *Key, bool Value) {
  return append(Key, Value ? "true" : "false");
}

JsonObject &JsonObject::fixed(const char *Key, double Value,
                              int Precision) {
  return append(Key, formatString("%.*f", Precision, Value));
}

JsonObject &JsonObject::exact(const char *Key, double Value) {
  return append(Key, formatString("%.17g", Value));
}

JsonObject &JsonObject::strings(const char *Key,
                                const std::vector<std::string> &Values) {
  JsonArray A;
  for (const std::string &V : Values)
    A.item(jsonQuote(V));
  return append(Key, A.str());
}

JsonObject &JsonObject::raw(const char *Key, const std::string &Json) {
  return append(Key, Json);
}

JsonArray &JsonArray::item(const std::string &Json) {
  if (!Body.empty())
    Body += ", ";
  Body += Json;
  ++Items;
  return *this;
}
