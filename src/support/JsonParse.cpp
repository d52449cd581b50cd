//===--- JsonParse.cpp - a small JSON value parser ---------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "support/JsonParse.h"

#include "support/Format.h"

#include <cstdlib>

using namespace checkfence;
using namespace checkfence::support;

const JsonValue *JsonValue::find(const std::string &Key) const {
  const JsonValue *Found = nullptr;
  for (const auto &[K, V] : Members)
    if (K == Key)
      Found = &V;
  return Found;
}

const JsonValue &JsonValue::at(const std::string &Key) const {
  static const JsonValue Null;
  const JsonValue *V = find(Key);
  return V ? *V : Null;
}

bool JsonValue::asBool(bool Default) const {
  return isBool() ? BoolVal : Default;
}

double JsonValue::asDouble(double Default) const {
  return isNumber() ? NumVal : Default;
}

int JsonValue::asInt(int Default) const {
  return isNumber() ? static_cast<int>(std::strtoll(NumText.c_str(),
                                                    nullptr, 10))
                    : Default;
}

long long JsonValue::asI64(long long Default) const {
  return isNumber() ? std::strtoll(NumText.c_str(), nullptr, 10)
                    : Default;
}

unsigned long long JsonValue::asU64(unsigned long long Default) const {
  return isNumber() ? std::strtoull(NumText.c_str(), nullptr, 10)
                    : Default;
}

std::string JsonValue::asString(std::string Default) const {
  return isString() ? Str : Default;
}

std::vector<std::string> JsonValue::asStrings() const {
  std::vector<std::string> Out;
  for (const JsonValue &Item : Items)
    Out.push_back(Item.asString());
  return Out;
}

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parse(JsonValue &Out) {
    skipWs();
    if (!value(Out))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
  int Depth = 0;
  static constexpr int MaxDepth = 64;

  bool fail(const std::string &Why) {
    Error = formatString("JSON parse error at offset %zu: ", Pos) + Why;
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t N = 0;
    while (Word[N])
      ++N;
    if (Text.compare(Pos, N, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += N;
    return true;
  }

  bool value(JsonValue &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    if (++Depth > MaxDepth)
      return fail("nesting too deep");
    bool Ok = false;
    switch (Text[Pos]) {
    case '{':
      Ok = object(Out);
      break;
    case '[':
      Ok = array(Out);
      break;
    case '"':
      Out.ValueKind = JsonValue::Kind::String;
      Ok = string(Out.Str);
      break;
    case 't':
      Out.ValueKind = JsonValue::Kind::Bool;
      Out.BoolVal = true;
      Ok = literal("true");
      break;
    case 'f':
      Out.ValueKind = JsonValue::Kind::Bool;
      Out.BoolVal = false;
      Ok = literal("false");
      break;
    case 'n':
      Out.ValueKind = JsonValue::Kind::Null;
      Ok = literal("null");
      break;
    default:
      Ok = number(Out);
      break;
    }
    --Depth;
    return Ok;
  }

  bool object(JsonValue &Out) {
    Out.ValueKind = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key string");
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':' after object key");
      ++Pos;
      skipWs();
      JsonValue V;
      if (!value(V))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue &Out) {
    Out.ValueKind = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      JsonValue V;
      if (!value(V))
        return false;
      Out.Items.push_back(std::move(V));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool hex4(unsigned &Out) {
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      if (Pos >= Text.size())
        return fail("truncated \\u escape");
      char C = Text[Pos++];
      unsigned D;
      if (C >= '0' && C <= '9')
        D = C - '0';
      else if (C >= 'a' && C <= 'f')
        D = 10 + C - 'a';
      else if (C >= 'A' && C <= 'F')
        D = 10 + C - 'A';
      else
        return fail("bad hex digit in \\u escape");
      Out = Out * 16 + D;
    }
    return true;
  }

  /// Appends \p Code as UTF-8 (the writer only emits \u00XX for control
  /// bytes, but arbitrary escapes must still decode).
  static void appendUtf8(std::string &S, unsigned Code) {
    if (Code < 0x80) {
      S += static_cast<char>(Code);
    } else if (Code < 0x800) {
      S += static_cast<char>(0xC0 | (Code >> 6));
      S += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      S += static_cast<char>(0xE0 | (Code >> 12));
      S += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Code;
        if (!hex4(Code))
          return false;
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("unknown escape character");
      }
    }
  }

  bool number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    bool Digits = false;
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9') {
      ++Pos;
      Digits = true;
    }
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (!Digits)
      return fail("expected a value");
    Out.ValueKind = JsonValue::Kind::Number;
    Out.NumText = Text.substr(Start, Pos - Start);
    Out.NumVal = std::strtod(Out.NumText.c_str(), nullptr);
    return true;
  }
};

} // namespace

bool checkfence::support::parseJson(const std::string &Text,
                                    JsonValue &Out, std::string &Error) {
  Parser P(Text, Error);
  return P.parse(Out);
}
