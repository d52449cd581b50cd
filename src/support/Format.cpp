//===--- Format.cpp - printf-style formatting into std::string -----------===//

#include "support/Format.h"

#include <cstdio>

using namespace checkfence;

std::string checkfence::formatStringV(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Needed <= 0)
    return std::string();
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  return Result;
}

std::string checkfence::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = formatStringV(Fmt, Args);
  va_end(Args);
  return Result;
}

std::string checkfence::joinStrings(const std::vector<std::string> &Parts,
                                    const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string checkfence::escapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
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
      Out += C;
    }
  }
  return Out;
}

std::string checkfence::unescapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    switch (S[++I]) {
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    default:
      Out += S[I];
    }
  }
  return Out;
}
