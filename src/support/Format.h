//===--- Format.h - printf-style formatting into std::string ----*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small formatting helpers used throughout the library. Library code never
/// includes <iostream>; everything renders into std::string and executables
/// decide where the bytes go.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SUPPORT_FORMAT_H
#define CHECKFENCE_SUPPORT_FORMAT_H

#include <cstdarg>
#include <string>
#include <vector>

namespace checkfence {

/// Formats like printf and returns the result as a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf-style variant of formatString.
std::string formatStringV(const char *Fmt, va_list Args);

/// Joins \p Parts with \p Sep ("a", "b" -> "a, b" for Sep = ", ").
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Sep);

/// One-line escaping for free-text fields in the line-oriented
/// persistence formats (result cache, explore corpus): \n, \t, \\.
std::string escapeLine(const std::string &S);
std::string unescapeLine(const std::string &S);

} // namespace checkfence

#endif // CHECKFENCE_SUPPORT_FORMAT_H
