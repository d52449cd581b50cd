//===--- Fingerprint.cpp - content hashing for caches/corpora ----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "support/Fingerprint.h"

#include "lsl/Printer.h"
#include "support/Format.h"

using namespace checkfence;

uint64_t checkfence::support::fnv1a(const std::string &Data) {
  uint64_t H = 1469598103934665603ull;
  for (char C : Data) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

std::string checkfence::support::fnv1aHex(const std::string &Data) {
  return formatString("%016llx",
                      static_cast<unsigned long long>(fnv1a(Data)));
}

std::string checkfence::support::loweredProgramFingerprint(
    const lsl::Program &Impl, const std::vector<std::string> &Threads,
    const lsl::Program *Spec) {
  // 0x1f separators keep the blob unambiguous: the printer never emits
  // control characters, so adjacent sections cannot alias.
  std::string Blob = lsl::printProgram(Impl);
  Blob += '\x1f';
  Blob += joinStrings(Threads, ",");
  Blob += '\x1f';
  if (Spec)
    Blob += lsl::printProgram(*Spec);
  return fnv1aHex(Blob);
}

std::string checkfence::support::fenceBlindFingerprint(
    const lsl::Program &Prog, const std::vector<std::string> &Threads) {
  std::string Blob = lsl::printProgramFenceBlind(Prog);
  Blob += '\x1f';
  Blob += joinStrings(Threads, ",");
  return fnv1aHex(Blob);
}
