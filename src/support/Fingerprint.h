//===--- Fingerprint.h - content hashing for caches/corpora -----*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one content-hashing path shared by every subsystem that keys work
/// by "what program is this": the Verifier's result cache and the
/// explore corpus. FNV-1a over the *lowered* program text
/// (lsl::printProgram), so any semantic change - a removed fence, a
/// flipped define, a different test - changes the fingerprint while
/// whitespace-only source differences do not. A fence-blind variant
/// keys work that fence placement cannot affect.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SUPPORT_FINGERPRINT_H
#define CHECKFENCE_SUPPORT_FINGERPRINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace checkfence {
namespace lsl {
class Program;
}
namespace support {

/// FNV-1a 64-bit over \p Data.
uint64_t fnv1a(const std::string &Data);

/// fnv1a rendered as the canonical 16-digit lowercase hex string used in
/// cache keys and corpus filenames.
std::string fnv1aHex(const std::string &Data);

/// Fingerprint of one or more lowered programs plus the test-thread
/// procedure names. \p Spec may be null (no reference program).
std::string loweredProgramFingerprint(const lsl::Program &Impl,
                                      const std::vector<std::string> &Threads,
                                      const lsl::Program *Spec = nullptr);

/// Fingerprint of \p Prog modulo fence placement, plus the test-thread
/// procedure names (lsl::printProgramFenceBlind). Keys serial-model
/// artifacts - the mined specification - that fences cannot change, so
/// fenced, stripped and partially fenced variants of one program share
/// them (engine::SpecStore).
std::string fenceBlindFingerprint(const lsl::Program &Prog,
                                  const std::vector<std::string> &Threads);

} // namespace support
} // namespace checkfence

#endif // CHECKFENCE_SUPPORT_FINGERPRINT_H
