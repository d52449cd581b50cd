//===--- SpecStore.h - request-scoped mined-specification store -*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Specifications are mined from serial executions only (Sec. 3.2), so a
/// mined observation set depends on neither the target memory model nor
/// fence placement - fences are no-ops under the serial model. A request
/// that checks one program on many lattice points (a matrix or sweep, a
/// weakest-model search) or many fence variants of one program (fence
/// synthesis) therefore needs each specification only once.
///
/// SpecStore holds those specifications for the lifetime of one request.
/// CheckSession::check looks a key up before mining and publishes what it
/// mined on a miss. A key names everything the observation set depends
/// on: the fence-blind lowered program and test threads
/// (support::fenceBlindFingerprint), the mining loop bounds, and the
/// encoding options (order encoding, range analysis, observation cap).
/// Only complete, clean enumerations are published - never a sequential
/// bug or an error - and the published sets are immutable, so a hit is
/// exactly what a fresh mine would enumerate.
///
/// Thread-safe: parallel matrix cells and synthesis checks share one
/// store. Two cells that miss the same key concurrently both mine; the
/// first publish wins and the sets are equal anyway.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENGINE_SPECSTORE_H
#define CHECKFENCE_ENGINE_SPECSTORE_H

#include "checker/Observation.h"
#include "trans/Flattener.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace checkfence {
namespace engine {

class SpecStore {
public:
  using SpecPtr = std::shared_ptr<const checker::ObservationSet>;

  SpecStore() = default;
  SpecStore(const SpecStore &) = delete;
  SpecStore &operator=(const SpecStore &) = delete;

  /// Renders the key of a specification: \p Prefix (the per-check part,
  /// fingerprint plus options) followed by the mining \p Bounds.
  static std::string key(const std::string &Prefix,
                         const trans::LoopBounds &Bounds);

  /// The published specification under \p Key, or null.
  SpecPtr find(const std::string &Key);

  /// Publishes \p Spec under \p Key unless a specification is already
  /// there (then the stored one stays; both are the same set).
  void publish(const std::string &Key, checker::ObservationSet Spec);

  /// Distinct specifications published so far.
  size_t size() const;
  /// Lookups answered from the store.
  size_t hits() const;

private:
  mutable std::mutex Mu;
  std::map<std::string, SpecPtr> Specs;
  size_t Hits = 0;
};

} // namespace engine
} // namespace checkfence

#endif // CHECKFENCE_ENGINE_SPECSTORE_H
