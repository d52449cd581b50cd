//===--- SpecStore.cpp - request-scoped mined-specification store ------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "engine/SpecStore.h"

#include "support/Format.h"

using namespace checkfence;
using namespace checkfence::engine;

std::string SpecStore::key(const std::string &Prefix,
                           const trans::LoopBounds &Bounds) {
  std::string Key = Prefix;
  for (const auto &[Loop, Bound] : Bounds)
    Key += formatString("|%s=%d", Loop.c_str(), Bound);
  return Key;
}

SpecStore::SpecPtr SpecStore::find(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Specs.find(Key);
  if (It == Specs.end())
    return nullptr;
  ++Hits;
  return It->second;
}

void SpecStore::publish(const std::string &Key,
                        checker::ObservationSet Spec) {
  auto Shared =
      std::make_shared<const checker::ObservationSet>(std::move(Spec));
  std::lock_guard<std::mutex> Lock(Mu);
  Specs.emplace(Key, std::move(Shared));
}

size_t SpecStore::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Specs.size();
}

size_t SpecStore::hits() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Hits;
}
