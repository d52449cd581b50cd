//===--- Cache.cpp - cross-run result cache ----------------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "api/Cache.h"

#include "api/ResultCodec.h"
#include "checkfence/checkfence.h"
#include "support/Format.h"
#include "support/Json.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace checkfence;
using namespace checkfence::api;

namespace {

/// The file header carries the format and library versions: a cache
/// from an older format or a different release is rejected on load
/// (verdicts may have changed), not replayed. Verifier then avoids
/// clobbering the unrecognized file.
std::string fileHeader() {
  return std::string("checkfence-result-cache 3 ") + versionString();
}

/// Advisory cross-process lock guarding the read-merge-rename persistence
/// sequence: all writers (and load's readers) of one cache file serialize
/// on `<path>.lock`. Missing lock support degrades to best-effort (the
/// atomic rename still prevents torn files).
class FileLock {
public:
  explicit FileLock(const std::string &Path) {
    Fd = ::open((Path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                0644);
    if (Fd >= 0 && ::flock(Fd, LOCK_EX) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~FileLock() {
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
  }
  FileLock(const FileLock &) = delete;
  FileLock &operator=(const FileLock &) = delete;

private:
  int Fd = -1;
};

/// Parses one cache file into \p Out: after the header, one line per
/// entry, {"key": ..., "result": <api::encodeResult>}. False on a missing
/// file, a header from another format or library version, or any
/// malformed entry (partial results are discarded - never half-merge a
/// corrupt file).
bool parseCacheFile(const std::string &Path,
                    std::map<std::string, Result> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  if (!std::getline(In, Line) || Line != fileHeader())
    return false;

  std::map<std::string, Result> NewEntries;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    support::JsonValue Entry;
    std::string Error;
    if (!support::parseJson(Line, Entry, Error))
      return false;
    std::string Key = Entry.at("key").asString();
    const support::JsonValue *R = Entry.find("result");
    if (Key.empty() || !R || !decodeResult(*R, NewEntries[Key], Error))
      return false;
  }
  Out = std::move(NewEntries);
  return true;
}

/// Publishes a passing entry's final bounds under its program
/// fingerprint (the part of the key before '|').
void publishBounds(std::map<std::string, std::map<std::string, int>> &PB,
                   const std::string &Key, const Result &R) {
  size_t Bar = Key.find('|');
  if (Bar != std::string::npos && R.Verdict == Status::Pass &&
      !R.FinalBounds.empty())
    PB[Key.substr(0, Bar)] = R.FinalBounds;
}

} // namespace

std::optional<Result> ResultCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    ++Counters.Misses;
    return std::nullopt;
  }
  ++Counters.Hits;
  Result R = It->second;
  R.FromCache = true;
  return R;
}

void ResultCache::insert(const std::string &Key,
                         const std::string &ProgramFp, const Result &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  Result Stored = R;
  Stored.FromCache = false;
  Entries[Key] = std::move(Stored);
  if (R.Verdict == Status::Pass)
    PassBounds[ProgramFp] = R.FinalBounds;
}

std::optional<std::map<std::string, int>>
ResultCache::boundsFor(const std::string &ProgramFp) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = PassBounds.find(ProgramFp);
  if (It == PassBounds.end() || It->second.empty())
    return std::nullopt;
  return It->second;
}

void ResultCache::noteSeed() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counters.BoundsSeeded;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStats S = Counters;
  S.Entries = Entries.size();
  return S;
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Entries.clear();
  PassBounds.clear();
  Counters = CacheStats{};
}

bool ResultCache::save(const std::string &Path) const {
  // Read-merge-rename under the advisory file lock: another process may
  // have added entries since we loaded, and clobbering them would lose
  // results. In-memory entries win on key collisions (they are newer or
  // identical - keys are content fingerprints). A non-empty file that
  // does not parse is someone else's file, or a cache of another format
  // or version: never clobber it.
  FileLock Lock(Path);
  std::map<std::string, Result> Union;
  if (!parseCacheFile(Path, Union)) {
    // Ask the filesystem, not a second open: a non-empty file this
    // process cannot read is not ours to replace either.
    std::error_code EC;
    if (std::filesystem::file_size(Path, EC) > 0 && !EC)
      return false;
  }
  {
    std::lock_guard<std::mutex> Guard(Mu);
    for (const auto &[Key, R] : Entries)
      Union[Key] = R;
  }
  const std::string Tmp =
      Path + formatString(".tmp.%ld", static_cast<long>(::getpid()));
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return false;
    Out << fileHeader() << "\n";
    for (const auto &[Key, R] : Union)
      Out << support::JsonObject()
                 .field("key", Key)
                 .raw("result", encodeResult(R))
                 .str()
          << "\n";
    if (!Out)
      return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool ResultCache::load(const std::string &Path) {
  std::map<std::string, Result> FileEntries;
  {
    FileLock Lock(Path);
    if (!parseCacheFile(Path, FileEntries))
      return false;
  }
  // Merge, in-memory entries winning: a live Verifier's fresh results
  // outrank whatever an earlier process persisted under the same key.
  std::lock_guard<std::mutex> Guard(Mu);
  for (auto &[Key, R] : FileEntries) {
    auto [It, Inserted] = Entries.emplace(Key, std::move(R));
    if (Inserted)
      publishBounds(PassBounds, It->first, It->second);
  }
  return true;
}
