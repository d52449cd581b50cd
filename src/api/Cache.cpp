//===--- Cache.cpp - cross-run result cache ----------------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "api/Cache.h"

#include "checkfence/checkfence.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace checkfence;
using namespace checkfence::api;

namespace {

/// The file header carries the library version: a persisted cache from
/// a different release is rejected on load (verdicts may have changed),
/// not replayed. Verifier then avoids clobbering the unrecognized file.
std::string fileHeader() {
  return std::string("checkfence-result-cache 2 ") + versionString();
}

std::optional<Status> statusFromName(const std::string &Name) {
  for (Status S : {Status::Pass, Status::Fail, Status::SequentialBug,
                   Status::BoundsExhausted, Status::Error,
                   Status::Cancelled})
    if (Name == statusName(S))
      return S;
  return std::nullopt;
}

/// "tag rest-of-line" split; Rest may be empty.
bool splitTag(const std::string &Line, std::string &Tag,
              std::string &Rest) {
  size_t Sp = Line.find(' ');
  if (Sp == std::string::npos) {
    Tag = Line;
    Rest.clear();
  } else {
    Tag = Line.substr(0, Sp);
    Rest = Line.substr(Sp + 1);
  }
  return !Tag.empty();
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

/// Parses one cache file into \p Out. False on a missing file, a header
/// from another library version, or any malformed entry (partial
/// results are discarded - never half-merge a corrupt file).
bool parseCacheFile(const std::string &Path,
                    std::map<std::string, Result> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  if (!std::getline(In, Line) || Line != fileHeader())
    return false;

  std::map<std::string, Result> NewEntries;
  std::string Key;
  Result R;
  bool InEntry = false;

  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::string Tag, Rest;
    if (!splitTag(Line, Tag, Rest))
      return false;
    if (Tag == "entry") {
      if (InEntry || Rest.empty())
        return false;
      Key = Rest;
      R = Result{};
      InEntry = true;
    } else if (!InEntry) {
      return false;
    } else if (Tag == "impl") {
      R.Impl = unescapeLine(Rest);
    } else if (Tag == "test") {
      R.Test = unescapeLine(Rest);
    } else if (Tag == "model") {
      R.Model = unescapeLine(Rest);
    } else if (Tag == "status") {
      auto S = statusFromName(Rest);
      if (!S)
        return false;
      R.Verdict = *S;
    } else if (Tag == "message") {
      R.Message = unescapeLine(Rest);
    } else if (Tag == "stats") {
      if (std::sscanf(Rest.c_str(), "%d %d %d %d %d %d %llu",
                      &R.Stats.ObservationCount, &R.Stats.BoundIterations,
                      &R.Stats.UnrolledInstrs, &R.Stats.Loads,
                      &R.Stats.Stores, &R.Stats.SatVars,
                      &R.Stats.SatClauses) != 7)
        return false;
    } else if (Tag == "times") {
      if (std::sscanf(Rest.c_str(), "%lf %lf %lf %lf",
                      &R.Stats.EncodeSeconds, &R.Stats.SolveSeconds,
                      &R.Stats.MiningSeconds,
                      &R.Stats.TotalSeconds) != 4)
        return false;
    } else if (Tag == "obs") {
      size_t N = std::strtoull(Rest.c_str(), nullptr, 10);
      R.Observations.clear();
      for (size_t I = 0; I < N; ++I) {
        if (!std::getline(In, Line) || Line.rfind("o ", 0) != 0)
          return false;
        R.Observations.push_back(unescapeLine(Line.substr(2)));
      }
    } else if (Tag == "cex") {
      R.HasCounterexample = Rest == "1";
    } else if (Tag == "ct") {
      R.CounterexampleTrace = unescapeLine(Rest);
    } else if (Tag == "cc") {
      R.CounterexampleColumns = unescapeLine(Rest);
    } else if (Tag == "co") {
      R.CounterexampleObservation = unescapeLine(Rest);
    } else if (Tag == "bounds") {
      size_t N = std::strtoull(Rest.c_str(), nullptr, 10);
      R.FinalBounds.clear();
      for (size_t I = 0; I < N; ++I) {
        if (!std::getline(In, Line) || Line.rfind("b ", 0) != 0)
          return false;
        int Bound = 0;
        int Consumed = 0;
        if (std::sscanf(Line.c_str(), "b %d %n", &Bound, &Consumed) != 1)
          return false;
        R.FinalBounds[unescapeLine(Line.substr(Consumed))] = Bound;
      }
    } else if (Tag == "end") {
      NewEntries[Key] = R;
      InEntry = false;
    } else {
      return false; // unknown tag: refuse rather than misread
    }
  }
  if (InEntry)
    return false;
  Out = std::move(NewEntries);
  return true;
}

/// Renders \p Entries in the line-oriented cache format (header
/// included). Deterministic: entries print in key order.
std::string renderCacheFile(const std::map<std::string, Result> &Entries) {
  std::ostringstream OS;
  OS << fileHeader() << "\n";
  for (const auto &[Key, R] : Entries) {
    OS << "entry " << Key << "\n";
    OS << "impl " << escapeLine(R.Impl) << "\n";
    OS << "test " << escapeLine(R.Test) << "\n";
    OS << "model " << escapeLine(R.Model) << "\n";
    OS << "status " << statusName(R.Verdict) << "\n";
    OS << "message " << escapeLine(R.Message) << "\n";
    OS << formatString("stats %d %d %d %d %d %d %llu\n",
                       R.Stats.ObservationCount, R.Stats.BoundIterations,
                       R.Stats.UnrolledInstrs, R.Stats.Loads,
                       R.Stats.Stores, R.Stats.SatVars,
                       R.Stats.SatClauses);
    OS << formatString("times %.6f %.6f %.6f %.6f\n",
                       R.Stats.EncodeSeconds, R.Stats.SolveSeconds,
                       R.Stats.MiningSeconds, R.Stats.TotalSeconds);
    OS << "obs " << R.Observations.size() << "\n";
    for (const std::string &O : R.Observations)
      OS << "o " << escapeLine(O) << "\n";
    OS << "cex " << (R.HasCounterexample ? 1 : 0) << "\n";
    if (R.HasCounterexample) {
      OS << "ct " << escapeLine(R.CounterexampleTrace) << "\n";
      OS << "cc " << escapeLine(R.CounterexampleColumns) << "\n";
      OS << "co " << escapeLine(R.CounterexampleObservation) << "\n";
    }
    OS << "bounds " << R.FinalBounds.size() << "\n";
    for (const auto &[Loop, Bound] : R.FinalBounds)
      OS << formatString("b %d ", Bound) << escapeLine(Loop) << "\n";
    OS << "end\n";
  }
  return OS.str();
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
  // identical - keys are content fingerprints).
  FileLock Lock(Path);
  std::map<std::string, Result> Union;
  parseCacheFile(Path, Union); // missing/foreign file: start empty
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
    Out << renderCacheFile(Union);
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
