//===--- Cache.h - cross-run result cache -----------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Verifier's cross-run result cache. Entries are complete public
/// Results keyed by (program fingerprint | options fingerprint), so a hit
/// reproduces the original run byte-for-byte in timing-free JSON.
/// Passing entries additionally publish their final loop bounds under the
/// program fingerprint alone: a later run of the same program under
/// different options seeds its lazy unrolling from them (the paper's
/// Fig. 10 re-run workflow).
///
/// The cache serializes to a text file (load/save): a versioned header
/// line, then one JSON line per entry holding its key and the Result in
/// the wire encoding (api/ResultCodec.h), so every field - all six
/// timings included - survives a reload exactly. This makes the cache
/// persistent across processes when the Verifier is configured with a
/// cache path. Thread-safe.
///
/// Persistence is safe for concurrent multi-process use: load() *merges*
/// the file into memory (in-memory entries win on key collisions), and
/// save() re-reads the file, overlays the in-memory entries, and writes
/// the union via a temp file + atomic rename, all under an advisory
/// flock on `<path>.lock`. A daemon and ad-hoc CLI runs sharing one
/// cache file can therefore never corrupt it or silently drop each
/// other's entries - the worst case is reading a slightly stale view.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_API_CACHE_H
#define CHECKFENCE_API_CACHE_H

#include "checkfence/Result.h"
#include "checkfence/Verifier.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace checkfence {
namespace api {

class ResultCache {
public:
  /// The stored result for \p Key (FromCache set), or nullopt. Counts a
  /// hit or a miss.
  std::optional<Result> lookup(const std::string &Key);

  /// Stores \p R under \p Key; a passing result also publishes its
  /// FinalBounds under \p ProgramFp.
  void insert(const std::string &Key, const std::string &ProgramFp,
              const Result &R);

  /// Final bounds of a previous passing run of this program, if any.
  std::optional<std::map<std::string, int>>
  boundsFor(const std::string &ProgramFp);

  /// Records that a run's initial bounds were seeded from the cache.
  void noteSeed();

  CacheStats stats() const;
  void clear();

  /// Text-file persistence. load() merges the file into the current
  /// contents (in-memory entries win) and is tolerant of missing files
  /// (returns false, cache left unchanged); a file with an older header
  /// or any malformed entry is refused whole, merging nothing. save()
  /// merges the current contents into the file atomically (see the class
  /// comment); it refuses (false) to overwrite a non-empty file that
  /// load() would refuse.
  bool load(const std::string &Path);
  bool save(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::map<std::string, Result> Entries;
  std::map<std::string, std::map<std::string, int>> PassBounds;
  CacheStats Counters;
};

} // namespace api
} // namespace checkfence

#endif // CHECKFENCE_API_CACHE_H
