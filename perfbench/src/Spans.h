//===--- Spans.h - in-memory span recorder for traced runs ------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: RAII spans around the calls it makes into
/// each layer, kept in memory and written out once at exit as Chrome
/// trace-event JSON ("ph":"X" complete events; args carry the span id and
/// the id of the span that caused it). run.py derives per-layer self time
/// from the file: a span's duration minus the part its child spans cover.
///
/// Disabled recorders cost one branch per span; the untraced runs that
/// produce the end-to-end metrics never enable one.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t monotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
public:
  struct Record {
    std::string Name;
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 = root
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int Thread = 0;
  };

  /// A span open for the lifetime of the object. Spans opened on one
  /// thread while another is open nest under it.
  class Scope {
  public:
    Scope(SpanRecorder &Rec, std::string Name) : Rec(Rec) {
      if (!Rec.Enabled)
        return;
      R.Name = std::move(Name);
      R.Id = ++Rec.NextId;
      R.Parent = current();
      R.Thread = threadIndex();
      current() = R.Id;
      R.StartNs = monotonicNs();
    }
    ~Scope() {
      if (!Rec.Enabled)
        return;
      R.EndNs = monotonicNs();
      current() = R.Parent;
      std::lock_guard<std::mutex> Lock(Rec.M);
      Rec.Records.push_back(std::move(R));
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &Rec;
    Record R;
  };

  void enable() { Enabled = true; }
  bool enabled() const { return Enabled; }

  /// Writes every recorded span as Chrome trace-event JSON. False on I/O
  /// failure.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::lock_guard<std::mutex> Lock(M);
    std::fputs("{\"traceEvents\": [\n", F);
    for (size_t I = 0; I < Records.size(); ++I) {
      const Record &R = Records[I];
      // Names are benchmark-chosen identifiers: no JSON escaping needed.
      std::fprintf(F,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu}}%s\n",
                   R.Name.c_str(), R.Thread, R.StartNs / 1e3,
                   (R.EndNs - R.StartNs) / 1e3,
                   static_cast<unsigned long long>(R.Id),
                   static_cast<unsigned long long>(R.Parent),
                   I + 1 < Records.size() ? "," : "");
    }
    std::fputs("]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  static uint64_t &current() {
    thread_local uint64_t Open = 0;
    return Open;
  }
  static int threadIndex() {
    static std::atomic<int> Next{0};
    thread_local int Index = Next++;
    return Index;
  }

  bool Enabled = false;
  std::atomic<uint64_t> NextId{0};
  mutable std::mutex M;
  std::vector<Record> Records;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
