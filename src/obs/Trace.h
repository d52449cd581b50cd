//===- obs/Trace.h - Span tracer emitting Chrome trace-event JSON ---------===//
//
// A lightweight, thread-safe span tracer for the verification pipeline.
//
// Design goals:
//  - Zero cost when disabled: a Span constructed while no Tracer is
//    installed reads no clock, takes no lock, and allocates nothing.
//  - Lock-cheap when enabled: events land in sharded mutex-protected
//    buffers selected by thread identity, so concurrent workers rarely
//    contend.
//  - Purely observational: tracing records wall-clock timings but never
//    influences scheduling, verdicts, or report contents. Timing-free
//    JSON output is byte-identical with tracing on or off.
//
// The output is Chrome trace-event format ("traceEvents" with "X"
// complete events), loadable in Perfetto (https://ui.perfetto.dev) and
// chrome://tracing. Span names are deterministic (derived from request
// structure, never from pointers or timings); only ts/dur vary run to
// run.
//
// Installation is per-thread via a thread-local current-tracer pointer.
// `TraceContext` installs a tracer for a scope (RAII); thread fan-out
// points (engine::parallelFor, server shard workers) capture the
// parent's tracer and reinstall it in each worker so spans from all
// threads land in the same trace.
//
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_OBS_TRACE_H
#define CHECKFENCE_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace checkfence {
namespace support {
class JsonValue;
} // namespace support
namespace obs {

/// One recorded span. Times are nanoseconds since the owning tracer's
/// epoch (its construction time).
struct TraceEvent {
  std::string Name;
  std::string Cat;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t Tid = 0;
  /// Process lane. 0 is the local process; events imported from a
  /// remote server are shifted to a distinct lane so Perfetto shows
  /// client and server timelines side by side.
  uint32_t Pid = 0;
  /// Optional pre-rendered JSON object for the "args" field ("" = none).
  std::string Args;
};

/// Collects spans from many threads and renders Chrome trace JSON.
class Tracer {
public:
  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Nanoseconds since this tracer's epoch (steady clock).
  uint64_t nowNs() const;

  /// Record a completed span with explicit endpoints. Used by the RAII
  /// Span and by manual interval recording (e.g. server queue wait,
  /// whose start predates the worker picking the job up).
  void record(const char *Cat, std::string Name, uint64_t StartNs,
              uint64_t EndNs, std::string Args = std::string());

  /// Record an event imported from another process, placing it in lane
  /// `Pid` and shifting its timestamps by `ShiftNs` to line up with the
  /// local timeline.
  void recordForeign(const TraceEvent &Ev, uint32_t Pid, int64_t ShiftNs);

  /// Number of events recorded so far.
  size_t eventCount() const;

  /// Snapshot all events (sorted by lane, thread, then start time).
  std::vector<TraceEvent> events() const;

  /// Render the bare JSON array of trace events (wire form, used to
  /// ship server-side spans back to the client inside the RPC result
  /// envelope).
  std::string eventsJson() const;

  /// Render a complete Chrome trace-event document:
  ///   {"traceEvents":[...],"displayTimeUnit":"ms"}
  std::string json() const;

  /// Write `json()` to a file. Returns false on I/O error.
  bool writeFile(const std::string &Path) const;

  /// Parse a JSON array of trace events (the `eventsJson()` wire form).
  /// Returns false if `Text` is not a valid event array; on success the
  /// parsed events are appended to `Out`.
  static bool parseEvents(const std::string &Text,
                          std::vector<TraceEvent> &Out);
  /// Same, over an already-parsed JSON array (the RPC envelope's
  /// "trace" member).
  static bool parseEvents(const support::JsonValue &Arr,
                          std::vector<TraceEvent> &Out);

private:
  static constexpr size_t NumShards = 8;
  struct Shard {
    mutable std::mutex Mu;
    std::vector<TraceEvent> Events;
  };
  Shard &shardForThisThread() const;

  mutable Shard Shards[NumShards];
  std::chrono::steady_clock::time_point Epoch;
};

/// The tracer currently installed on this thread, or nullptr when
/// tracing is disabled (the common case).
Tracer *currentTracer();

/// Stable small integer identifying the calling thread in trace output.
uint32_t currentTraceTid();

/// RAII: installs `T` as the current tracer for this thread for the
/// lifetime of the scope. Passing nullptr is a no-op (the previously
/// installed tracer, if any, stays active) so callers can compose
/// optional tracing without special cases.
class TraceContext {
public:
  explicit TraceContext(Tracer *T);
  ~TraceContext();
  TraceContext(const TraceContext &) = delete;
  TraceContext &operator=(const TraceContext &) = delete;

private:
  Tracer *Prev = nullptr;
  bool Installed = false;
};

/// RAII span. Captures the current tracer at construction; if none is
/// installed the span is inert (no clock read, no allocation).
class Span {
public:
  /// Span with a static name. `Cat` and `Name` must outlive the span
  /// (string literals in practice).
  Span(const char *Cat, const char *Name) : T(currentTracer()) {
    if (!T)
      return;
    Cat_ = Cat;
    Name_ = Name;
    StartNs = T->nowNs();
  }

  /// Span with a lazily computed name: `NameFn` is only invoked (and
  /// its result only allocated) when a tracer is installed.
  template <typename NameFn,
            typename = std::enable_if_t<!std::is_convertible<
                NameFn, const char *>::value>>
  Span(const char *Cat, NameFn &&Fn) : T(currentTracer()) {
    if (!T)
      return;
    Cat_ = Cat;
    Name_ = std::forward<NameFn>(Fn)();
    StartNs = T->nowNs();
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Whether this span will be recorded. Lets callers skip building
  /// args strings when tracing is off.
  bool active() const { return T != nullptr; }

  /// Attach a pre-rendered JSON object as the span's "args". No-op when
  /// inert.
  void args(std::string JsonObject) {
    if (T)
      Args_ = std::move(JsonObject);
  }

  ~Span() {
    if (T)
      T->record(Cat_ ? Cat_ : "", std::move(Name_), StartNs, T->nowNs(),
                std::move(Args_));
  }

private:
  Tracer *T;
  const char *Cat_ = nullptr;
  std::string Name_;
  std::string Args_;
  uint64_t StartNs = 0;
};

} // namespace obs
} // namespace checkfence

#endif // CHECKFENCE_OBS_TRACE_H
