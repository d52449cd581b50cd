//===--- RunControl.h - per-request stop check ------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one stop check of a request: its CancelToken plus an optional
/// absolute deadline. The facade builds one per request and hands it to
/// every layer that polls for a stop (the check hooks, matrix cells, the
/// explore driver and its differential runner). Not installed.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_API_RUNCONTROL_H
#define CHECKFENCE_API_RUNCONTROL_H

#include "checkfence/Events.h"

#include <chrono>

namespace checkfence {
namespace api {

struct RunControl {
  using Clock = std::chrono::steady_clock;

  CancelToken Token;
  bool HasDeadline = false;
  Clock::time_point Deadline;

  /// A control over \p Token whose deadline lies \p DeadlineSeconds from
  /// now; no deadline when \p DeadlineSeconds is not positive.
  static RunControl make(CancelToken Token, double DeadlineSeconds) {
    RunControl C;
    C.Token = std::move(Token);
    if (DeadlineSeconds > 0) {
      C.HasDeadline = true;
      C.Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          DeadlineSeconds));
    }
    return C;
  }

  bool expired() const { return HasDeadline && Clock::now() >= Deadline; }
  bool stopRequested() const { return Token.cancelled() || expired(); }

  /// Seconds until the deadline (0 = no deadline). Never below 1 ms, so
  /// a forwarded value still reads as a deadline; expiry itself shows up
  /// through stopRequested().
  double remainingSeconds() const {
    if (!HasDeadline)
      return 0;
    double S = std::chrono::duration<double>(Deadline - Clock::now()).count();
    return S > 0.001 ? S : 0.001;
  }
};

} // namespace api
} // namespace checkfence

#endif // CHECKFENCE_API_RUNCONTROL_H
