//===--- HostSpeed.h - host speed sampler of the repo benchmark -*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-speed sampling for the end-to-end metrics. On a shared virtual
/// machine each vCPU's speed flips between a fast and a slow state within
/// seconds (its hyperthread sibling is busy or not: the same loop took
/// 10.7 ms on one vCPU and 15 ms on another at the same moment, and each
/// vCPU changed state every few seconds on a 4-vCPU host). Wall times
/// alone then spread by 20-30% between runs of identical work.
///
/// So a workload runs pinned to its first N allowed CPUs (N = the threads
/// it keeps busy), and a background thread visits those CPUs in turn,
/// timing a fixed kernel: sorting a 4096-element random array four times,
/// about 1 ms, no library code. Wall time, so that time the hypervisor
/// takes the vCPU away slows the kernel as it slows the workload; the
/// median over a window drops the samples the workload's own threads
/// preempted. Sorting is
/// branchy, mispredicting, L1-resident work, so it slows down with the
/// core the way the checker does (a dependent pointer chase did not: it
/// leaves the core's shared units idle and missed most slow spells). run.py
/// rescales every op's wall time by the speed those CPUs had while it ran.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include "Spans.h"
#include "Workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Pins the calling thread, and so every thread it starts later, to its
/// first \p N allowed CPUs (all of them if fewer); returns those CPUs.
inline std::vector<int> pinToCpus(int N) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int C = 0; C < CPU_SETSIZE && static_cast<int>(Cpus.size()) < N;
         ++C)
      if (CPU_ISSET(C, &Allowed))
        Cpus.push_back(C);
  if (Cpus.empty())
    return Cpus;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
  return Cpus;
}

class HostSpeed {
public:
  struct Sample {
    int64_t StartNs; ///< monotonic
    int Cpu;         ///< -1 when the process could not be pinned
    int64_t KernelNs; ///< wall time of one kernel run
  };

  /// The pause between samples.
  static constexpr int PeriodMs = 20;

  explicit HostSpeed(std::vector<int> Cpus) : Cpus(std::move(Cpus)) {
    Rng R = streamFor(0xca1bULL, 5);
    for (int I = 0; I < 4096; ++I)
      Input.push_back(static_cast<uint32_t>(R.next()));
  }
  ~HostSpeed() { stop(); }

  void start() {
    Stop = false;
    Thread = std::thread([this] {
      for (size_t Turn = 0; !Stop; ++Turn) {
        const int Cpu = Cpus.empty() ? -1 : Cpus[Turn % Cpus.size()];
        if (Cpu >= 0) {
          cpu_set_t Set;
          CPU_ZERO(&Set);
          CPU_SET(Cpu, &Set);
          sched_setaffinity(0, sizeof(Set), &Set);
        }
        // Sleep first: the thread wakes up on the CPU it was moved to.
        std::this_thread::sleep_for(std::chrono::milliseconds(PeriodMs));
        const int64_t T0 = monotonicNs();
        const int64_t Ns = kernel();
        std::lock_guard<std::mutex> Lock(M);
        Samples.push_back({T0, Cpu, Ns});
      }
    });
  }

  void stop() {
    Stop = true;
    if (Thread.joinable())
      Thread.join();
  }

  std::vector<Sample> samples() {
    std::lock_guard<std::mutex> Lock(M);
    return Samples;
  }

  /// The median wall time of three kernel runs on the calling thread, in
  /// nanoseconds (the speed right after set-up, for set-up time).
  int64_t sampleHere() {
    int64_t Ns[3];
    for (int64_t &N : Ns)
      N = kernel();
    std::sort(Ns, Ns + 3);
    return Ns[1];
  }

private:
  /// Runs the kernel once; its wall time in nanoseconds.
  int64_t kernel() {
    const int64_t T0 = monotonicNs();
    for (int Rep = 0; Rep < 4; ++Rep) {
      Work = Input;
      std::sort(Work.begin(), Work.end());
      Sink += Work[Rep];
    }
    return monotonicNs() - T0;
  }

  std::vector<int> Cpus;
  std::vector<uint32_t> Input, Work;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Sink{0};
  std::thread Thread;
  std::mutex M;
  std::vector<Sample> Samples;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
