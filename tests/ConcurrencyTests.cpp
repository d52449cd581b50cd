//===--- ConcurrencyTests.cpp - one Verifier, many threads --------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// The Verifier documents itself as safe to share across threads; the
// checkfenced server leans on that by pointing every connection of a
// shard at one instance. These tests hammer that contract - mixed
// request kinds racing on one Verifier, overlapping program
// fingerprints contending on the result cache, cancellation
// of one request mid-flight among unrelated ones, a cache shared
// between Verifiers, and concurrent persistence to one file - and are
// run under ThreadSanitizer in CI (the `sanitizers` job), where any
// data race is fatal rather than flaky.
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace checkfence;

namespace {

/// Runs \p Fn on \p N threads and joins them.
template <typename Fn>
void onThreads(int N, Fn F) {
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([I, &F] { F(I); });
  for (std::thread &T : Threads)
    T.join();
}

TEST(Concurrency, MixedKindsShareOneVerifier) {
  Verifier V;
  std::atomic<int> Mismatches{0};
  // Four workload flavors, two threads each. The check threads run the
  // same (program, model) pairs deliberately: identical fingerprints
  // race on the result cache.
  onThreads(8, [&](int I) {
    for (int Round = 0; Round < 3; ++Round) {
      switch (I % 4) {
      case 0: {
        Result R = V.check(Request::check("ms2", "T0").model("sc"));
        if (R.Verdict != Status::Pass)
          ++Mismatches;
        break;
      }
      case 1: {
        Result R = V.check(Request::check("snark", "D0").model("sc"));
        if (R.Verdict != Status::Fail || !R.HasCounterexample)
          ++Mismatches;
        break;
      }
      case 2: {
        Report R = V.matrix(Request::matrix()
                                .impls({"ms2"})
                                .tests({"T0"})
                                .models({"sc", "tso"}));
        if (!R.ok() || !R.allCompleted() ||
            R.count(Status::Pass) != 2)
          ++Mismatches;
        break;
      }
      case 3: {
        Request Req = Request::check("ms2", "T0");
        Req.RequestKind = Request::Kind::Analyze;
        AnalysisOutcome A = V.analyze(Req);
        if (!A.Ok)
          ++Mismatches;
        break;
      }
      }
    }
  });
  EXPECT_EQ(Mismatches, 0);
  // The overlapping check fingerprints must have produced cache reuse.
  CacheStats Stats = V.cacheStats();
  EXPECT_GE(Stats.Hits, 1u);
}

TEST(Concurrency, HitsAreByteIdenticalUnderContention) {
  Verifier V;
  Request Req = Request::check("ms2", "T0").model("tso");
  const std::string Expected = V.check(Req).json(false);
  std::atomic<int> Mismatches{0};
  onThreads(6, [&](int) {
    for (int Round = 0; Round < 4; ++Round)
      if (V.check(Req).json(false) != Expected)
        ++Mismatches;
  });
  EXPECT_EQ(Mismatches, 0);
}

TEST(Concurrency, CancellingOneRequestLeavesOthersAlone) {
  Verifier V;
  CancelToken Token;
  std::atomic<int> Mismatches{0};
  std::atomic<bool> SlowDone{false};
  std::thread Slow([&] {
    // Cancelled mid-flight (or finished first on a fast machine - both
    // are legal; what matters is that the verdict is one of the two and
    // nobody else is disturbed).
    Result R =
        V.check(Request::check("ms2", "Tpc2").model("sc"), nullptr, Token);
    if (R.Verdict != Status::Cancelled && R.Verdict != Status::Pass)
      ++Mismatches;
    SlowDone = true;
  });
  onThreads(4, [&](int) {
    for (int Round = 0; Round < 3; ++Round) {
      Result R = V.check(Request::check("ms2", "T0").model("sc"));
      if (R.Verdict != Status::Pass)
        ++Mismatches;
    }
  });
  Token.cancel();
  Slow.join();
  EXPECT_TRUE(SlowDone);
  EXPECT_EQ(Mismatches, 0);
  // The verifier stays healthy after a concurrent cancellation.
  EXPECT_EQ(V.check(Request::check("ms2", "T0").model("sc")).Verdict,
            Status::Pass);
}

TEST(Concurrency, SharedCacheAcrossVerifiers) {
  SharedResultCache Shared = SharedResultCache::create();
  ASSERT_TRUE(Shared.valid());
  VerifierConfig Cfg;
  Cfg.SharedCache = Shared;
  Verifier A(Cfg), B(Cfg);
  Request Req = Request::check("ms2", "T0").model("sc");

  std::atomic<int> Mismatches{0};
  onThreads(4, [&](int I) {
    Verifier &V = (I % 2) ? A : B;
    for (int Round = 0; Round < 3; ++Round)
      if (V.check(Req).Verdict != Status::Pass)
        ++Mismatches;
  });
  EXPECT_EQ(Mismatches, 0);
  // 12 identical checks over one shared cache: up to one miss per
  // thread can race the first insert, everything after hits, visible
  // from both verifiers and the handle alike.
  EXPECT_EQ(Shared.stats().Entries, 1u);
  EXPECT_GE(Shared.stats().Hits, 8u);
  EXPECT_TRUE(A.check(Req).FromCache);
  EXPECT_TRUE(B.check(Req).FromCache);
}

TEST(Concurrency, ConcurrentPersistenceToOneFile) {
  std::string Path = testing::TempDir() + "cf_concurrent_cache.txt";
  std::remove(Path.c_str());

  // Each thread owns a private-cache Verifier with a distinct entry and
  // repeatedly merge-saves into one file while others do the same (the
  // locked read-merge-rename path the daemon and CLI share).
  const char *Models[] = {"sc", "tso", "pso", "rmo"};
  std::atomic<int> Failures{0};
  onThreads(4, [&](int I) {
    Verifier V;
    if (V.check(Request::check("ms2", "T0").model(Models[I])).Verdict !=
        Status::Pass)
      ++Failures;
    for (int Round = 0; Round < 3; ++Round)
      if (!V.saveCache(Path))
        ++Failures;
  });
  EXPECT_EQ(Failures, 0);

  // The merged file holds every thread's entry and stays loadable.
  SharedResultCache Merged = SharedResultCache::create();
  ASSERT_TRUE(Merged.load(Path));
  EXPECT_EQ(Merged.stats().Entries, 4u);

  // Concurrent loads into live verifiers race load-merge against checks.
  onThreads(4, [&](int I) {
    VerifierConfig Cfg;
    Cfg.SharedCache = SharedResultCache::create();
    Cfg.SharedCache.load(Path);
    Verifier V(Cfg);
    Result R = V.check(Request::check("ms2", "T0").model(Models[I]));
    if (R.Verdict != Status::Pass || !R.FromCache)
      ++Failures;
  });
  EXPECT_EQ(Failures, 0);
  std::remove(Path.c_str());
}

} // namespace
