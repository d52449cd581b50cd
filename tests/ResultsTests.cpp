//===--- ResultsTests.cpp - the paper's Sec. 4 findings as tests ------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Each test pins one qualitative claim from the evaluation section:
// which implementations pass/fail on which model, which bugs are found,
// and which failure classes appear. These are the repository's regression
// contract with the paper.
//
//===----------------------------------------------------------------------===//

#include "harness/Catalog.h"
#include "impls/Impls.h"

#include "gtest/gtest.h"

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::harness;

namespace {

RunOptions model(memmodel::ModelParams M) {
  RunOptions O;
  O.Check.Model = M;
  return O;
}

constexpr auto SC = memmodel::ModelParams::sc();
constexpr auto TSO = memmodel::ModelParams::tso();
constexpr auto PSO = memmodel::ModelParams::pso();
constexpr auto RLX = memmodel::ModelParams::relaxed();

struct GridCase {
  const char *Impl;
  const char *Test;
  memmodel::ModelParams Model;
  bool StripFences;
  Status Expected;
};

class ResultGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ResultGrid, MatchesPaper) {
  GridCase C = GetParam();
  RunOptions O = model(C.Model);
  O.StripFences = C.StripFences;
  CheckResult R = runTest(impls::sourceFor(C.Impl), testByName(C.Test), O);
  EXPECT_EQ(R.Status, C.Expected)
      << C.Impl << " on " << C.Test << ": " << R.Message
      << (R.Counterexample ? "\n" + R.Counterexample->str() : "");
}

INSTANTIATE_TEST_SUITE_P(
    Queues, ResultGrid,
    ::testing::Values(
        // The fenced implementations are correct on Relaxed...
        GridCase{"msn", "T0", RLX, false, Status::Pass},
        GridCase{"msn", "Tpc2", RLX, false, Status::Pass},
        GridCase{"ms2", "T0", RLX, false, Status::Pass},
        GridCase{"ms2", "Ti2", RLX, false, Status::Pass},
        GridCase{"ms2", "T1", RLX, false, Status::Pass},
        // ...the unfenced ones are not (Sec. 4.2)...
        GridCase{"msn", "T0", RLX, true, Status::Fail},
        GridCase{"ms2", "T0", RLX, true, Status::Fail},
        // ...but are fine under sequential consistency.
        GridCase{"msn", "T0", SC, true, Status::Pass},
        GridCase{"msn", "Tpc2", SC, true, Status::Pass},
        GridCase{"ms2", "T1", SC, true, Status::Pass}));

INSTANTIATE_TEST_SUITE_P(
    Sets, ResultGrid,
    ::testing::Values(
        GridCase{"lazylist", "Sac", RLX, false, Status::Pass},
        GridCase{"lazylist", "Sar", RLX, false, Status::Pass},
        GridCase{"lazylist", "Sar", RLX, true, Status::Fail},
        GridCase{"lazylist", "Sar", SC, true, Status::Pass},
        GridCase{"harris", "Sac", RLX, false, Status::Pass},
        GridCase{"harris", "Sar", RLX, false, Status::Pass},
        GridCase{"harris", "Sar", SC, true, Status::Pass}));

INSTANTIATE_TEST_SUITE_P(
    Deques, ResultGrid,
    ::testing::Values(
        // snark misbehaves even under SC: the first known bug, on D0.
        GridCase{"snark", "D0", SC, false, Status::Fail},
        // Da (two pops per side after two pushes) behaves under SC and
        // TSO/PSO, but snark carries no fences (the published algorithm
        // assumed SC), so Relaxed's unordered dependent loads produce a
        // counterexample - the same unfenced-failure pattern as the
        // stripped queue/set implementations. (An earlier notation-
        // parser bug dropped Da's init pushes, making the test run on
        // an empty deque where Relaxed trivially passed.)
        GridCase{"snark", "Da", SC, false, Status::Pass},
        GridCase{"snark", "Da", RLX, false, Status::Fail}));

// Sec. 4.2: "An interesting observation is that the implementations we
// studied required only load-load and store-store fences. On some
// architectures (such as Sun TSO ...), these fences are automatic and the
// algorithm therefore works without inserting any fences." TSO preserves
// exactly load-load and store-store (and load-store) order, so the
// *unfenced* implementations must verify on TSO; PSO relaxes store-store,
// so the publication-fence failures reappear there.
INSTANTIATE_TEST_SUITE_P(
    TsoPso, ResultGrid,
    ::testing::Values(
        GridCase{"msn", "T0", TSO, true, Status::Pass},
        GridCase{"msn", "Tpc2", TSO, true, Status::Pass},
        GridCase{"ms2", "T1", TSO, true, Status::Pass},
        GridCase{"lazylist", "Sar", TSO, true, Status::Pass},
        GridCase{"harris", "Sac", TSO, true, Status::Pass},
        GridCase{"msn", "T0", PSO, true, Status::Fail},
        GridCase{"ms2", "T0", PSO, true, Status::Fail},
        // The placed fences restore correctness on PSO as well.
        GridCase{"msn", "T0", PSO, false, Status::Pass},
        GridCase{"ms2", "Ti2", PSO, false, Status::Pass},
        GridCase{"harris", "Sac", PSO, false, Status::Pass}));

TEST(Results, LazylistInitBugIsSequential) {
  RunOptions O = model(SC);
  O.Defines = {"LAZYLIST_INIT_BUG"};
  CheckResult R =
      runTest(impls::sourceFor("lazylist"), testByName("Sac"), O);
  ASSERT_EQ(R.Status, Status::SequentialBug) << R.Message;
  ASSERT_TRUE(R.Counterexample.has_value());
  // The trace blames an undefined-value use (the uninitialized field).
  bool Undef = false;
  for (const std::string &E : R.Counterexample->Errors)
    if (E.find("undefined") != std::string::npos)
      Undef = true;
  EXPECT_TRUE(Undef);
}

TEST(Results, SnarkBugObservationNotSerial) {
  RunOptions O = model(SC);
  CheckResult R = runTest(impls::sourceFor("snark"), testByName("D0"), O);
  ASSERT_EQ(R.Status, Status::Fail);
  ASSERT_TRUE(R.Counterexample.has_value());
  // The counterexample's observation must not be in the mined spec.
  EXPECT_EQ(R.Spec.count(R.Counterexample->Obs), 0u);
}

TEST(Results, MsnUnfencedFailureIsIncompleteInitialization) {
  // Sec. 4.3, class 1: stripping only the first store-store fence (which
  // publishes the node fields) lets the dequeuer read an uninitialized
  // field.
  std::string Source = impls::sourceFor("msn");
  // Find the first fence (the publication fence in enqueue).
  size_t Pos = Source.find("fence(\"store-store\")");
  ASSERT_NE(Pos, std::string::npos);
  int Line = 1;
  for (size_t I = 0; I < Pos; ++I)
    if (Source[I] == '\n')
      ++Line;
  RunOptions O = model(RLX);
  O.StripFenceLines = {Line};
  CheckResult R = runTest(Source, testByName("T0"), O);
  EXPECT_EQ(R.Status, Status::Fail) << R.Message;
}

TEST(Results, SpecificationSizesMatchSemantics) {
  // T0 on any correct queue yields exactly 4 observations
  // (A in {0,1}) x (X in {A, EMPTY}).
  RunOptions O = model(RLX);
  CheckResult R = runTest(impls::sourceFor("msn"), testByName("T0"), O);
  ASSERT_EQ(R.Status, Status::Pass);
  EXPECT_EQ(R.Spec.size(), 4u);

  // Both queue implementations and the reference mine identical
  // specifications for Tpc2.
  CheckResult A = runTest(impls::sourceFor("msn"), testByName("Tpc2"), O);
  CheckResult B = runTest(impls::sourceFor("ms2"), testByName("Tpc2"), O);
  CheckResult C =
      runTest(impls::referenceFor("queue"), testByName("Tpc2"), model(SC));
  ASSERT_EQ(A.Status, Status::Pass);
  ASSERT_EQ(B.Status, Status::Pass);
  ASSERT_EQ(C.Status, Status::Pass);
  EXPECT_EQ(A.Spec, B.Spec);
  EXPECT_EQ(A.Spec, C.Spec);
}

TEST(Results, RefsetMiningGivesSameVerdict) {
  RunOptions O = model(RLX);
  O.SpecSource = impls::referenceFor("queue");
  CheckResult R = runTest(impls::sourceFor("msn"), testByName("T0"), O);
  EXPECT_EQ(R.Status, Status::Pass) << R.Message;

  RunOptions OBad = O;
  OBad.StripFences = true;
  CheckResult R2 = runTest(impls::sourceFor("msn"), testByName("T0"), OBad);
  EXPECT_EQ(R2.Status, Status::Fail);
}

TEST(Results, PrimedTestsRestrictRetries) {
  // S1 uses primed (no-retry) operations: it must encode without growing
  // any bounds (restricted loops are pinned to one iteration).
  RunOptions O = model(RLX);
  CheckResult R = runTest(impls::sourceFor("harris"), testByName("S1"), O);
  EXPECT_EQ(R.Status, Status::Pass) << R.Message;
  EXPECT_LE(R.Stats.BoundIterations, 2);
}

} // namespace
