//===--- BaselineTests.cpp - commit-point method tests ----------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "baseline/CommitPointChecker.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"

#include "gtest/gtest.h"

using namespace checkfence;
using namespace checkfence::baseline;
using namespace checkfence::harness;

namespace {

CommitPointOptions scOpts() {
  CommitPointOptions O;
  O.Model = memmodel::ModelParams::sc();
  return O;
}

TEST(CommitPoint, MsnPassesT0) {
  CommitPointResult R =
      runCommitPointTest(impls::sourceFor("msn"), impls::referenceFor("queue"),
                         testByName("T0"), scOpts());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Pass);
}

TEST(CommitPoint, Ms2PassesT1) {
  CommitPointResult R =
      runCommitPointTest(impls::sourceFor("ms2"), impls::referenceFor("queue"),
                         testByName("T1"), scOpts());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Pass);
}

TEST(CommitPoint, MissingAnnotationsReported) {
  // snark carries no commit() markers.
  CommitPointResult R = runCommitPointTest(impls::sourceFor("snark"),
                                           impls::referenceFor("deque"),
                                           testByName("D0"), scOpts());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("commit"), std::string::npos);
}

TEST(CommitPoint, BrokenQueueFails) {
  // A deliberately broken queue: dequeue forgets to advance the head, so
  // two dequeues return the same element - not serializable.
  const char *Broken = R"(
extern void commit();
typedef int value_t;
value_t buf[8];
int qhead;
int qtail;
void init_op(void) { qhead = 0; qtail = 0; }
void enqueue_op(value_t v) {
  atomic {
    buf[qtail] = v;
    commit();
    qtail = qtail + 1;
  }
}
value_t dequeue_op(void) {
  value_t r;
  atomic {
    if (qhead == qtail) {
      r = 2;
      commit(0);
    } else {
      r = buf[qhead];
      commit(0);
      /* bug: qhead is not advanced */
    }
  }
  return r;
}
)";
  CommitPointOptions O = scOpts();
  CommitPointResult R = runCommitPointTest(
      impls::preludeSource() + Broken, impls::referenceFor("queue"),
      testByName("Tpc2"), O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Pass);
  ASSERT_TRUE(R.CexObservation.has_value());
}

TEST(CommitPoint, AgreesWithObservationSetMethod) {
  // Both methods must agree on PASS across queue tests under SC.
  for (const char *Test : {"T0", "Tpc2", "Ti2"}) {
    RunOptions RO;
    RO.Check.Model = memmodel::ModelParams::sc();
    checker::CheckResult R1 =
        runTest(impls::sourceFor("msn"), testByName(Test), RO);
    ASSERT_EQ(R1.Status, Status::Pass) << Test;

    CommitPointOptions CO = scOpts();
    CO.Bounds = R1.FinalBounds;
    CommitPointResult R2 = runCommitPointTest(impls::sourceFor("msn"),
                                              impls::referenceFor("queue"),
                                              testByName(Test), CO);
    ASSERT_TRUE(R2.Ok) << Test << ": " << R2.Error;
    EXPECT_TRUE(R2.Pass) << Test;
  }
}

} // namespace
