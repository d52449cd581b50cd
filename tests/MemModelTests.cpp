//===--- MemModelTests.cpp - litmus tests for the memory models ------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Classic litmus shapes checked against the Sec. 2.3 axioms: an outcome is
// "reachable" iff the encoded formula is satisfiable when the observation
// vector is pinned to it. Expected verdicts follow the model definitions:
// Relaxed permits (1) load/store reordering to different addresses,
// (2) store buffering, (3) forwarding, (4) same-address load reordering,
// (5) dependence-free speculation - while keeping stores globally ordered
// (the Fig. 2 example is impossible).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lowering.h"
#include "harness/TestSpec.h"
#include "checker/SpecMiner.h"

#include <algorithm>

#include "gtest/gtest.h"

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::harness;
using lsl::Value;

namespace {

/// Builds the test program (one op per thread) and asks whether the given
/// observation is reachable under the model.
bool reachable(const std::string &Source,
               const std::vector<std::string> &Ops,
               memmodel::ModelParams Model,
               const std::vector<Value> &Outcome, bool OutcomeError = false) {
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  EXPECT_TRUE(frontend::compileC(Source, {}, Prog, Diags)) << Diags.str();

  TestSpec Spec;
  Spec.Name = "litmus";
  for (const std::string &Op : Ops)
    Spec.Threads.push_back({OpSpec{Op, 0, false, false}});
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  ProblemConfig Cfg;
  Cfg.Model = Model;
  SolveContext Ctx(Prog, Threads, {}, Cfg);
  ProblemEncoding &Enc = Ctx.encoding();
  EXPECT_TRUE(Enc.ok()) << Enc.error();

  Observation O;
  O.Error = OutcomeError;
  O.Values = Outcome;
  if (!Enc.requireObservation(O))
    return false;
  return Ctx.solve() == sat::SolveResult::Sat;
}

constexpr auto SC = memmodel::ModelParams::sc();
constexpr auto RLX = memmodel::ModelParams::relaxed();
constexpr auto SER = memmodel::ModelParams::serial();

Value IV(int64_t N) { return Value::integer(N); }

//===----------------------------------------------------------------------===//
// Store buffering (Dekker): the classic store-load relaxation.
//===----------------------------------------------------------------------===//

const char *SbSource = R"(
extern void observe(int v);
extern void fence(char *type);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)";

TEST(Litmus, StoreBufferingAllowedOnRelaxed) {
  EXPECT_TRUE(reachable(SbSource, {"t1_op", "t2_op"}, RLX, {IV(0), IV(0)}));
}

TEST(Litmus, StoreBufferingForbiddenOnSC) {
  EXPECT_FALSE(reachable(SbSource, {"t1_op", "t2_op"}, SC, {IV(0), IV(0)}));
}

TEST(Litmus, StoreBufferingOtherOutcomesOnSC) {
  EXPECT_TRUE(reachable(SbSource, {"t1_op", "t2_op"}, SC, {IV(1), IV(1)}));
  EXPECT_TRUE(reachable(SbSource, {"t1_op", "t2_op"}, SC, {IV(0), IV(1)}));
  EXPECT_TRUE(reachable(SbSource, {"t1_op", "t2_op"}, SC, {IV(1), IV(0)}));
}

const char *SbFencedSource = R"(
extern void observe(int v);
extern void fence(char *type);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; fence("store-load"); observe(y); }
void t2_op(void) { y = 1; fence("store-load"); observe(x); }
)";

TEST(Litmus, StoreLoadFenceRestoresSC) {
  EXPECT_FALSE(
      reachable(SbFencedSource, {"t1_op", "t2_op"}, RLX, {IV(0), IV(0)}));
}

//===----------------------------------------------------------------------===//
// Message passing: store-store / load-load (the Sec. 4.3 "incomplete
// initialization" failure shape).
//===----------------------------------------------------------------------===//

const char *MpSource = R"(
extern void observe(int v);
extern void fence(char *type);
int data; int flag;
void init_op(void) { data = 0; flag = 0; }
void producer_op(void) { data = 1; flag = 1; }
void consumer_op(void) { int f = flag; int d = data; observe(f); observe(d); }
)";

TEST(Litmus, MessagePassingReordersOnRelaxed) {
  EXPECT_TRUE(reachable(MpSource, {"producer_op", "consumer_op"}, RLX,
                        {IV(1), IV(0)}));
}

TEST(Litmus, MessagePassingForbiddenOnSC) {
  EXPECT_FALSE(reachable(MpSource, {"producer_op", "consumer_op"}, SC,
                         {IV(1), IV(0)}));
}

const char *MpFencedSource = R"(
extern void observe(int v);
extern void fence(char *type);
int data; int flag;
void init_op(void) { data = 0; flag = 0; }
void producer_op(void) { data = 1; fence("store-store"); flag = 1; }
void consumer_op(void) {
  int f = flag;
  fence("load-load");
  int d = data;
  observe(f); observe(d);
}
)";

TEST(Litmus, MessagePassingFencedForbiddenOnRelaxed) {
  EXPECT_FALSE(reachable(MpFencedSource, {"producer_op", "consumer_op"},
                         RLX, {IV(1), IV(0)}));
}

TEST(Litmus, MessagePassingFencedStillAllowsStaleFlag) {
  EXPECT_TRUE(reachable(MpFencedSource, {"producer_op", "consumer_op"}, RLX,
                        {IV(0), IV(0)}));
  EXPECT_TRUE(reachable(MpFencedSource, {"producer_op", "consumer_op"}, RLX,
                        {IV(0), IV(1)}));
}

//===----------------------------------------------------------------------===//
// Load buffering: load-store reordering.
//===----------------------------------------------------------------------===//

const char *LbSource = R"(
extern void observe(int v);
extern void fence(char *type);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { int r = x; y = 1; observe(r); }
void t2_op(void) { int r = y; x = 1; observe(r); }
)";

TEST(Litmus, LoadBufferingAllowedOnRelaxed) {
  EXPECT_TRUE(reachable(LbSource, {"t1_op", "t2_op"}, RLX, {IV(1), IV(1)}));
}

TEST(Litmus, LoadBufferingForbiddenOnSC) {
  EXPECT_FALSE(reachable(LbSource, {"t1_op", "t2_op"}, SC, {IV(1), IV(1)}));
}

const char *LbFencedSource = R"(
extern void observe(int v);
extern void fence(char *type);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { int r = x; fence("load-store"); y = 1; observe(r); }
void t2_op(void) { int r = y; fence("load-store"); x = 1; observe(r); }
)";

TEST(Litmus, LoadStoreFenceForbidsLoadBuffering) {
  EXPECT_FALSE(
      reachable(LbFencedSource, {"t1_op", "t2_op"}, RLX, {IV(1), IV(1)}));
}

//===----------------------------------------------------------------------===//
// IRIW with load-load fences: the paper's Fig. 2. Relaxed orders all
// stores globally, so the two readers cannot disagree on the store order.
//===----------------------------------------------------------------------===//

const char *IriwSource = R"(
extern void observe(int v);
extern void fence(char *type);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void w1_op(void) { x = 1; }
void w2_op(void) { y = 1; }
void r1_op(void) { int a = x; fence("load-load"); int b = y;
                   observe(a); observe(b); }
void r2_op(void) { int c = y; fence("load-load"); int d = x;
                   observe(c); observe(d); }
)";

TEST(Litmus, Fig2IriwImpossibleOnRelaxed) {
  // (a,b,c,d) = (1,0,1,0) would mean reader 1 sees x=1 before y=1 and
  // reader 2 sees y=1 before x=1: impossible with globally ordered stores.
  EXPECT_FALSE(reachable(IriwSource, {"w1_op", "w2_op", "r1_op", "r2_op"},
                         RLX, {IV(1), IV(0), IV(1), IV(0)}));
}

TEST(Litmus, IriwConsistentOutcomesReachable) {
  EXPECT_TRUE(reachable(IriwSource, {"w1_op", "w2_op", "r1_op", "r2_op"},
                        RLX, {IV(1), IV(0), IV(0), IV(1)}));
  EXPECT_TRUE(reachable(IriwSource, {"w1_op", "w2_op", "r1_op", "r2_op"},
                        RLX, {IV(1), IV(1), IV(1), IV(1)}));
}

//===----------------------------------------------------------------------===//
// Same-address load-load reordering (relaxation 4).
//===----------------------------------------------------------------------===//

const char *SameAddrSource = R"(
extern void observe(int v);
extern void fence(char *type);
int x;
void init_op(void) { x = 0; }
void writer_op(void) { x = 1; }
void reader_op(void) { int a = x; int b = x; observe(a); observe(b); }
)";

TEST(Litmus, SameAddressLoadsReorderOnRelaxed) {
  EXPECT_TRUE(reachable(SameAddrSource, {"writer_op", "reader_op"}, RLX,
                        {IV(1), IV(0)}));
}

TEST(Litmus, SameAddressLoadsOrderedOnSC) {
  EXPECT_FALSE(reachable(SameAddrSource, {"writer_op", "reader_op"}, SC,
                         {IV(1), IV(0)}));
}

const char *SameAddrFencedSource = R"(
extern void observe(int v);
extern void fence(char *type);
int x;
void init_op(void) { x = 0; }
void writer_op(void) { x = 1; }
void reader_op(void) { int a = x; fence("load-load"); int b = x;
                       observe(a); observe(b); }
)";

TEST(Litmus, LoadLoadFenceOrdersSameAddressLoads) {
  EXPECT_FALSE(reachable(SameAddrFencedSource, {"writer_op", "reader_op"},
                         RLX, {IV(1), IV(0)}));
}

//===----------------------------------------------------------------------===//
// Store forwarding (relaxation 3): a thread always sees its own writes.
//===----------------------------------------------------------------------===//

const char *FwdSource = R"(
extern void observe(int v);
int x;
void init_op(void) { x = 0; }
void t1_op(void) { x = 1; observe(x); }
void t2_op(void) { observe(x); }
)";

TEST(Litmus, OwnStoreAlwaysVisible) {
  // Thread 1's read must return 1 even if its store is still buffered.
  EXPECT_FALSE(
      reachable(FwdSource, {"t1_op", "t2_op"}, RLX, {IV(0), IV(0)}));
  EXPECT_TRUE(reachable(FwdSource, {"t1_op", "t2_op"}, RLX, {IV(1), IV(0)}));
}

TEST(Litmus, BufferedStoreMayHideFromOthers) {
  // Thread 2 may still read 0 after thread 1 observed its own store.
  EXPECT_TRUE(reachable(FwdSource, {"t1_op", "t2_op"}, RLX, {IV(1), IV(0)}));
}

//===----------------------------------------------------------------------===//
// Same-address store-store order (Relaxed axiom 1).
//===----------------------------------------------------------------------===//

const char *CoherenceSource = R"(
extern void observe(int v);
extern void fence(char *type);
int x;
void init_op(void) { x = 0; }
void writer_op(void) { x = 1; x = 2; }
void reader_op(void) { int a = x; fence("load-load"); int b = x;
                       observe(a); observe(b); }
)";

TEST(Litmus, SameAddressStoresStayOrdered) {
  // a=2 then b=1 would require the stores to reorder; axiom 1 forbids it.
  EXPECT_FALSE(reachable(CoherenceSource, {"writer_op", "reader_op"}, RLX,
                         {IV(2), IV(1)}));
  EXPECT_TRUE(reachable(CoherenceSource, {"writer_op", "reader_op"}, RLX,
                        {IV(1), IV(2)}));
}

//===----------------------------------------------------------------------===//
// Dependent-load reordering (relaxation 5, the Sec. 4.3 Alpha behavior).
//===----------------------------------------------------------------------===//

const char *DepSource = R"(
extern void observe(int v);
extern void fence(char *type);
typedef struct n { int f; } n_t;
extern n_t *new_node();
n_t *p;
int published;
void init_op(void) { published = 0; p = 0; }
void pub_op(void) {
  n_t *n = new_node();
  n->f = 7;
#ifdef PUBFENCE
  fence("store-store");
#endif
  p = n;
}
void read_op(void) {
  n_t *r = p;
  int seen = (r != 0);
  int v = 9;
#ifdef READFENCE
  fence("load-load");
#endif
  if (seen) v = r->f;
  observe(seen); observe(v);
}
)";

TEST(Litmus, DependentLoadSeesUninitializedOnRelaxed) {
  // Even though v = r->f depends on r, the field load may be satisfied
  // before the publication store lands: v stays undefined.
  EXPECT_TRUE(reachable(DepSource, {"pub_op", "read_op"}, RLX,
                        {IV(1), Value::undef()}));
}

TEST(Litmus, DependentLoadFineOnSC) {
  EXPECT_FALSE(reachable(DepSource, {"pub_op", "read_op"}, SC,
                         {IV(1), Value::undef()}));
  EXPECT_TRUE(reachable(DepSource, {"pub_op", "read_op"}, SC,
                        {IV(1), IV(7)}));
}

//===----------------------------------------------------------------------===//
// TSO and PSO: the intermediate SPARC models (Sec. 4.2 notes that the
// paper's load-load / store-store fences are "automatic" on TSO). TSO
// relaxes only store-load order; PSO additionally relaxes store-store.
//===----------------------------------------------------------------------===//

constexpr auto TSO = memmodel::ModelParams::tso();
constexpr auto PSO = memmodel::ModelParams::pso();

TEST(LitmusTsoPso, StoreBufferingAllowedOnTsoAndPso) {
  // The one relaxation TSO has: both loads may overtake the buffered
  // stores.
  EXPECT_TRUE(reachable(SbSource, {"t1_op", "t2_op"}, TSO, {IV(0), IV(0)}));
  EXPECT_TRUE(reachable(SbSource, {"t1_op", "t2_op"}, PSO, {IV(0), IV(0)}));
}

TEST(LitmusTsoPso, StoreLoadFenceForbidsStoreBuffering) {
  EXPECT_FALSE(
      reachable(SbFencedSource, {"t1_op", "t2_op"}, TSO, {IV(0), IV(0)}));
  EXPECT_FALSE(
      reachable(SbFencedSource, {"t1_op", "t2_op"}, PSO, {IV(0), IV(0)}));
}

TEST(LitmusTsoPso, MessagePassingSafeOnTso) {
  // Store-store and load-load order are automatic on TSO: the unfenced
  // producer/consumer pair cannot see the flag without the data.
  EXPECT_FALSE(reachable(MpSource, {"producer_op", "consumer_op"}, TSO,
                         {IV(1), IV(0)}));
}

TEST(LitmusTsoPso, MessagePassingBreaksOnPso) {
  // PSO lets the flag store overtake the data store.
  EXPECT_TRUE(reachable(MpSource, {"producer_op", "consumer_op"}, PSO,
                        {IV(1), IV(0)}));
}

TEST(LitmusTsoPso, StoreStoreFenceRestoresMessagePassingOnPso) {
  // On PSO only the producer-side store-store fence is needed; the
  // consumer's load-load order is automatic. MpFencedSource has both.
  EXPECT_FALSE(reachable(MpFencedSource, {"producer_op", "consumer_op"},
                         PSO, {IV(1), IV(0)}));
}

TEST(LitmusTsoPso, LoadBufferingForbidden) {
  // Load-store order is preserved by both models: no load buffering.
  EXPECT_FALSE(reachable(LbSource, {"t1_op", "t2_op"}, TSO, {IV(1), IV(1)}));
  EXPECT_FALSE(reachable(LbSource, {"t1_op", "t2_op"}, PSO, {IV(1), IV(1)}));
}

TEST(LitmusTsoPso, SameAddressLoadsStayOrdered) {
  // Load-load order is preserved by both models (relaxation 4 is absent).
  EXPECT_FALSE(reachable(SameAddrSource, {"writer_op", "reader_op"}, TSO,
                         {IV(1), IV(0)}));
  EXPECT_FALSE(reachable(SameAddrSource, {"writer_op", "reader_op"}, PSO,
                         {IV(1), IV(0)}));
}

TEST(LitmusTsoPso, IriwImpossible) {
  // Stores are globally ordered on every model in this family (Fig. 2).
  EXPECT_FALSE(reachable(IriwSource, {"w1_op", "w2_op", "r1_op", "r2_op"},
                         TSO, {IV(1), IV(0), IV(1), IV(0)}));
  EXPECT_FALSE(reachable(IriwSource, {"w1_op", "w2_op", "r1_op", "r2_op"},
                         PSO, {IV(1), IV(0), IV(1), IV(0)}));
}

TEST(LitmusTsoPso, StoreForwardingStillApplies) {
  // Both models forward buffered stores to local loads (SB-with-own-read:
  // reading the own store does not force it to be globally visible).
  EXPECT_FALSE(reachable(FwdSource, {"t1_op", "t2_op"}, TSO,
                         {IV(0), IV(0)}));
  EXPECT_TRUE(reachable(FwdSource, {"t1_op", "t2_op"}, TSO,
                        {IV(1), IV(0)}));
}

TEST(LitmusTsoPso, DependentLoadSafeOnTsoBreaksNowhereElse) {
  // The Alpha-style dependent-load reordering needs load-load relaxation,
  // which neither TSO nor PSO has: the published field is always seen
  // initialized.
  EXPECT_FALSE(reachable(DepSource, {"pub_op", "read_op"}, TSO,
                         {IV(1), Value::undef()}));
}

TEST(LitmusTsoPso, PublicationBreaksOnPsoWithoutFence) {
  // ...but PSO reorders the field-initialization store with the pointer
  // publication store (the Sec. 4.3 "incomplete initialization" class).
  EXPECT_TRUE(reachable(DepSource, {"pub_op", "read_op"}, PSO,
                        {IV(1), Value::undef()}));
}

TEST(LitmusTsoPso, PublicationFenceRestoresPso) {
  frontend::DiagEngine Diags;
  // With the PUBFENCE store-store fence the uninitialized read is gone.
  lsl::Program Prog;
  ASSERT_TRUE(frontend::compileC(DepSource, {"PUBFENCE"}, Prog, Diags));
  TestSpec Spec;
  Spec.Name = "pubfence";
  Spec.Threads.push_back({OpSpec{"pub_op", 0, false, false}});
  Spec.Threads.push_back({OpSpec{"read_op", 0, false, false}});
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);
  ProblemConfig Cfg;
  Cfg.Model = PSO;
  SolveContext Ctx(Prog, Threads, {}, Cfg);
  ProblemEncoding &Enc = Ctx.encoding();
  ASSERT_TRUE(Enc.ok()) << Enc.error();
  Observation O;
  O.Values = {IV(1), Value::undef()};
  Enc.requireObservation(O);
  EXPECT_NE(Ctx.solve(), sat::SolveResult::Sat);
}

//===----------------------------------------------------------------------===//
// Seriality is stronger than SC: operations do not interleave.
//===----------------------------------------------------------------------===//

const char *SerialSource = R"(
extern void observe(int v);
int x;
void init_op(void) { x = 0; }
void incr_op(void) { int t = x; x = t + 1; observe(t); }
)";

TEST(Litmus, LostUpdatePossibleOnSC) {
  // Two interleaved unsynchronized increments can both read 0.
  EXPECT_TRUE(
      reachable(SerialSource, {"incr_op", "incr_op"}, SC, {IV(0), IV(0)}));
}

TEST(Litmus, LostUpdateImpossibleOnSerial) {
  // Atomic operations serialize: the second increment must read 1.
  EXPECT_FALSE(
      reachable(SerialSource, {"incr_op", "incr_op"}, SER, {IV(0), IV(0)}));
  EXPECT_TRUE(
      reachable(SerialSource, {"incr_op", "incr_op"}, SER, {IV(0), IV(1)}));
  EXPECT_TRUE(
      reachable(SerialSource, {"incr_op", "incr_op"}, SER, {IV(1), IV(0)}));
}

//===----------------------------------------------------------------------===//
// Rank-based order encoding agrees with the pairwise encoding (E12).
//===----------------------------------------------------------------------===//

class OrderModeAgreement
    : public ::testing::TestWithParam<memmodel::ModelParams> {};

TEST_P(OrderModeAgreement, SameVerdicts) {
  memmodel::ModelParams Model = GetParam();
  struct Case {
    const char *Src;
    std::vector<std::string> Ops;
    std::vector<Value> Obs;
  };
  std::vector<Case> Cases = {
      {SbSource, {"t1_op", "t2_op"}, {IV(0), IV(0)}},
      {MpSource, {"producer_op", "consumer_op"}, {IV(1), IV(0)}},
      {LbSource, {"t1_op", "t2_op"}, {IV(1), IV(1)}},
      {SameAddrSource, {"writer_op", "reader_op"}, {IV(1), IV(0)}},
  };
  for (const Case &C : Cases) {
    frontend::DiagEngine Diags;
    lsl::Program Prog;
    ASSERT_TRUE(frontend::compileC(C.Src, {}, Prog, Diags));
    TestSpec Spec;
    Spec.Name = "agree";
    for (const std::string &Op : C.Ops)
      Spec.Threads.push_back({OpSpec{Op, 0, false, false}});
    std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

    bool Results[2];
    for (int Mode = 0; Mode < 2; ++Mode) {
      ProblemConfig Cfg;
      Cfg.Model = Model;
      Cfg.Order = Mode == 0 ? encode::OrderMode::Pairwise
                            : encode::OrderMode::Rank;
      SolveContext Ctx(Prog, Threads, {}, Cfg);
      ProblemEncoding &Enc = Ctx.encoding();
      ASSERT_TRUE(Enc.ok()) << Enc.error();
      Observation O;
      O.Values = C.Obs;
      Enc.requireObservation(O);
      Results[Mode] = Ctx.solve() == sat::SolveResult::Sat;
    }
    EXPECT_EQ(Results[0], Results[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, OrderModeAgreement,
                         ::testing::Values(SC, TSO, PSO, RLX, SER));

//===----------------------------------------------------------------------===//
// Model strength hierarchy (Sec. 2.3.3): Serial is stronger than SC,
// which is stronger than TSO, than PSO, than Relaxed. Stronger models
// allow fewer executions, so their observation sets must be nested.
//===----------------------------------------------------------------------===//

struct HierarchyCase {
  const char *Name;
  const char *Src;
  std::vector<std::string> Ops;
};

class ModelHierarchy : public ::testing::TestWithParam<HierarchyCase> {};

TEST_P(ModelHierarchy, ObservationSetsAreNested) {
  const HierarchyCase &C = GetParam();
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  ASSERT_TRUE(frontend::compileC(C.Src, {}, Prog, Diags)) << Diags.str();
  TestSpec Spec;
  Spec.Name = C.Name;
  for (const std::string &Op : C.Ops)
    Spec.Threads.push_back({OpSpec{Op, 0, false, false}});
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  const std::vector<memmodel::ModelParams> Chain = {
      SER, SC, TSO, PSO, RLX};
  std::vector<ObservationSet> Sets;
  for (memmodel::ModelParams K : Chain) {
    ProblemConfig Cfg;
    Cfg.Model = K;
    SolveContext Ctx(Prog, Threads, {}, Cfg);
    ProblemEncoding &Enc = Ctx.encoding();
    ASSERT_TRUE(Enc.ok()) << Enc.error();
    MiningOutcome M = mineSpecification(Ctx);
    ASSERT_TRUE(M.Ok || M.SequentialBug) << M.Error;
    Sets.push_back(M.Spec);
  }
  for (size_t I = 0; I + 1 < Sets.size(); ++I) {
    EXPECT_TRUE(std::includes(Sets[I + 1].begin(), Sets[I + 1].end(),
                              Sets[I].begin(), Sets[I].end()))
        << "observations of " << modelName(Chain[I])
        << " not contained in " << modelName(Chain[I + 1]) << " for "
        << C.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Litmus, ModelHierarchy,
    ::testing::Values(
        HierarchyCase{"sb", SbSource, {"t1_op", "t2_op"}},
        HierarchyCase{"mp", MpSource, {"producer_op", "consumer_op"}},
        HierarchyCase{"lb", LbSource, {"t1_op", "t2_op"}},
        HierarchyCase{"sameaddr", SameAddrSource,
                      {"writer_op", "reader_op"}},
        HierarchyCase{"fwd", FwdSource, {"t1_op", "t2_op"}},
        HierarchyCase{"coherence", CoherenceSource,
                      {"writer_op", "reader_op"}},
        HierarchyCase{"iriw", IriwSource,
                      {"w1_op", "w2_op", "r1_op", "r2_op"}},
        HierarchyCase{"incr", SerialSource, {"incr_op", "incr_op"}}),
    [](const ::testing::TestParamInfo<HierarchyCase> &I) {
      return std::string(I.param.Name);
    });

} // namespace
