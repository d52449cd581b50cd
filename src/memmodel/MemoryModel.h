//===--- MemoryModel.h - parametric axiomatic memory models -----*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory models as *points in a relaxation lattice* rather than a closed
/// enum. A model is a ModelParams descriptor over the axiomatic framework
/// of Sec. 2.3 (memory order <M, visibility set S(l)):
///
///  * Four program-order edge bits (load-load, load-store, store-load,
///    store-store): which same-thread edge kinds embed into <M
///    unconditionally. All four set is sequential consistency; none set is
///    the paper's Relaxed base (only same-address edges ending in a store
///    embed, via axiom 1, plus fences and atomic blocks).
///  * StoreForwarding (read-own-write-early): S(l) additionally contains
///    the thread's own program-order-earlier stores, the local store-queue
///    bypass of the Relaxed/TSO/PSO models. A no-op whenever store-load
///    program order is preserved (the store is then <M-before the load
///    anyway).
///  * MultiCopyAtomic: stores become visible to all other threads at one
///    point in <M. Every model the SAT encoder supports is multi-copy
///    atomic (a single total <M *is* multi-copy atomicity); the bit exists
///    so non-MCA lattice points can be described, parsed, and compared -
///    the encoder rejects them with a clear error until per-thread view
///    orders are implemented.
///  * SerialOps: order at operation-invocation granularity - the seriality
///    condition of Sec. 2.3.2 used to mine specifications.
///
/// Named points of the lattice (the registry, strongest first):
///
///   serial   SerialOps                      specification mining
///   sc       po:all                         Sec. 2.3.1
///   tso      po:ll+ls+ss, fwd               FIFO store buffer (Sec. 4.2)
///   pso      po:ll+ls, fwd                  per-address store buffers
///   rmo      po:ll, fwd                     RMO-like intermediate point
///   relaxed  po:none, fwd                   the paper's Relaxed (Sec. 2.3.2)
///
/// Arbitrary points are written in the descriptor grammar parsed by
/// modelFromName(): `po:<ll|ls|sl|ss joined by +|all|none>[,fwd][,nomca]
/// [,serial]`, e.g. "po:ll+ls,fwd" (which modelName() prints back as
/// "pso"). See docs/MODELS.md for the full table and grammar.
///
/// Shared value axioms (2) and (3): a load with empty S(l) returns the
/// initial value (undefined here: memory contents before initialization),
/// otherwise the value of the <M-maximal store in S(l). These are encoded
/// with the Init_l and Flows_{s,l} auxiliary variables of Sec. 3.2.1.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_MEMMODEL_MEMORYMODEL_H
#define CHECKFENCE_MEMMODEL_MEMORYMODEL_H

#include "encode/OrderEncoding.h"
#include "encode/ValueEncoding.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace checkfence {
namespace memmodel {

/// A memory model as a point in the relaxation lattice.
struct ModelParams {
  // Program-order edge kinds that embed into <M unconditionally. The
  // first letter is the kind of the earlier access, the second the later.
  bool OrderLoadLoad = false;
  bool OrderLoadStore = false;
  bool OrderStoreLoad = false;
  bool OrderStoreStore = false;
  /// S(l) includes the thread's own program-order-earlier stores.
  bool StoreForwarding = false;
  /// Stores become visible to all threads at a single point in <M.
  /// Non-MCA points are descriptor-only: parse/print/compare work, the
  /// SAT encoder rejects them (a total <M is inherently multi-copy).
  bool MultiCopyAtomic = true;
  /// Invocation-granularity order (the Serial model).
  bool SerialOps = false;

  /// True when every program-order edge embeds into <M (SC and Serial);
  /// fences are no-ops and consecutive-edge closure suffices.
  bool fullProgramOrder() const {
    return OrderLoadLoad && OrderLoadStore && OrderStoreLoad &&
           OrderStoreStore;
  }
  /// The edge flag for an (earlier, later) access-kind pair.
  bool ordersEdge(bool EarlierIsLoad, bool LaterIsLoad) const {
    if (EarlierIsLoad)
      return LaterIsLoad ? OrderLoadLoad : OrderLoadStore;
    return LaterIsLoad ? OrderStoreLoad : OrderStoreStore;
  }
  /// Forwarding with its no-op cases normalized away: when store-load
  /// program order is preserved (or operations are serial), every own
  /// earlier store is <M-before the load already, so the bypass changes
  /// nothing.
  bool effectiveForwarding() const {
    return StoreForwarding && !OrderStoreLoad && !SerialOps;
  }

  /// Canonical descriptor string ("po:ll+ls,fwd"); parseable by
  /// modelFromName. Registry names are *not* substituted - use modelName
  /// for display.
  std::string str() const;

  friend bool operator==(const ModelParams &A, const ModelParams &B) {
    return A.OrderLoadLoad == B.OrderLoadLoad &&
           A.OrderLoadStore == B.OrderLoadStore &&
           A.OrderStoreLoad == B.OrderStoreLoad &&
           A.OrderStoreStore == B.OrderStoreStore &&
           A.StoreForwarding == B.StoreForwarding &&
           A.MultiCopyAtomic == B.MultiCopyAtomic &&
           A.SerialOps == B.SerialOps;
  }
  friend bool operator!=(const ModelParams &A, const ModelParams &B) {
    return !(A == B);
  }

  // The named lattice points.
  /// Operation-granularity sequential order (specification mining).
  static constexpr ModelParams serial() {
    ModelParams P = sc();
    P.SerialOps = true;
    return P;
  }
  /// Sequential consistency: full program order.
  static constexpr ModelParams sc() {
    ModelParams P;
    P.OrderLoadLoad = P.OrderLoadStore = true;
    P.OrderStoreLoad = P.OrderStoreStore = true;
    return P;
  }
  /// A FIFO store buffer: stores may be delayed past later loads, and
  /// loads may read their own buffered stores.
  static constexpr ModelParams tso() {
    ModelParams P;
    P.OrderLoadLoad = P.OrderLoadStore = P.OrderStoreStore = true;
    P.StoreForwarding = true;
    return P;
  }
  /// Per-address store buffers: additionally relaxes store-store order
  /// (same-address stores stay ordered via Relaxed axiom 1).
  static constexpr ModelParams pso() {
    ModelParams P;
    P.OrderLoadLoad = P.OrderLoadStore = true;
    P.StoreForwarding = true;
    return P;
  }
  /// RMO-like: the lattice point between PSO and Relaxed that additionally
  /// relaxes load-store order while keeping load-load order. Named for its
  /// position in the SPARC family sweep, not for exact RMO semantics
  /// (dependency order is not modeled here).
  static constexpr ModelParams rmo() {
    ModelParams P;
    P.OrderLoadLoad = true;
    P.StoreForwarding = true;
    return P;
  }
  /// The paper's Relaxed model: no unconditional program order at all.
  static constexpr ModelParams relaxed() {
    ModelParams P;
    P.StoreForwarding = true;
    return P;
  }
};

/// True when the polynomial reads-from oracle (ReadsFromOracle.h) is the
/// preferred decision procedure for \p P: the multi-copy-atomic points
/// that keep load-load and load-store program order - sc, tso, pso, and
/// the po: descriptors they cover. On these points the oracle's
/// constraint saturation stays effectively branch-free (per-thread load
/// order plus same-address coherence decide the writer disjunctions), so
/// reads-from enumeration beats order enumeration by orders of magnitude.
/// Callers outside the set should stay on AxiomaticEnumerator.
constexpr bool readsFromEligible(const ModelParams &P) {
  return P.MultiCopyAtomic && !P.SerialOps && P.OrderLoadLoad &&
         P.OrderLoadStore;
}

/// A registry entry naming a lattice point.
struct NamedModel {
  std::string Name;
  ModelParams Params;
  std::string Note; ///< one-line description for --list / docs
  /// readsFromEligible(Params), recorded so front ends can surface the
  /// fast-oracle marker without re-deriving it.
  bool FastOracle = false;
};

/// The named models, strongest first: serial, sc, tso, pso, rmo, relaxed.
const std::vector<NamedModel> &namedModels();

/// Display name: the registry name when \p P matches a named point
/// exactly, otherwise the canonical descriptor string.
std::string modelName(const ModelParams &P);

/// Parses a registry name ("tso") or a descriptor string ("po:ll+ls,fwd",
/// see the file comment for the grammar); std::nullopt on syntax errors.
std::optional<ModelParams> modelFromName(const std::string &Name);

/// The lattice sweep: the named points plus the unnamed intermediate
/// points worth checking, strongest first. Used by `--models lattice` and
/// the weakest-passing-model search.
const std::vector<ModelParams> &latticeModels();

/// The lattice order: true when every execution allowed under \p A is
/// also allowed under \p B (A is at least as strong as B). Reflexive and
/// transitive; a partial order up to semantic equivalence (e.g. sc with
/// and without the forwarding bit compare equal both ways). A check that
/// passes under B is guaranteed to pass under A, and a counterexample
/// found under A also exists under B.
bool atLeastAsStrong(const ModelParams &A, const ModelParams &B);

/// Strict version: atLeastAsStrong(A, B) but not the converse.
bool strictlyStronger(const ModelParams &A, const ModelParams &B);

/// The indices of \p Models in a stable topological order of the lattice
/// order: strongest first, or weakest first when \p StrongestFirst is
/// false. Incomparable models keep their given relative order, so the
/// result is deterministic for a fixed vector.
std::vector<size_t> strengthOrder(const std::vector<ModelParams> &Models,
                                  bool StrongestFirst);

/// Emits the memory-model formula Theta for a FlatProgram into the CNF
/// being built by a ValueEncoder.
class MemoryModelEncoder {
public:
  MemoryModelEncoder(encode::ValueEncoder &VE, const trans::FlatProgram &P,
                     const trans::RangeInfo &R, const ModelParams &M,
                     const encode::EncodeOptions &EO);

  /// Encodes everything; returns false on unsupported input (currently:
  /// non-multi-copy-atomic models).
  bool encode();

  /// Execution literal of event \p EventIdx (truthiness of its guard).
  encode::Lit execLit(int EventIdx);

  /// Access index of a load/store event (-1 for fences).
  int accessOfEvent(int EventIdx) const { return EventAccess[EventIdx]; }
  /// Event index of access \p A.
  int eventOfAccess(int A) const { return AccessEvent[A]; }
  int numAccesses() const { return static_cast<int>(AccessEvent.size()); }

  const encode::MemoryOrder *order() const { return Order.get(); }

  /// After a Sat solve: event indices of executed accesses, sorted by the
  /// model's memory order (used for counterexample traces).
  std::vector<int> modelOrderedAccesses(const sat::Solver &S);

private:
  encode::Lit addrEqLit(int AccessA, int AccessB);
  bool cellsIntersect(int EventA, int EventB) const;
  void collectForcedPairs(std::vector<std::pair<int, int>> &Forced);
  void emitConditionalOrderAxioms();
  void emitFenceAxioms();
  void emitAtomicExclusivity();
  void emitValueAxioms();

  encode::ValueEncoder &VE;
  encode::CnfBuilder &Cnf;
  const trans::FlatProgram &P;
  const trans::RangeInfo &R;
  ModelParams Params;
  encode::EncodeOptions EOpts;

  std::vector<int> EventAccess; // event -> access (-1 for fences)
  std::vector<int> AccessEvent; // access -> event
  std::unique_ptr<encode::MemoryOrder> Order;
  std::map<std::pair<int, int>, encode::Lit> AddrEqCache;
};

} // namespace memmodel
} // namespace checkfence

#endif // CHECKFENCE_MEMMODEL_MEMORYMODEL_H
