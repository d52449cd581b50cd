//===--- StaticExecution.h - shared kernel of the oracles -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the Sec. 2.3.2 axioms fix about an execution of a FlatProgram
/// before any load has read a value, for one assignment of its Choice
/// values: the executed accesses (guards and addresses must be static),
/// the memory-order edges the model forces whatever the loads read, the
/// contiguity clusters, and each load's candidate writers. evaluate()
/// then decides one execution from the writer of every load.
///
/// The two explicit-state oracles are searches over this one structure:
/// AxiomaticEnumerator enumerates total orders and reads each load's
/// writer off the order (latestVisibleStore()), ReadsFromOracle
/// enumerates reads-from maps. The input fragment, the skip reasons and
/// their precedence, and the check and observation semantics are
/// therefore shared by construction.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_MEMMODEL_STATICEXECUTION_H
#define CHECKFENCE_MEMMODEL_STATICEXECUTION_H

#include "memmodel/MemoryModel.h"
#include "memmodel/OracleSkip.h"
#include "trans/FlatProgram.h"

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

namespace checkfence {
namespace memmodel {

class StaticExecution {
public:
  /// Executed accesses a search can hold in one 64-bit mask.
  static constexpr int MaxAccesses = 62;

  struct Access {
    int Event = 0; ///< index into P.Events
    bool IsStore = false;
    lsl::Value Addr;
    /// Accesses that must precede this one in <M (bitmask): the init
    /// thread, program order per edge kind, same-address edges ending in
    /// a store, atomic-block interiors and executed fences.
    uint64_t Preds = 0;
    /// Contiguity cluster (operation invocation under Serial, atomic
    /// block otherwise), numbered by first access; -1 = none.
    int Cluster = -1;
    /// Position inside the cluster, in access order.
    int Rank = 0;
    /// Loads only: the same-address stores, in access order.
    std::vector<int> Stores;
  };

  /// Builds the execution for the Choice values in \p Bound (indexed by
  /// ValueId; read at Choice definitions only). Check skip() before use.
  StaticExecution(const trans::FlatProgram &P, const ModelParams &Model,
                  const std::vector<lsl::Value> &Bound);

  /// Why the program is outside the supported fragment; None when built.
  OracleSkip skip() const { return Skip; }

  const std::vector<Access> &accesses() const { return Accesses; }
  /// The executed loads, in access order.
  const std::vector<int> &loads() const { return Loads; }
  int numClusters() const { return NumClusters; }

  /// True when store \p S is visible to load \p L by program order alone,
  /// at any position in <M (store forwarding).
  bool forwards(int S, int L) const;

  /// The writer rule: the store that load \p L reads when the accesses
  /// take the <M positions \p PosOf, i.e. the <M-latest same-address store
  /// visible to it (<M-earlier, or forwarded); -1 = initial memory.
  int latestVisibleStore(int L, const std::vector<int> &PosOf) const;

  /// Decides the execution in which every executed load L reads from
  /// \p WriterOf[L] (-1 = initial memory): runs the checks and adds the
  /// observation to \p Observations, unless an assume fails (an
  /// infeasible execution adds nothing). Returns CyclicValueDependency
  /// when a value depends on itself, else None.
  OracleSkip evaluate(const std::vector<int> &WriterOf,
                      std::set<RefObservation> &Observations);

private:
  /// Collects the accesses and the static edges; the skip, if any.
  OracleSkip build();
  /// Evaluates \p Id without loads; false if it depends on one.
  bool evalStatic(trans::ValueId Id, lsl::Value &Out);
  /// Evaluates \p Id with loads read through \p WriterOf; null on a
  /// cyclic value dependency. The value stays put until the next
  /// evaluate().
  const lsl::Value *evalDyn(trans::ValueId Id,
                            const std::vector<int> &WriterOf);
  void addEdge(int From, int To) {
    if (From != To)
      Accesses[To].Preds |= uint64_t(1) << From;
  }

  const trans::FlatProgram &P;
  ModelParams Model;
  OracleSkip Skip = OracleSkip::None;

  std::vector<lsl::Value> DefVals; // choice/const memo (static part)
  std::vector<char> DefKnown;

  std::vector<Access> Accesses;   // executed accesses only
  std::vector<int> AccessOfEvent; // event -> access index or -1
  std::vector<int> Loads;
  int NumClusters = 0;

  // Per-leaf evaluation state, sized once. A def's DynVal is this leaf's
  // when its stamp is KnownStamp(); BusyStamp() marks a def being
  // evaluated (to catch cycles). evaluate() advances Stamp instead of
  // clearing the arrays.
  uint64_t Stamp = 0;
  uint64_t BusyStamp() const { return Stamp; }
  uint64_t KnownStamp() const { return Stamp + 1; }
  std::vector<uint64_t> DynStamp;
  std::vector<const lsl::Value *> DynVal;
  std::vector<lsl::Value> OpVals;              // results of Op defs
  std::vector<std::vector<lsl::Value>> OpArgs; // operand scratch per Op def
  const lsl::Value Undef;
  RefObservation LeafObs;
};

/// A search over one static execution: adds the observations it finds and
/// returns why it stopped early (None when it ran to the end).
using ExecutionSearch =
    std::function<OracleSkip(StaticExecution &, std::set<RefObservation> &)>;

/// Builds the static execution of every Choice assignment of \p P in turn
/// (the first Choice varies slowest) and runs \p Search on each, until the
/// build or the search reports a skip.
OracleResult forEachChoice(const trans::FlatProgram &P,
                           const ModelParams &Model,
                           const ExecutionSearch &Search);

} // namespace memmodel
} // namespace checkfence

#endif // CHECKFENCE_MEMMODEL_STATICEXECUTION_H
