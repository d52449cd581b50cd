//===--- CnfStore.cpp - solver-free CNF capture ------------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "sat/CnfStore.h"

using namespace checkfence;
using namespace checkfence::sat;

bool CnfStore::replayInto(ClauseSink &Sink) const {
  for (int V = 0; V < Formula.NumVars; ++V)
    Sink.newVar();
  bool Ok = true;
  for (const std::vector<Lit> &C : Formula.Clauses)
    Ok = Sink.addClause(C) && Ok;
  return Ok;
}
