//===--- Catalog.cpp - public catalog and version queries --------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "analysis/CriticalCycles.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"
#include "memmodel/MemoryModel.h"

using namespace checkfence;

#define CF_STR2(X) #X
#define CF_STR(X) CF_STR2(X)

const char *checkfence::versionString() {
  return CF_STR(CHECKFENCE_VERSION_MAJOR) "." CF_STR(
      CHECKFENCE_VERSION_MINOR) "." CF_STR(CHECKFENCE_VERSION_PATCH);
}

std::vector<ImplDesc> checkfence::listImplementations() {
  std::vector<ImplDesc> Out;
  for (const impls::ImplInfo &I : impls::allImpls())
    Out.push_back({I.Name, I.Kind, I.Description});
  return Out;
}

std::vector<TestDesc> checkfence::listTests() {
  std::vector<TestDesc> Out;
  for (const std::vector<harness::CatalogEntry> *List :
       {&harness::paperTests(), &harness::extensionTests()})
    for (const harness::CatalogEntry &E : *List)
      Out.push_back({E.Name, E.Kind, E.Notation});
  return Out;
}

std::vector<ModelDesc> checkfence::listModels() {
  std::vector<ModelDesc> Out;
  for (const memmodel::NamedModel &N : memmodel::namedModels())
    Out.push_back({N.Name, N.Params.str(), N.Note,
                   analysis::analysisEligible(N.Params)});
  return Out;
}

bool checkfence::validModelName(const std::string &Name) {
  return memmodel::modelFromName(Name).has_value();
}

std::string checkfence::implementationSource(const std::string &Name) {
  if (!impls::findImpl(Name))
    return std::string();
  return impls::sourceFor(Name);
}

std::string checkfence::preludeSource() {
  return impls::preludeSource();
}
