//===--- Corpus.h - scenario dedup and repro persistence --------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explore corpus: dedupes scenarios by lowered-program fingerprint
/// (two textually different generations of the same program are the same
/// work) and persists shrunk divergence reproducers as re-checkable
/// files.
///
/// A repro file is self-contained: the litmus source (re-rendered from
/// the lowered program via lsl::printCSource so it re-compiles to a
/// byte-identical program), or the implementation name plus the TestSpec
/// notation for symbolic scenarios, together with the model axis and the
/// divergence that was observed. loadRepro() turns the file back into a
/// runnable Scenario.
///
/// With a corpus directory configured, seen fingerprints persist across
/// runs ("seen.txt"), so repeated explore sessions spend their budget on
/// fresh scenarios. Without one the corpus is in-memory only.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_EXPLORE_CORPUS_H
#define CHECKFENCE_EXPLORE_CORPUS_H

#include "explore/Differential.h"
#include "explore/Generator.h"

#include <set>
#include <string>

namespace checkfence {
namespace explore {

/// A persisted (or to-be-persisted) divergence reproducer.
struct Repro {
  std::string Label;
  Divergence Div;
  std::vector<std::string> Models; ///< model axis the divergence needs
  int Threads = 0;
  int Ops = 0;
  /// Exactly one of these is set: litmus source, or impl + notation.
  std::string Source;
  std::string Impl;
  std::string Notation;

  /// A runnable scenario equivalent to this repro (litmus scenarios
  /// come back without shrinkable structure).
  Scenario toScenario() const;
};

/// Fingerprint of the scenario's lowered program(s) - the corpus dedup
/// key. Empty + \p Error on frontend failures. A litmus scenario's
/// lowered program is moved into \p Lowered when it is non-null, so the
/// differential runner need not compile the source again.
std::string scenarioFingerprint(const Scenario &S, std::string &Error,
                                std::optional<lsl::Program> *Lowered =
                                    nullptr);

/// Builds the repro record for a (typically shrunk) divergent scenario.
/// Litmus sources are re-rendered through lsl::printCSource from the
/// compiled program. False + \p Error when the scenario cannot be
/// persisted (outside the printer fragment).
bool buildRepro(const Scenario &S, const Divergence &D,
                const std::vector<memmodel::ModelParams> &Models,
                Repro &Out, std::string &Error);

class Corpus {
public:
  /// \p Dir empty = in-memory dedup only, nothing persisted.
  explicit Corpus(std::string Dir);

  /// Loads seen fingerprints from the directory (no-op without one).
  void load();

  /// True when the fingerprint was already noted (this run or, with a
  /// directory, a previous one).
  bool seen(const std::string &Fp) const;
  void note(const std::string &Fp);
  size_t size() const { return Seen.size(); }

  /// Appends newly noted fingerprints to seen.txt (no-op without a
  /// directory). False on I/O failure.
  bool persist();

  /// Writes a repro file ("repro-<fp>.txt"); returns its path, or ""
  /// without a directory, with \p Error set on I/O failure.
  std::string saveRepro(const Repro &R, const std::string &Fp,
                        std::string &Error) const;

private:
  std::string Dir;
  std::set<std::string> Seen;
};

/// Serializes \p R into the repro file format (also used by tests to
/// round-trip without touching disk).
std::string renderRepro(const Repro &R);

/// Parses a repro file's contents. False + \p Error on malformed input.
bool parseRepro(const std::string &Text, Repro &Out, std::string &Error);

/// Reads and parses a repro file from disk.
bool loadRepro(const std::string &Path, Repro &Out, std::string &Error);

} // namespace explore
} // namespace checkfence

#endif // CHECKFENCE_EXPLORE_CORPUS_H
