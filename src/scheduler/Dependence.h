//===- scheduler/Dependence.h - Data dependence analysis --------*- C++ -*-===//
//
// Memory-based dependence analysis over the extracted polyhedral program.
// Each dependence is a convex relation from source iterations to target
// iterations, restricted by both domains and by the original (textual)
// execution order. These relations feed the Pluto-style scheduler's Farkas
// legality constraints and the fusion heuristics.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_SCHEDULER_DEPENDENCE_H
#define AKG_SCHEDULER_DEPENDENCE_H

#include "ir/PolyExtract.h"

namespace akg {
namespace sched {

enum class DepKind { RAW, WAR, WAW };

struct Dependence {
  unsigned Src = 0;
  unsigned Dst = 0;
  DepKind Kind = DepKind::RAW;
  /// Source iterations -> destination iterations (one convex piece; lex
  /// order on self-dependences yields several pieces, hence several
  /// Dependence entries).
  poly::BasicMap Rel;
  bool IsSelf = false;

  const char *kindName() const {
    switch (Kind) {
    case DepKind::RAW:
      return "RAW";
    case DepKind::WAR:
      return "WAR";
    case DepKind::WAW:
      return "WAW";
    }
    return "?";
  }
};

/// Computes all pairwise dependences of the program.
///
/// Statement pairs are analysed independently, fanned out over a thread
/// pool of \p Threads workers (1, the default and what the compile
/// pipeline uses, runs on the calling thread). The result is deterministic
/// and identical at any thread count: per-pair results are collected into
/// pair-indexed slots and concatenated in the sequential pair order.
std::vector<Dependence> computeDependences(const ir::PolyProgram &P,
                                           unsigned Threads = 1);

/// Minimum / maximum of (dst iterator \p OutDim - src iterator \p InDim)
/// over the dependence relation; nullopt when unbounded.
std::optional<int64_t> depDistanceMin(const Dependence &D, unsigned InDim,
                                      unsigned OutDim);
std::optional<int64_t> depDistanceMax(const Dependence &D, unsigned InDim,
                                      unsigned OutDim);

} // namespace sched
} // namespace akg

#endif // AKG_SCHEDULER_DEPENDENCE_H
