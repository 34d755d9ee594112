//===- target/Sync.h - Pipeline synchronization insertion -------*- C++ -*-===//
//
// Inserts set_flag/wait_flag pairs (and barriers) so the six decoupled
// pipelines respect data dependences (paper Sec 7). The AkgDp strategy
// groups dependences per pipe pair and keeps only the non-dominated edges
// (the DP formulation of the paper); loop-carried edges in double-buffered
// loops wait at depth 2, which is exactly ping-pong buffering. SIMT kernels
// have no flags: block-wide __syncthreads barriers order their
// shared-memory producers and consumers instead.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_TARGET_SYNC_H
#define AKG_TARGET_SYNC_H

#include "target/CceIr.h"

namespace akg {
namespace cce {

enum class SyncStrategy {
  AkgDp,        // minimal flag cover + depth-2 ping-pong waits
  TvmEmpirical, // every conflicting pair gets its own depth-1 flag
  FullSerial,   // a pipe barrier after every instruction
};

struct SyncReport {
  unsigned FlagsInserted = 0;    // set/wait pairs
  unsigned BarriersInserted = 0; // full barriers
};

/// Rewrites \p K in place, inserting synchronization instructions.
SyncReport insertSynchronization(Kernel &K, SyncStrategy Strategy);

/// Inserts block-wide __syncthreads barriers into SIMT kernel \p K so
/// shared-memory writers complete before readers start (RAW) and readers
/// finish before the buffer is overwritten (WAR/WAW). FullSerial places a
/// barrier after every instruction; the other strategies insert the
/// minimal conflict cover.
SyncReport insertSimtBarriers(Kernel &K, SyncStrategy Strategy);

} // namespace cce
} // namespace akg

#endif // AKG_TARGET_SYNC_H
