//===- sim/SimtRun.h - SIMT machine simulator -------------------*- C++ -*-===//
//
// Executes SIMT kernels (target/Codegen.h) on the grid-of-thread-blocks
// machine model (sim::SimtSpec). Mirrors sim/Simulator.h's split:
//
//  * Functional execution: semantic payloads run in program order against
//    global buffers — grid mapping and barriers never reorder the
//    functional walk, so outputs are deterministic and directly
//    comparable with ir::evaluateModule regardless of the launch shape.
//
//  * Cycle accounting: one block's serial work is costed instruction by
//    instruction under a coalescing global-memory model (transactions =
//    max(bursts, bytes / CoalesceBytes)) and thread-parallel compute
//    (elems / BlockThreads per step); the grid then executes in waves of
//    ConcurrentBlocks = NumSMs * min(MaxBlocksPerSM, shared-memory
//    occupancy) blocks, so total cycles = launch latency + serial work
//    divided across the concurrently-resident blocks.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_SIM_SIMTRUN_H
#define AKG_SIM_SIMTRUN_H

#include "sim/Compare.h"
#include "sim/Simulator.h"
#include "sim/Target.h"

namespace akg {
namespace sim {

struct SimtResult {
  int64_t Cycles = 0;
  /// True when the run stopped at MaxDynamicInstrs; Cycles is then a lower
  /// bound (same contract as SimResult::Truncated).
  bool Truncated = false;
  int64_t DynamicInstrs = 0;
  int64_t GmTrafficBytes = 0;   // global-memory DMA bytes
  int64_t Transactions = 0;     // coalesced memory transactions issued
  int64_t Barriers = 0;         // dynamic __syncthreads count
  int64_t Blocks = 0;           // launch grid size
  int64_t ThreadsPerBlock = 0;
  int64_t Waves = 0;            // ceil(Blocks / ConcurrentBlocks)
  int64_t SharedBytesPeak = 0;  // per-block shared allocation footprint
};

/// Runs SIMT kernel \p K on machine \p S. When \p Gm is non-null it must
/// contain every input tensor buffer; outputs are written into it.
SimtResult simulateSimt(const cce::Kernel &K, const SimtSpec &S,
                        ir::BufferMap *Gm,
                        const SimOptions &Opts = SimOptions());

/// Runs \p K functionally on inputs seeded with \p Seed and diffs against
/// ir::evaluateModule — the SIMT analogue of diffKernelAgainstReference.
/// A truncated run is reported as a diff with MissingOutput set.
FunctionalDiff diffSimtAgainstReference(const cce::Kernel &K,
                                        const ir::Module &M,
                                        const SimtSpec &Spec,
                                        uint32_t Seed = 1,
                                        SimtResult *SimOut = nullptr,
                                        uint64_t *BitsOut = nullptr);

} // namespace sim
} // namespace akg

#endif // AKG_SIM_SIMTRUN_H
