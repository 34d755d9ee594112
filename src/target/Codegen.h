//===- target/Codegen.h - AST -> CCE/SIMT kernel lowering -------*- C++ -*-===//
//
// Lowers the scheduled AST to the instruction IR (Sec 6) through one
// driver for both targets. "on_chip" regions become staged working sets
// with DMA in and store-back out, and "local_UB" units become vector (or
// scalar) compute. Storage management (box sizing and double buffering)
// happens here; checkBufferCapacities / checkSimtCapacities then check the
// liveness-aware peak against the machine model.
//
// Each target is a fixed description selected by its TargetKind:
//
//   - Cce: boxes live in UB, and "cube_unit" reductions are decomposed
//     into the img2col / fractal-load / MMAD sequence with the reduction
//     streamed through L1 in K chunks.
//   - Simt: boxes live in per-block shared memory, the outermost three
//     tile loops outside any region bind to blockIdx.x/y/z (one tile per
//     thread block), vectorizable units run thread-parallel across the
//     block, and cube units lower like any other unit. The block size is
//     the widest thread-mapped unit, warp-rounded and capped by
//     MaxThreadsPerBlock.
//
// Every instruction's functional semantics (Instr::Sem) is expressed over
// the *original global tensors*, so functional simulation is independent
// of how boxes were sized; ReadBufs/WriteBufs carry the on-chip buffer
// names used for synchronization, liveness, and capacity checking.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_TARGET_CODEGEN_H
#define AKG_TARGET_CODEGEN_H

#include "ir/Dsl.h"
#include "ir/PolyExtract.h"
#include "sim/Target.h"
#include "target/CceIr.h"

#include <string>

namespace akg {
namespace cce {

struct CodegenOptions {
  sim::MachineSpec Machine = sim::MachineSpec::ascend910();
  /// SIMT machine model, consumed when the compile targets
  /// sim::TargetKind::Simt. Part of the kernel-cache option fingerprint
  /// alongside Machine.
  sim::SimtSpec Simt = sim::SimtSpec::sm80();
  /// Map vectorizable innermost loops to V-pipe intrinsics (off: scalar).
  /// On the SIMT target this gates thread-parallel unit mapping.
  bool EnableVectorize = true;
  /// Ping-pong buffers for DMA-fed boxes in tile/chunk loops. On the SIMT
  /// target this gates cp.async-style pipelined shared-memory staging.
  bool EnableDoubleBuffer = true;
};

/// Lowers the scheduled AST of module \p M to a kernel for \p Target.
/// \p P is the polyhedral program the AST was generated from (used to
/// recognize Cube statements). Never fails structurally: units the Cube
/// path cannot express degrade to vector/scalar code, and units that do
/// not vectorize run on the scalar unit (one thread on SIMT).
Kernel lowerAst(sim::TargetKind Target, const ir::Stmt &Ast,
                const ir::Module &M, const ir::PolyProgram &P,
                const CodegenOptions &Opts, const std::string &Name);

/// Last-resort kernel: the whole module as one scalar instruction running
/// the naive loop nest. Allocates nothing on-chip, so it can never exceed
/// a buffer capacity; used as the bottom of the degradation ladder.
Kernel lowerScalarFallback(const ir::Module &M, const std::string &Name);

} // namespace cce
} // namespace akg

#endif // AKG_TARGET_CODEGEN_H
