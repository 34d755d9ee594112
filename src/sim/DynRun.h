//===- sim/DynRun.h - Late-bound execution of bucketed kernels --*- C++ -*-===//
//
// Executes a dynamic-shape CompileResult on a concrete request
// (DESIGN.md 4k). A bucketed kernel computes at the bucket-representative
// extents; binding a concrete request means zero-padding every dynamic
// input dimension up to the representative, running the skeleton kernel,
// and slicing every output back to the request extents. The admission
// analysis guarantees each in-range output element depends only on
// in-range input elements (pointwise-in-dynamic-axes class), so the
// sliced results are exactly what a per-shape compile would produce
// functionally - the hard correctness gate of bench/shape_stream and the
// dynshape fuzz oracle check precisely this.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_SIM_DYNRUN_H
#define AKG_SIM_DYNRUN_H

#include "akg/Compiler.h"
#include "sim/Compare.h"

namespace akg {
namespace sim {

/// Runs \p R against \p Gm, whose buffers hold the CONCRETE request
/// shapes of \p RequestM, on the simulator of R.Kernel.Target: machine
/// \p Spec for CCE kernels, SimtSpec::sm80() for SIMT kernels (as
/// verifyKernel does). When R.DynShape is set, pads dynamic inputs to the
/// representative extents, simulates the skeleton, and slices outputs
/// back; otherwise a plain simulation. Outputs are written into \p Gm at
/// the request shapes either way.
SimResult runBound(const CompileResult &R, const ir::Module &RequestM,
                   const MachineSpec &Spec, ir::BufferMap *Gm,
                   const SimOptions &Opts = SimOptions());

/// diffKernelAgainstReference for (possibly) bucketed results: seeds
/// inputs from \p RequestM, executes via runBound, and diffs against the
/// reference evaluator on the concrete shapes. \p BitsOut receives the
/// bit-exact output hash when non-null (determinism sweeps).
FunctionalDiff diffBoundAgainstReference(const CompileResult &R,
                                         const ir::Module &RequestM,
                                         const MachineSpec &Spec,
                                         uint32_t Seed = 1,
                                         SimResult *SimOut = nullptr,
                                         uint64_t *BitsOut = nullptr);

} // namespace sim
} // namespace akg

#endif // AKG_SIM_DYNRUN_H
