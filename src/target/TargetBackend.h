//===- target/TargetBackend.h - Backend dispatch interface ------*- C++ -*-===//
//
// The seam between the shared polyhedral frontend and the per-target
// backends. Everything above AST generation (preparation, Pluto
// scheduling, auto-tiling, post-tiling fusion, intra-tile dispatch) is
// target-independent; everything below — lowering the scheduled AST to
// the instruction IR, checking the lowered kernel against the machine's
// on-chip capacities, inserting synchronization, and the bottom-rung
// scalar fallback — routes through this interface.
//
// Backends are stateless singletons (all configuration travels in
// cce::CodegenOptions), so the pass pipeline can hold one pointer per
// compile and stay safe for concurrent compiles. Both backends lower
// through the one driver of target/Codegen.h; the SIMT backend targets a
// grid-of-thread-blocks machine.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_TARGET_TARGETBACKEND_H
#define AKG_TARGET_TARGETBACKEND_H

#include "ir/PolyExtract.h"
#include "target/Codegen.h"
#include "target/Sync.h"

namespace akg {

class TargetBackend {
public:
  virtual ~TargetBackend() = default;

  virtual sim::TargetKind kind() const = 0;

  /// Trace/pass name of the lowering pass ("lower_cce", "lower_simt").
  virtual const char *lowerPassName() const = 0;

  /// Lowers the scheduled AST to this target's kernel. Never fails
  /// structurally (units the target cannot express degrade in place).
  cce::Kernel lower(const ir::Stmt &Ast, const ir::Module &M,
                    const ir::PolyProgram &P, const cce::CodegenOptions &Opts,
                    const std::string &Name) const {
    return cce::lowerAst(kind(), Ast, M, P, Opts, Name);
  }

  /// Liveness-aware capacity check against this target's on-chip
  /// memories; "" when everything fits. A non-empty diagnostic drives the
  /// tile-retry halving ladder exactly as on CCE.
  virtual std::string checkStorage(const cce::Kernel &K,
                                   const cce::CodegenOptions &Opts) const = 0;

  /// Inserts this target's synchronization: set/wait flag pairs on CCE,
  /// block-wide __syncthreads barriers on SIMT.
  virtual cce::SyncReport insertSync(cce::Kernel &K,
                                     cce::SyncStrategy S) const = 0;

  /// Bottom of the degradation ladder: a kernel that always fits and is
  /// always correct on this target.
  virtual cce::Kernel scalarFallback(const ir::Module &M,
                                     const std::string &Name) const = 0;
};

/// The stateless backend singleton for \p K.
const TargetBackend &targetBackend(sim::TargetKind K);

} // namespace akg

#endif // AKG_TARGET_TARGETBACKEND_H
