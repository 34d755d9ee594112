//===- akg/Compiler.h - The AKG compiler driver -----------------*- C++ -*-===//
//
// The end-to-end AKG pipeline (paper Fig 2): DSL module -> preparation
// passes -> polyhedral extraction -> dependence analysis -> Pluto
// scheduling with clustering -> live-out tiling (Auto Tiling or a manual
// Fig 4 policy) -> post-tiling fusion via the reverse strategy ->
// intra-tile fusion/distribution with local_UB / cube_unit dispatch ->
// AST generation -> CCE lowering with storage management, img2col +
// fractal GEMM, vectorization and double buffering -> DP-grouped pipeline
// synchronization.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_COMPILER_H
#define AKG_AKG_COMPILER_H

#include "ir/Dsl.h"
#include "schedule/AstGen.h"
#include "scheduler/Pluto.h"
#include "support/Cancel.h"
#include "support/Diag.h"
#include "support/Status.h"
#include "support/Trace.h"
#include "target/Codegen.h"
#include "target/Sync.h"
#include "transforms/AutoTiling.h"

#include <memory>
#include <optional>

namespace akg {

struct AkgOptions {
  /// Which simulated machine to compile for (sim/Target.h). The whole
  /// polyhedral frontend is shared; lowering, storage checks, sync and
  /// simulation dispatch through target/TargetBackend.h.
  sim::TargetKind Target = sim::TargetKind::Cce;
  sched::SchedulerOptions Scheduler;
  cce::CodegenOptions Codegen;
  cce::SyncStrategy Sync = cce::SyncStrategy::AkgDp;
  /// Manual tile policy (Fig 4 language); Auto Tiling when unset.
  std::optional<transforms::TilingPolicy> ManualTiles;
  bool EnablePostTilingFusion = true;
  bool EnableIntraTile = true;
  bool EnableInlining = false; // preparation inlining of trivial producers
  /// Retries with halved tiles if buffers overflow.
  unsigned MaxTileRetries = 24;
  /// Wall-clock + solver budgets; exhaustion degrades, never aborts.
  CompileBudget Budget;
  /// AST generation (the AST memo switch).
  sched::AstGenOptions AstGen;
  /// Fault injection: force this stage's preferred path to fail so the
  /// degradation ladder runs.
  Stage FailStage = Stage::None;
  /// Hard wall-clock deadline for this request, in milliseconds (0 =
  /// none). Unlike Budget.DeadlineSeconds (a soft budget stages degrade
  /// under), hitting this deadline unwinds the compile with Outcome =
  /// DeadlineExceeded. Excluded from the cache fingerprint: failed
  /// results never enter the cache, so the deadline cannot change what a
  /// cached kernel looks like.
  double RequestDeadlineMs = 0;
  /// Cooperative cancellation: the requester may flip this token from any
  /// thread; the pipeline notices at the next checkpoint and unwinds with
  /// Outcome = Cancelled. Also excluded from the cache fingerprint.
  std::shared_ptr<CancelToken> Cancel;
};

/// Late-bound shape metadata attached to a CompileResult served from a
/// bucketed skeleton (DESIGN.md 4k). The kernel itself is the skeleton
/// compiled at the bucket representatives; executing a concrete request
/// pads each dynamic input dim with zeros up to the representative extent,
/// runs the skeleton, and slices every output back to the concrete extents
/// (sound for the pointwise-in-dynamic-axes class the admission analysis
/// enforces). Immutable after construction -- shared across cache hits.
struct ShapeBinding {
  /// Shape symbol -> concrete extent of this request.
  std::map<std::string, int64_t> Concrete;
  /// Shape symbol -> bucket-representative extent the skeleton compiled at.
  std::map<std::string, int64_t> Representative;
  /// Shape symbol -> bucket id ("b64", ...) that entered the cache key.
  std::map<std::string, std::string> BucketIds;
  /// Per-tensor dynamic-dim symbols: tensor name -> (dim -> symbol), for
  /// inputs and outputs with at least one marked dim.
  std::map<std::string, std::map<unsigned, std::string>> TensorSyms;
};

struct CompileResult {
  cce::Kernel Kernel;
  /// The module actually compiled (after preparation passes).
  std::shared_ptr<ir::Module> Mod;
  std::string ScheduleTreeDump;
  std::string TilingPolicyText; // Fig 4 rendering of the chosen sizes
  std::vector<int64_t> TileSizes;
  unsigned FusedProducers = 0;
  bool UsedSchedulerFallback = false;
  cce::SyncReport Sync;
  /// Every rung taken down the fallback ladder (empty = clean compile).
  DegradationReport Degradation;
  /// What the pass pipeline did: one event per executed pass, plus the
  /// controller decisions (retiles, fusion rejection) and cache hits.
  /// Dumpable via AKG_TRACE (support/Trace.h, DESIGN.md 4g).
  CompileTrace Trace;
  /// How the request terminated. ok = the pipeline ran to completion
  /// (possibly degraded). DeadlineExceeded/Cancelled = the compile was
  /// unwound early and Kernel holds the scalar fallback. The service layer
  /// also produces Overloaded/Quarantined/Unavailable outcomes. Results
  /// with a non-ok Outcome are never inserted into the kernel cache.
  Status Outcome;
  /// End-to-end request latency through CompileService (admission to
  /// completion: queue wait + chaos sleeps + retries + compile). Zero for
  /// compiles that did not go through the service.
  double ServiceSeconds = 0;
  /// Set when this result was served from a bucketed dynamic-shape
  /// skeleton: Kernel computes at the bucket-representative extents and
  /// sim::runBound pads/slices to the concrete request shape. Null for
  /// ordinary per-shape compiles. Shared (immutable) across cache hits.
  std::shared_ptr<const ShapeBinding> DynShape;
};

/// Compiles one fused operator with the full AKG pipeline.
CompileResult compileWithAkg(const ir::Module &M, const AkgOptions &Opts,
                             const std::string &Name);

/// Convenience: compile + simulate functionally + compare against the
/// reference evaluator; returns the max abs error over all outputs.
/// Dispatches on K.Target: SIMT kernels run under sim::simulateSimt
/// (functional results are launch-shape- and spec-independent, so the
/// default SIMT machine is used); \p Spec drives CCE kernels as before.
double verifyKernel(const cce::Kernel &K, const ir::Module &M,
                    const sim::MachineSpec &Spec, uint32_t Seed = 1);

} // namespace akg

#endif // AKG_AKG_COMPILER_H
