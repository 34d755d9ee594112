//===- akg/Pipeline.h - The staged compile pass pipeline --------*- C++ -*-===//
//
// The AKG pipeline (paper Fig 2) as a first-class object. Each stage -
// prepare, extract-poly, dependences, schedule, tiling, post-tiling
// fusion, intra-tile, AST gen, CCE lowering, storage check, vectorize,
// double-buffer, sync - is one Pass with a uniform interface:
//
//   * a name and the Stage id it owns for fault injection,
//   * a run function over the shared CompileState,
//   * a declarative OnInjectedFault hook: when AKG_FAIL_STAGE (or
//     AkgOptions::FailStage) names the pass's stage, the pipeline invokes
//     the hook once at setup instead of the driver growing another
//     `Fail == Stage::X` branch,
//   * an optional snapshot function embedded into the trace under
//     AKG_TRACE_SNAPSHOTS=1.
//
// Two stages are pure knob passes (vectorize, double_buffer): they
// parameterize the CCE lowering rather than running on their own, so they
// carry only a fault hook and emit no trace event.
//
// Pipeline::run wraps every executed pass in uniform instrumentation: a
// wall timer, a Stats counter snapshot/diff, and capture of the
// degradation steps the pass recorded - one TraceEvent per executed pass
// into CompileResult::Trace (plus legacy "akg.<pass>" Stats timers under
// AKG_STATS=1).
//
// The attempt/retry ladders of the old monolithic driver are explicit
// controllers here: FusionRejectionController reruns the scheduled
// section with clustering disabled when minimal tiles cannot fit a fused
// region, and TileRetryLadder drives the tile-and-lower section, halving
// the largest free tile on each storage failure. Both record their
// decisions as synthetic trace events ("reject_fusion", "retile").
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_PIPELINE_H
#define AKG_AKG_PIPELINE_H

#include "akg/Compiler.h"
#include "ir/PolyExtract.h"
#include "schedule/ScheduleTree.h"
#include "scheduler/Dependence.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace akg {

class TargetBackend;

/// Everything a pass may read or write: the module under compilation, the
/// polyhedral program, the resolved option knobs (fault injection folds
/// into these), the per-attempt/per-retry working set, and the
/// CompileResult being assembled.
struct CompileState {
  // -- compile request (immutable) -----------------------------------------
  const ir::Module *Input = nullptr;
  const AkgOptions *Opts = nullptr;
  std::string Name;
  Stage Fail = Stage::None; // fault-injection stage (Opts->FailStage)
  /// Compile target (Opts->Target) and its backend; every
  /// hardware-specific pass body dispatches through Backend.
  sim::TargetKind Target = sim::TargetKind::Cce;
  const TargetBackend *Backend = nullptr;

  // -- prepared module -----------------------------------------------------
  /// Owns the prepared module; tensor declarations are shared into the
  /// kernel, so it must outlive the CompileResult (returned as Res.Mod).
  std::shared_ptr<ir::Module> PreparedMod;
  const ir::Module *M = nullptr; // module actually compiled

  // -- polyhedral form -----------------------------------------------------
  ir::PolyProgram Poly;
  std::vector<sched::Dependence> Deps;

  // -- resolved knobs (fault-injection hooks flip these) -------------------
  sched::SchedulerOptions BaseSched;
  cce::CodegenOptions CG;
  cce::SyncStrategy SyncS = cce::SyncStrategy::AkgDp;
  bool PostFusion = true;
  bool SinkDims = true;
  bool InjectMinimalTiles = false; // tiling hook: unit tiles per attempt
  bool InjectStorage = false;      // storage hook: one simulated cap failure
  std::string SchedFallbackReason = "scheduling ILP unsolved (too hard)";
  Deadline DL; // armed by the driver after the frontend section

  // -- per-attempt state (reset by FusionRejectionController) --------------
  unsigned Attempt = 0;
  sched::ScheduleResult SR;
  transforms::AutoTilingOptions ATOpts;
  std::vector<int64_t> Sizes;
  unsigned LiveStmt = 0;
  unsigned W = 0; // live-out band width
  bool CapacityExhausted = false;

  // -- per-retry state (tile-and-lower section) ----------------------------
  unsigned Retry = 0;
  sched::ScheduleTree Tree;
  ir::Stmt Ast;
  cce::Kernel Kernel;
  std::string CapErr;

  // -- outcome -------------------------------------------------------------
  bool Compiled = false;
  bool TimedOut = false;
  CompileResult Res;

  /// Scratch note a pass may leave for its own trace event.
  std::string PassNote;

  /// Dimensions whose tile size is mandated by the cube pipeline keep it
  /// through every degradation (halving, injection).
  bool isPinned(unsigned D) const {
    for (unsigned F : ATOpts.FullDims)
      if (F == D)
        return true;
    for (unsigned U : ATOpts.UnitDims)
      if (U == D)
        return true;
    return false;
  }
};

/// One pipeline stage.
struct Pass {
  std::string Name;        // trace/pass name ("schedule", "tiling", ...)
  Stage Id = Stage::None;  // fault-injection stage this pass owns
  std::function<void(CompileState &)> Run;             // null = knob pass
  std::function<void(CompileState &)> OnInjectedFault; // null = none
  std::function<std::string(const CompileState &)> Snapshot; // optional
};

/// An ordered list of passes with uniform trace instrumentation.
class Pipeline {
public:
  Pipeline &add(Pass P);

  const std::vector<Pass> &passes() const { return Passes; }
  const Pass *find(const std::string &Name) const;

  /// Invokes the OnInjectedFault hook of the pass owning S.Fail (if any)
  /// and records a synthetic "fault_injection" trace event carrying the
  /// degradation steps the hook recorded. Called once, at setup.
  void applyFaultInjection(CompileState &S) const;

  /// Runs one pass by name with full instrumentation.
  void runOne(CompileState &S, const std::string &Name) const;

  /// Runs the contiguous section of executable passes from \p From to
  /// \p To inclusive (knob passes in between are skipped).
  void runSection(CompileState &S, const std::string &From,
                  const std::string &To) const;

private:
  void runPass(CompileState &S, const Pass &P) const;
  std::vector<Pass> Passes;
};

/// The standard AKG pass list in stage order. Shared, stateless (all
/// state lives in CompileState), safe for concurrent compiles.
const Pipeline &akgPipeline();

/// The pass list for \p T. The shared frontend (prepare .. ast_gen) and
/// the controllers are identical across targets; only the lowering pass
/// differs by name and body ("lower_cce" vs "lower_simt" — storage_check
/// and sync keep their names and dispatch through CompileState::Backend).
const Pipeline &akgPipeline(sim::TargetKind T);

/// Pipeline controller: drives the tile-and-lower section (build_tree ..
/// storage_check) until the storage check passes, the retry budget or
/// halvable tiles run out, or the deadline expires. On success runs the
/// sync pass; each halving decision becomes a "retile" trace event.
class TileRetryLadder {
public:
  /// Returns with S.Compiled-relevant flags set: CapErr empty + synced
  /// (success), S.CapacityExhausted, or S.TimedOut.
  void run(CompileState &S, const Pipeline &PL) const;
};

/// Pipeline controller: attempt 0 compiles with the requested options;
/// when even minimal tiles cannot satisfy the buffer capacities (a fused
/// region keeping several very wide rows live), attempt 1 rejects the
/// fusion entirely - clustering is disabled so every statement tiles over
/// its own full dimensionality and intermediates round-trip global
/// memory. The rejection is recorded as a degradation and a trace event.
class FusionRejectionController {
public:
  void run(CompileState &S, const Pipeline &PL) const;
};

/// Runs the full pass pipeline for one compile: frontend section, the
/// fusion-rejection/tile-retry controllers, and the scalar-fallback
/// bottom rung when nothing compiled. The returned result carries the
/// complete CompileTrace.
CompileResult runPassPipeline(const ir::Module &M, const AkgOptions &Opts,
                              const std::string &Name);

} // namespace akg

#endif // AKG_AKG_PIPELINE_H
