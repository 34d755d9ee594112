//===- akg/Pipeline.cpp - The staged compile pass pipeline ----------------===//

#include "akg/Pipeline.h"

#include "ir/Passes.h"
#include "schedule/AstGen.h"
#include "support/Stats.h"
#include "target/TargetBackend.h"
#include "transforms/Conv.h"
#include "transforms/Fusion.h"
#include "transforms/IntraTile.h"
#include "transforms/Tiling.h"

#include <chrono>

namespace akg {

using namespace ir;
using namespace sched;
using namespace transforms;

//===----------------------------------------------------------------------===//
// Pipeline mechanics
//===----------------------------------------------------------------------===//

Pipeline &Pipeline::add(Pass P) {
  Passes.push_back(std::move(P));
  return *this;
}

const Pass *Pipeline::find(const std::string &Name) const {
  for (const Pass &P : Passes)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

void Pipeline::applyFaultInjection(CompileState &S) const {
  if (S.Fail == Stage::None)
    return;
  size_t DegBefore = S.Res.Degradation.Steps.size();
  for (const Pass &P : Passes)
    if (P.Id == S.Fail && P.OnInjectedFault)
      P.OnInjectedFault(S);
  TraceEvent E;
  E.Pass = "fault_injection";
  E.Id = S.Fail;
  E.Note = std::string("stage ") + stageName(S.Fail) +
           " forced onto its degradation path";
  for (size_t I = DegBefore, N = S.Res.Degradation.Steps.size(); I < N; ++I)
    E.Degradations.push_back(S.Res.Degradation.Steps[I]);
  S.Res.Trace.Events.push_back(std::move(E));
}

void Pipeline::runPass(CompileState &S, const Pass &P) const {
  // Pass-boundary checkpoint: an expired deadline or flipped token stops
  // the compile before the next pass starts. A checkpoint tripped deeper
  // inside the pass (Pluto rows, dependence pairs, AST recursion) may not
  // know its pass name, so it is attributed here on the way out. Either
  // way no TraceEvent is pushed for the aborted pass - the pipeline
  // driver emits the single terminal event instead, so the trace never
  // holds a half-measured entry.
  cancel::checkPoint(P.Name.c_str());
  size_t DegBefore = S.Res.Degradation.Steps.size();
  std::map<std::string, int64_t> Before = Stats::get().snapshotCounters();
  auto T0 = std::chrono::steady_clock::now();
  S.PassNote.clear();
  try {
    P.Run(S);
  } catch (CancelledError &E) {
    if (E.where().empty())
      E.setWhere(P.Name);
    throw;
  }
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  if (Stats::enabled()) {
    // Keep the legacy "akg.<pass>" timer keys of the monolithic driver so
    // AKG_STATS profiles stay comparable across the refactor.
    Stats::get().addTime("akg." + P.Name, Wall);
    Stats::get().add("akg." + P.Name + ".calls");
  }
  TraceEvent E;
  E.Pass = P.Name;
  E.Id = P.Id;
  E.Attempt = S.Attempt;
  E.Retry = S.Retry;
  E.WallSeconds = Wall;
  E.Counters = Stats::diffCounters(Before, Stats::get().snapshotCounters());
  for (size_t I = DegBefore, N = S.Res.Degradation.Steps.size(); I < N; ++I)
    E.Degradations.push_back(S.Res.Degradation.Steps[I]);
  E.Note = std::move(S.PassNote);
  if (P.Snapshot && trace::snapshotsEnabled())
    E.Snapshot = P.Snapshot(S);
  S.Res.Trace.Events.push_back(std::move(E));
}

void Pipeline::runOne(CompileState &S, const std::string &Name) const {
  const Pass *P = find(Name);
  if (P && P->Run)
    runPass(S, *P);
}

void Pipeline::runSection(CompileState &S, const std::string &From,
                          const std::string &To) const {
  bool Active = false;
  for (const Pass &P : Passes) {
    if (P.Name == From)
      Active = true;
    if (Active && P.Run)
      runPass(S, P);
    if (P.Name == To)
      break;
  }
}

//===----------------------------------------------------------------------===//
// The pass bodies (paper Fig 2, in stage order)
//===----------------------------------------------------------------------===//

namespace {

// Preparation passes (Sec 3). The prepared module must outlive the
// kernel (tensor declarations are shared into it).
void runPrepare(CompileState &S) {
  S.PreparedMod = std::make_shared<Module>(
      S.Opts->EnableInlining ? inlineElementwiseOps(*S.Input) : Module());
  S.M = S.Opts->EnableInlining ? S.PreparedMod.get() : S.Input;
}

void runExtractPoly(CompileState &S) { S.Poly = extractPolyProgram(*S.M); }

void runDependences(CompileState &S) { S.Deps = computeDependences(S.Poly); }

void runSchedule(CompileState &S) {
  sched::SchedulerOptions SchedOpts = S.BaseSched;
  if (S.Attempt == 1)
    SchedOpts.Fusion = sched::FusionStrategy::None;
  S.SR = computeSchedule(S.Poly, S.Deps, SchedOpts);
  S.Res.UsedSchedulerFallback = false;
  for (const ClusterSchedule &CS : S.SR.Clusters)
    S.Res.UsedSchedulerFallback |= CS.UsedFallback;
  if (S.Res.UsedSchedulerFallback &&
      !S.Res.Degradation.hasStage(Stage::Scheduler))
    S.Res.Degradation.record(
        Stage::Scheduler, S.SchedFallbackReason,
        "identity schedules, cluster split into singletons");
}

// Tile-size selection for the live-out cluster.
void runTiling(CompileState &S) {
  const ClusterSchedule &Live = S.SR.Clusters.back();
  S.LiveStmt = Live.Stmts.front();
  S.W = static_cast<unsigned>(Live.Outer.at(S.LiveStmt).Rows.size());

  S.ATOpts = AutoTilingOptions();
  S.ATOpts.FusedFootprint = S.PostFusion && S.Attempt == 0;
  // Cube constraints: keep conv output rows contiguous (wo untiled),
  // batch tiles at 1, and never tile a cube op's reduction dimensions at
  // the band level (the cube pipeline chunks K internally). Positions are
  // derived from the statement's axis list so the rules hold whether the
  // band covers the output axes only or, on the no-fusion fallback, the
  // full iterator vector. SIMT has no cube pipeline, so no dimension is
  // pinned there and the retry ladder may halve any of them.
  if (S.Target == sim::TargetKind::Cce)
    for (unsigned St : Live.Stmts)
      if (auto D = matchCubeOp(S.Poly.Stmts[St])) {
        unsigned NOut =
            static_cast<unsigned>(S.Poly.Stmts[St].Op->Axis.size());
        if (D->IsConv && NOut >= 1 && NOut - 1 < S.W)
          S.ATOpts.FullDims.push_back(NOut - 1); // wo
        if (((D->IsConv && NOut == 4) ||
             (!D->IsConv && D->Batch > 1 && NOut == 3)) &&
            S.W >= 1)
          S.ATOpts.UnitDims.push_back(0); // batch
        for (unsigned K = NOut; K < S.W; ++K)
          S.ATOpts.FullDims.push_back(K); // reduction dims stay whole
      }

  if (S.Opts->ManualTiles) {
    // The policy may name any statement of the live-out cluster (users
    // typically name the update statement).
    S.Sizes.assign(S.W, 1);
    for (unsigned St : Live.Stmts)
      if (S.Opts->ManualTiles->PerStmt.count(St)) {
        S.Sizes = S.Opts->ManualTiles->sizesFor(St, S.W);
        break;
      }
    // The fractal constraints hold regardless of who chose the sizes (the
    // Fig 4 language frees users from validity concerns, Sec 4.2).
    const auto &Iters = S.Poly.Stmts[S.LiveStmt].Iters;
    for (unsigned D : S.ATOpts.FullDims)
      if (D < S.W)
        S.Sizes[D] = D < Iters.size() ? Iters[D].Extent : 1;
    for (unsigned D : S.ATOpts.UnitDims)
      if (D < S.W)
        S.Sizes[D] = 1;
    S.Res.TilingPolicyText = printTilingPolicy(*S.Opts->ManualTiles);
  } else {
    // Capacities and the data-movement model come from the active target
    // (UB/L1 + DMA bursts on CCE, shared memory + coalesced transactions
    // on SIMT); the search itself is shared.
    AutoTilingResult AT =
        autoTile(S.Poly, S.SR,
                 S.Target == sim::TargetKind::Simt
                     ? sim::TargetSpec::simt(S.CG.Simt)
                     : sim::TargetSpec::cce(S.CG.Machine),
                 S.ATOpts);
    S.Sizes = AT.Sizes;
    S.Res.TilingPolicyText = printTilingPolicy(AT.Policy);
  }

  // The tiling fault hook requests minimal unit tiles; cube-pinned
  // dimensions keep their mandated sizes (the fractal pipeline depends on
  // them, and shrinking them buys no on-chip memory anyway). Reapplied on
  // every attempt: each reschedule rederives the sizes.
  if (S.InjectMinimalTiles) {
    for (unsigned I = 0; I < S.Sizes.size(); ++I)
      if (!S.isPinned(I))
        S.Sizes[I] = 1;
    if (!S.Res.Degradation.hasStage(Stage::Tiling))
      S.Res.Degradation.record(Stage::Tiling, "fault injected",
                               "minimal unit tiles on all free dimensions");
  }
}

void runBuildTree(CompileState &S) { S.Tree = buildScheduledTree(S.Poly, S.SR); }

void runFusion(CompileState &S) {
  FusionReport FR;
  if (S.PostFusion && S.Attempt == 0) {
    FR = applyPostTilingFusion(S.Tree, S.Poly, S.Sizes);
    // Clusters that could not fuse into the live-out tile (e.g. sibling
    // outputs) still need their own tiling + on-chip region, or their
    // footprints are unbounded.
    std::function<void(TreeNode *)> TileRest = [&](TreeNode *N) {
      if (N->Kind == NodeKind::Mark &&
          (N->MarkTag == "on_chip" || N->MarkTag == "skipped"))
        return;
      if (N->Kind == NodeKind::Band) {
        // Already-processed bands carry their on_chip mark beneath.
        if (findNode(N, [](TreeNode *X) {
              return X->Kind == NodeKind::Mark &&
                     (X->MarkTag == "on_chip" || X->MarkTag == "skipped");
            }))
          return;
        std::vector<int64_t> Sz(N->bandWidth(), 1);
        for (unsigned I = 0; I < Sz.size() && I < S.Sizes.size(); ++I)
          Sz[I] = S.Sizes[I];
        tileBand(N, Sz);
        std::unique_ptr<TreeNode> Owned = std::move(N->Children[0]);
        N->Children.clear();
        TreeNode *Mk = N->addChild(makeMark("on_chip"));
        Mk->addChild(std::move(Owned));
        return;
      }
      for (auto &C : N->Children)
        TileRest(C.get());
    };
    TileRest(S.Tree.root());
  } else {
    // Ablation: classical tiling without the reverse strategy. Every
    // cluster band is tiled independently and producers round-trip
    // through global memory.
    std::vector<TreeNode *> Bands;
    walkTree(S.Tree.root(), [&](TreeNode *N) {
      if (N->Kind == NodeKind::Band) {
        Bands.push_back(N);
        return false; // outer bands only
      }
      return true;
    });
    for (TreeNode *B : Bands) {
      std::vector<int64_t> Sz(B->bandWidth(), 1);
      for (unsigned I = 0; I < Sz.size() && I < S.Sizes.size(); ++I)
        Sz[I] = S.Sizes[I];
      tileBand(B, Sz);
      std::unique_ptr<TreeNode> Owned = std::move(B->Children[0]);
      B->Children.clear();
      TreeNode *Mk = B->addChild(makeMark("on_chip"));
      Mk->addChild(std::move(Owned));
    }
  }
  S.Res.FusedProducers = FR.FusedProducers;
}

// The cube path always requires its mark for fractal lowering; the
// vector-dim sink is the optional part of the intra-tile stage.
void runIntraTile(CompileState &S) {
  applyIntraTileFusion(S.Tree, S.Poly);
  if (S.SinkDims)
    sinkVectorizableDims(S.Tree, S.Poly);
  S.Res.ScheduleTreeDump = S.Tree.str();
}

void runAstGen(CompileState &S) {
  S.Ast = generateAst(S.Tree, S.Poly, S.Opts->AstGen);
}

void runLower(CompileState &S) {
  S.Kernel = S.Backend->lower(S.Ast, *S.M, S.Poly, S.CG, S.Name);
}

void runStorageCheck(CompileState &S) {
  S.CapErr = S.Backend->checkStorage(S.Kernel, S.CG);
  if (S.InjectStorage) {
    // One simulated capacity failure; subsequent retries see the real
    // checker so the halving ladder converges normally.
    S.CapErr = "fault injected: storage capacity check failed";
    S.InjectStorage = false;
  }
  if (!S.CapErr.empty()) {
    S.PassNote = S.CapErr;
    if (!S.Res.Degradation.hasStage(Stage::Storage))
      S.Res.Degradation.record(Stage::Storage, S.CapErr,
                               "halved largest free tile and retried");
  }
}

void runSync(CompileState &S) {
  S.Res.Sync = S.Backend->insertSync(S.Kernel, S.SyncS);
  S.Res.Kernel = std::move(S.Kernel);
  S.Res.TileSizes = S.Sizes;
}

// Bottom of the ladder: a single scalar instruction evaluating the whole
// module on GM. Always fits, always correct, never fast.
void runScalarFallback(CompileState &S) {
  S.Res.Degradation.record(
      Stage::Storage,
      S.TimedOut ? "compile deadline expired"
                 : "minimal tiles exceed buffer capacity on every attempt",
      "scalar fallback kernel over global memory");
  S.Res.Kernel = S.Backend->scalarFallback(*S.M, S.Name);
  S.Res.Sync =
      S.Backend->insertSync(S.Res.Kernel, cce::SyncStrategy::FullSerial);
  S.Res.TileSizes.clear();
}

Pipeline buildAkgPipeline(const TargetBackend &B) {
  Pipeline PL;
  PL.add({"prepare", Stage::None, runPrepare, nullptr,
          [](const CompileState &S) { return S.M->str(); }});
  PL.add({"extract_poly", Stage::None, runExtractPoly, nullptr, nullptr});
  PL.add({"dependences", Stage::None, runDependences, nullptr, nullptr});
  PL.add({"schedule", Stage::Scheduler, runSchedule,
          [](CompileState &S) {
            S.BaseSched.ForceFallback = true;
            S.SchedFallbackReason = "fault injected";
          },
          nullptr});
  PL.add({"tiling", Stage::Tiling, runTiling,
          [](CompileState &S) { S.InjectMinimalTiles = true; }, nullptr});
  PL.add({"build_tree", Stage::None, runBuildTree, nullptr, nullptr});
  PL.add({"fusion", Stage::Fusion, runFusion,
          [](CompileState &S) {
            S.PostFusion = false;
            S.Res.Degradation.record(Stage::Fusion, "fault injected",
                                     "post-tiling fusion disabled; producers "
                                     "round-trip global memory");
          },
          nullptr});
  PL.add({"intra_tile", Stage::IntraTile, runIntraTile,
          [](CompileState &S) {
            S.SinkDims = false;
            S.Res.Degradation.record(
                Stage::IntraTile, "fault injected",
                "kept schedule loop order (no vector-dim sink)");
          },
          [](const CompileState &S) { return S.Res.ScheduleTreeDump; }});
  PL.add({"ast_gen", Stage::None, runAstGen, nullptr, nullptr});
  PL.add({B.lowerPassName(), Stage::None, runLower, nullptr, nullptr});
  PL.add({"storage_check", Stage::Storage, runStorageCheck,
          [](CompileState &S) { S.InjectStorage = true; }, nullptr});
  // Knob passes: vectorize and double_buffer parameterize the CCE
  // lowering rather than running on their own, so they carry only the
  // fault hooks (Run = null, never traced as executed).
  PL.add({"vectorize", Stage::Vectorize, nullptr,
          [](CompileState &S) {
            S.CG.EnableVectorize = false;
            S.Res.Degradation.record(Stage::Vectorize, "fault injected",
                                     "scalar loop emission for all units");
          },
          nullptr});
  PL.add({"double_buffer", Stage::DoubleBuffer, nullptr,
          [](CompileState &S) {
            S.CG.EnableDoubleBuffer = false;
            S.Res.Degradation.record(Stage::DoubleBuffer, "fault injected",
                                     "single buffering (no ping-pong overlap)");
          },
          nullptr});
  PL.add({"sync", Stage::Sync, runSync,
          [](CompileState &S) {
            S.SyncS = cce::SyncStrategy::FullSerial;
            S.Res.Degradation.record(
                Stage::Sync, "fault injected",
                "full-serial barriers between instructions");
          },
          nullptr});
  PL.add({"scalar_fallback", Stage::None, runScalarFallback, nullptr, nullptr});
  return PL;
}

} // namespace

const Pipeline &akgPipeline(sim::TargetKind T) {
  // One shared, stateless pipeline per target; they differ only in the
  // lowering pass (name + backend dispatch).
  static const Pipeline *Cce =
      new Pipeline(buildAkgPipeline(targetBackend(sim::TargetKind::Cce)));
  static const Pipeline *Simt =
      new Pipeline(buildAkgPipeline(targetBackend(sim::TargetKind::Simt)));
  return T == sim::TargetKind::Simt ? *Simt : *Cce;
}

const Pipeline &akgPipeline() { return akgPipeline(sim::TargetKind::Cce); }

//===----------------------------------------------------------------------===//
// Controllers
//===----------------------------------------------------------------------===//

void TileRetryLadder::run(CompileState &S, const Pipeline &PL) const {
  for (S.Retry = 0;; ++S.Retry) {
    if (S.DL.expired()) {
      S.TimedOut = true;
      return;
    }
    ScopedTimer RetryTimer("akg.tile_and_lower");
    PL.runSection(S, "build_tree", "storage_check");
    if (!S.CapErr.empty() && S.Retry >= S.Opts->MaxTileRetries) {
      S.CapacityExhausted = true;
      return;
    }
    if (S.CapErr.empty()) {
      PL.runOne(S, "sync");
      return;
    }
    Stats::get().add("akg.tile_retries");
    // Halve the largest free tile and retry; the decision is a trace
    // event either way (halved, or nothing halvable left).
    std::string Ts;
    for (int64_t Sz : S.Sizes)
      Ts += std::to_string(Sz) + " ";
    trace::debugEcho("retile(" + S.Name + "): tiles [" + Ts + "] " + S.CapErr);
    int Largest = -1;
    for (unsigned I = 0; I < S.Sizes.size(); ++I)
      if (!S.isPinned(I) && (Largest < 0 || S.Sizes[I] > S.Sizes[Largest]))
        Largest = static_cast<int>(I);
    TraceEvent E;
    E.Pass = "retile";
    E.Id = Stage::Storage;
    E.Attempt = S.Attempt;
    E.Retry = S.Retry;
    if (Largest < 0 || S.Sizes[Largest] <= 1) {
      // Nothing halvable: behave as capacity-exhausted.
      E.Note = "tiles [" + Ts + "]: no halvable free dimension left";
      S.Res.Trace.Events.push_back(std::move(E));
      S.CapacityExhausted = true;
      return;
    }
    int64_t Halved = std::max<int64_t>(1, S.Sizes[Largest] / 2);
    E.Note = "tiles [" + Ts + "]: halved dim " + std::to_string(Largest) +
             " to " + std::to_string(Halved);
    S.Sizes[Largest] = Halved;
    S.Res.Trace.Events.push_back(std::move(E));
  }
}

void FusionRejectionController::run(CompileState &S, const Pipeline &PL) const {
  TileRetryLadder Ladder;
  for (unsigned Attempt = 0; Attempt < 2; ++Attempt) {
    S.Attempt = Attempt;
    S.Retry = 0;
    S.CapacityExhausted = false;
    PL.runSection(S, "schedule", "tiling");
    Ladder.run(S, PL);
    if (S.TimedOut)
      return;
    if (!S.CapacityExhausted) {
      S.Compiled = true;
      return;
    }
    if (Attempt == 0) {
      S.Res.Degradation.record(
          Stage::Fusion, "minimal tiles still exceed capacity with fusion",
          "rejected fusion; producers round-trip global memory");
      TraceEvent E;
      E.Pass = "reject_fusion";
      E.Id = Stage::Fusion;
      E.Attempt = Attempt;
      E.Retry = S.Retry;
      E.Note = "retrying with clustering disabled";
      E.Degradations.push_back(S.Res.Degradation.Steps.back());
      S.Res.Trace.Events.push_back(std::move(E));
    }
  }
}

//===----------------------------------------------------------------------===//
// The driver
//===----------------------------------------------------------------------===//

CompileResult runPassPipeline(const Module &M, const AkgOptions &Opts,
                              const std::string &Name) {
  auto T0 = std::chrono::steady_clock::now();
  CompileState S;
  S.Input = &M;
  S.Opts = &Opts;
  S.Name = Name;
  S.Fail = Opts.FailStage;
  S.Target = Opts.Target;
  S.Backend = &targetBackend(S.Target);
  S.Res.Trace.Kernel = Name;
  S.Res.Trace.Target = sim::targetName(S.Target);

  // Budgets + per-stage fault injection resolve into concrete knobs once,
  // up front; each injected failure is itself a rung of the ladder and is
  // recorded immediately.
  S.BaseSched = Opts.Scheduler;
  if (S.BaseSched.IlpNodeBudget == 0)
    S.BaseSched.IlpNodeBudget = Opts.Budget.IlpNodeBudget;
  if (S.BaseSched.DeadlineSeconds == 0)
    S.BaseSched.DeadlineSeconds = Opts.Budget.DeadlineSeconds;
  S.CG = Opts.Codegen;
  S.SyncS = Opts.Sync;
  S.PostFusion = Opts.EnablePostTilingFusion;
  S.SinkDims = Opts.EnableIntraTile;

  const Pipeline &PL = akgPipeline(S.Target);

  // Hard request deadline + cooperative cancellation (DESIGN.md 4h).
  // Unlike the soft Budget.DeadlineSeconds (stages degrade and continue),
  // tripping either constraint unwinds the compile via CancelledError.
  // The scope chains to any context already active on this thread (a
  // service worker's request context), so the tightest constraint wins.
  cancel::Context Ctx;
  Ctx.DL = Deadline(Opts.RequestDeadlineMs / 1000.0);
  Ctx.Token = Opts.Cancel.get();
  cancel::Scope RequestScope(&Ctx);

  try {
    PL.applyFaultInjection(S);

    PL.runSection(S, "prepare", "dependences");
    // The compile deadline covers scheduling and lowering; the frontend
    // section is not on the clock (matching the pre-pipeline driver, which
    // armed the deadline after dependence analysis).
    S.DL = Deadline(Opts.Budget.DeadlineSeconds);

    FusionRejectionController().run(S, PL);
    if (!S.Compiled)
      PL.runOne(S, "scalar_fallback");
  } catch (const CancelledError &E) {
    // Terminal event: the one trace entry for an unwound compile, naming
    // the pass (or loop's pass) the request stopped in. The result still
    // carries a valid scalar fallback kernel so downstream consumers
    // holding a CompileResult never dereference an empty kernel, but the
    // non-ok Outcome keeps it out of the kernel cache.
    S.Res.Outcome = Status::error(
        E.code(), std::string(E.what()) + " in pass '" + E.where() + "'");
    S.Res.Trace.Outcome = errCodeName(E.code());
    S.Res.Degradation.record(Stage::None, E.what(),
                             "compile unwound; scalar fallback kernel");
    TraceEvent T;
    T.Pass = errCodeName(E.code()); // "deadline_exceeded" / "cancelled"
    T.Attempt = S.Attempt;
    T.Retry = S.Retry;
    T.Note = "stopped in pass '" + E.where() + "'";
    T.Degradations.push_back(S.Res.Degradation.Steps.back());
    S.Res.Trace.Events.push_back(std::move(T));
    const Module *FM = S.M ? S.M : S.Input;
    S.Res.Kernel = S.Backend->scalarFallback(*FM, S.Name);
    S.Res.Sync =
        S.Backend->insertSync(S.Res.Kernel, cce::SyncStrategy::FullSerial);
    S.Res.TileSizes.clear();
  }

  if (Opts.EnableInlining)
    S.Res.Mod = S.PreparedMod;
  S.Res.Trace.TotalSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return std::move(S.Res);
}

} // namespace akg
