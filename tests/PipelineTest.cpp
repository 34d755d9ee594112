//===- tests/PipelineTest.cpp - Pass pipeline + compile traces ------------===//
//
// The pass-pipeline contract: every executed pass leaves exactly one
// TraceEvent in CompileResult::Trace (in pipeline order), controller
// decisions (retile, fusion rejection, fault injection) appear as
// synthetic events, the JSON rendering matches the documented schema,
// AKG_TRACE dumps land on disk, cache-served results are marked, and
// AKG_FAIL_STAGE / AKG_DEADLINE_MS parse into the options a tool passes.
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "akg/Pipeline.h"
#include "graph/Ops.h"
#include "ir/PolyExtract.h"
#include "schedule/AstGen.h"
#include "scheduler/Dependence.h"
#include "scheduler/Pluto.h"
#include "support/Cancel.h"
#include "support/Stats.h"
#include "target/CceIr.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <thread>

using namespace akg;
using namespace akg::ir;

namespace {

const sim::MachineSpec &machine() { return sim::MachineSpec::ascend910(); }

/// Executed passes of a clean single-attempt compile, in pipeline order.
const char *const CleanPasses[] = {
    "prepare",  "extract_poly", "dependences", "schedule",
    "tiling",   "build_tree",   "fusion",      "intra_tile",
    "ast_gen",  "lower_cce",    "storage_check", "sync",
};

std::vector<std::string> passNames(const CompileTrace &T) {
  std::vector<std::string> N;
  for (const TraceEvent &E : T.Events)
    N.push_back(E.Pass);
  return N;
}

AkgOptions wideRowManualTiles() {
  transforms::TilingPolicy TP;
  transforms::StmtTileSpec Spec;
  Spec.Entries.push_back(transforms::TileSpecEntry{64, "UB"});
  Spec.Entries.push_back(transforms::TileSpecEntry{8192, "UB"});
  TP.PerStmt[0] = Spec;
  AkgOptions O;
  O.ManualTiles = TP;
  return O;
}

TEST(Pipeline, CleanCompileTracesEveryPassInOrder) {
  auto M = graph::makeMatmul(64, 64, 64);
  CompileResult R = compileWithAkg(*M, AkgOptions(), "clean");
  ASSERT_TRUE(R.Degradation.Steps.empty()) << R.Degradation.str();
  std::vector<std::string> Names = passNames(R.Trace);
  std::vector<std::string> Want(std::begin(CleanPasses),
                                std::end(CleanPasses));
  EXPECT_EQ(Names, Want) << R.Trace.str();
  EXPECT_EQ(R.Trace.Kernel, "clean");
  EXPECT_FALSE(R.Trace.CacheHit);
  EXPECT_GT(R.Trace.TotalSeconds, 0);
  for (const TraceEvent &E : R.Trace.Events) {
    EXPECT_EQ(E.Attempt, 0u);
    EXPECT_EQ(E.Retry, 0u);
    EXPECT_TRUE(E.Degradations.empty()) << E.Pass;
    EXPECT_GE(E.WallSeconds, 0);
  }
}

TEST(Pipeline, PassEventsCarryCounterDeltas) {
  auto M = graph::makeMatmul(64, 64, 64);
  CompileResult R = compileWithAkg(*M, AkgOptions(), "counters");
  // The tiling/fusion/ast_gen/lower_cce/sync stages bump unconditional
  // counters; each delta must land on its own pass's event.
  auto hasCounter = [&](const char *Pass, const char *Key) {
    const TraceEvent *E = R.Trace.find(Pass);
    if (!E)
      return false;
    for (const auto &[K, V] : E->Counters)
      if (K == Key && V > 0)
        return true;
    return false;
  };
  EXPECT_TRUE(hasCounter("tiling", "autotile.runs")) << R.Trace.str();
  EXPECT_TRUE(hasCounter("fusion", "fusion.runs")) << R.Trace.str();
  EXPECT_TRUE(hasCounter("ast_gen", "astgen.runs")) << R.Trace.str();
  EXPECT_TRUE(hasCounter("lower_cce", "cce.lowered_kernels"))
      << R.Trace.str();
  EXPECT_TRUE(hasCounter("sync", "sync.flags")) << R.Trace.str();
}

TEST(Pipeline, InjectedStorageFailureTracesTheLadder) {
  auto M = graph::makeMatmul(64, 64, 64);
  AkgOptions O;
  O.FailStage = Stage::Storage;
  CompileResult R = compileWithAkg(*M, O, "degraded");
  // The fault-injection setup event leads the trace.
  ASSERT_FALSE(R.Trace.Events.empty());
  EXPECT_EQ(R.Trace.Events.front().Pass, "fault_injection");
  EXPECT_EQ(R.Trace.Events.front().Id, Stage::Storage);
  // The injected failure shows up on the storage_check event (with the
  // degradation step attached) and forces at least one retile + a second
  // walk of the tile-and-lower section.
  const TraceEvent *SC = R.Trace.find("storage_check");
  ASSERT_NE(SC, nullptr);
  ASSERT_EQ(SC->Degradations.size(), 1u);
  EXPECT_EQ(SC->Degradations[0].Where, Stage::Storage);
  EXPECT_NE(R.Trace.find("retile"), nullptr) << R.Trace.str();
  bool SawRetry1 = false;
  for (const TraceEvent &E : R.Trace.Events)
    SawRetry1 |= E.Retry == 1;
  EXPECT_TRUE(SawRetry1) << R.Trace.str();
  EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 1e-5);
}

TEST(Pipeline, KnobStagesEmitNoExecutionEvents) {
  // vectorize/double_buffer parameterize the CCE lowering; even when
  // their fault hooks fire they must not appear as executed passes.
  auto M = graph::makeMatmul(64, 64, 64);
  AkgOptions O;
  O.FailStage = Stage::Vectorize;
  CompileResult R = compileWithAkg(*M, O, "knob");
  for (const TraceEvent &E : R.Trace.Events) {
    EXPECT_NE(E.Pass, "vectorize");
    EXPECT_NE(E.Pass, "double_buffer");
  }
  // The knob flip is still visible: on the fault_injection event.
  ASSERT_FALSE(R.Trace.Events.empty());
  EXPECT_EQ(R.Trace.Events.front().Pass, "fault_injection");
  ASSERT_EQ(R.Trace.Events.front().Degradations.size(), 1u);
  EXPECT_EQ(R.Trace.Events.front().Degradations[0].Where, Stage::Vectorize);
}

TEST(Pipeline, RetryLadderEmitsOneRetileEventPerHalving) {
  auto M = graph::makeTensorAdd({64, 8192});
  CompileResult R = compileWithAkg(*M, wideRowManualTiles(), "halving");
  ASSERT_TRUE(R.Degradation.hasStage(Stage::Storage)) << R.Degradation.str();
  unsigned Retiles = 0, MaxRetry = 0;
  for (const TraceEvent &E : R.Trace.Events) {
    if (E.Pass == "retile") {
      ++Retiles;
      EXPECT_NE(E.Note.find("halved dim"), std::string::npos) << E.Note;
    }
    MaxRetry = std::max(MaxRetry, E.Retry);
  }
  // Retry numbering matches the halvings: N retiles -> retries 0..N.
  EXPECT_GE(Retiles, 1u) << R.Trace.str();
  EXPECT_EQ(MaxRetry, Retiles) << R.Trace.str();
  // The ladder converged: the final section reached sync.
  EXPECT_NE(R.Trace.find("sync"), nullptr);
  EXPECT_EQ(R.Trace.find("scalar_fallback"), nullptr);
}

TEST(Pipeline, ScalarFallbackAndFusionRejectionAreTraced) {
  auto M = graph::makeTensorAdd({64, 8192});
  AkgOptions O = wideRowManualTiles();
  O.MaxTileRetries = 0; // no halving: both attempts exhaust immediately
  CompileResult R = compileWithAkg(*M, O, "no_retries");
  EXPECT_TRUE(R.TileSizes.empty());
  // Attempt 0 exhausts -> reject_fusion -> attempt 1 exhausts -> fallback.
  const TraceEvent *RF = R.Trace.find("reject_fusion");
  ASSERT_NE(RF, nullptr) << R.Trace.str();
  EXPECT_EQ(RF->Id, Stage::Fusion);
  ASSERT_EQ(RF->Degradations.size(), 1u);
  EXPECT_EQ(RF->Degradations[0].Where, Stage::Fusion);
  bool SawAttempt1 = false;
  for (const TraceEvent &E : R.Trace.Events)
    SawAttempt1 |= E.Attempt == 1;
  EXPECT_TRUE(SawAttempt1) << R.Trace.str();
  const TraceEvent *SF = R.Trace.find("scalar_fallback");
  ASSERT_NE(SF, nullptr) << R.Trace.str();
  ASSERT_FALSE(SF->Degradations.empty());
  EXPECT_EQ(SF->Degradations[0].Where, Stage::Storage);
}

TEST(Pipeline, JsonRenderingMatchesSchema) {
  auto M = graph::makeMatmul(64, 64, 64);
  CompileResult R = compileWithAkg(*M, AkgOptions(), "json_kernel");
  std::string J = R.Trace.json();
  EXPECT_NE(J.find("{\"kernel\": \"json_kernel\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"total_seconds\": "), std::string::npos);
  EXPECT_NE(J.find("\"cache_hit\": false"), std::string::npos);
  EXPECT_NE(J.find("\"events\": [{"), std::string::npos);
  for (const char *P : CleanPasses)
    EXPECT_NE(J.find(std::string("\"pass\": \"") + P + "\""),
              std::string::npos)
        << P;
  EXPECT_NE(J.find("\"stage\": \"scheduler\""), std::string::npos);
  EXPECT_NE(J.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(J.find("\"degradations\": []"), std::string::npos);
  EXPECT_EQ(J.find('\n'), std::string::npos); // one line per compile
}

TEST(Pipeline, JsonEscapesSpecialCharacters) {
  CompileTrace T;
  T.Kernel = "quote\"back\\slash\nnewline";
  TraceEvent E;
  E.Pass = "p";
  E.Note = "tab\there";
  T.Events.push_back(E);
  std::string J = T.json();
  EXPECT_NE(J.find("quote\\\"back\\\\slash\\u000anewline"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("tab\\u0009here"), std::string::npos) << J;
}

TEST(Pipeline, AkgTraceDumpsJsonlToFile) {
  std::string Path = testing::TempDir() + "akg_trace_test.jsonl";
  std::remove(Path.c_str());
  // What a tool's main installs for AKG_TRACE=<path>.
  Environment Env = readEnvironment(mapLookup({{"AKG_TRACE", Path}}));
  EXPECT_EQ(Env.Diag.TracePath, Path);
  Env.installDiagnostics();
  auto M = graph::makeMatmul(64, 64, 64);
  compileWithAkg(*M, AkgOptions(), "dump_a");
  compileWithAkg(*M, AkgOptions(), "dump_b");
  trace::setDestination("");

  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::string L1, L2, Extra;
  ASSERT_TRUE(std::getline(In, L1));
  ASSERT_TRUE(std::getline(In, L2));
  EXPECT_FALSE(std::getline(In, Extra)); // exactly one line per compile
  EXPECT_NE(L1.find("\"kernel\": \"dump_a\""), std::string::npos);
  EXPECT_NE(L2.find("\"kernel\": \"dump_b\""), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Pipeline, CacheHitPrependsSyntheticEvent) {
  KernelCache Cache;
  auto M = graph::makeMatmul(64, 64, 64);
  CompileResult Miss = Cache.compileOrGet(*M, AkgOptions(), "first");
  EXPECT_FALSE(Miss.Trace.CacheHit);
  EXPECT_EQ(Miss.Trace.find("cache_hit"), nullptr);

  CompileResult Hit = Cache.compileOrGet(*M, AkgOptions(), "second");
  EXPECT_TRUE(Hit.Trace.CacheHit);
  EXPECT_EQ(Hit.Trace.Kernel, "second");
  ASSERT_FALSE(Hit.Trace.Events.empty());
  EXPECT_EQ(Hit.Trace.Events.front().Pass, "cache_hit");
  // The original compile's events ride along after the marker.
  EXPECT_NE(Hit.Trace.find("schedule"), nullptr);
}

TEST(Pipeline, PassSecondsSumsAcrossRetries) {
  auto M = graph::makeTensorAdd({64, 8192});
  CompileResult R = compileWithAkg(*M, wideRowManualTiles(), "sum");
  unsigned Lowerings = 0;
  for (const TraceEvent &E : R.Trace.Events)
    if (E.Pass == "lower_cce")
      ++Lowerings;
  ASSERT_GE(Lowerings, 2u); // at least one retry happened
  double Sum = 0;
  for (const TraceEvent &E : R.Trace.Events)
    if (E.Pass == "lower_cce")
      Sum += E.WallSeconds;
  EXPECT_DOUBLE_EQ(R.Trace.passSeconds("lower_cce"), Sum);
}

TEST(Pipeline, StatsSnapshotDiffReportsOnlyMovedCounters) {
  auto Before = Stats::get().snapshotCounters();
  Stats::get().add("pipeline_test.counter_a", 3);
  Stats::get().add("pipeline_test.counter_b", 0); // touched but unmoved
  auto After = Stats::get().snapshotCounters();
  auto Delta = Stats::diffCounters(Before, After);
  bool SawA = false;
  for (const auto &[K, V] : Delta) {
    EXPECT_NE(K, "pipeline_test.counter_b");
    if (K == "pipeline_test.counter_a") {
      SawA = true;
      EXPECT_EQ(V, 3);
    }
  }
  EXPECT_TRUE(SawA);
  // Identical snapshots diff to nothing.
  EXPECT_TRUE(Stats::diffCounters(After, After).empty());
}

// --- Where the fault-injection stage comes from (AKG_FAIL_STAGE) ---------

TEST(Pipeline, ResolveFailStageUsesOptionWhenEnvUnset) {
  // Unset: the built-in default; an explicit option is used as given.
  AkgOptions O = readEnvironment(mapLookup({})).Compile;
  EXPECT_EQ(O.FailStage, Stage::None);
  O.FailStage = Stage::Tiling;
  auto M = graph::makeMatmul(64, 64, 64);
  CompileResult R = compileWithAkg(*M, O, "option_stage");
  EXPECT_TRUE(R.Degradation.hasStage(Stage::Tiling)) << R.Degradation.str();
}

TEST(Pipeline, ResolveFailStageEnvOverridesOption) {
  // AKG_FAIL_STAGE replaces the built-in stage in the options a tool starts
  // from, and the compile fails that stage. A flag set on top of those
  // options wins over the environment
  // (Environment.ExplicitOptionsOverrideTheEnvironment).
  auto StageOf = [](const char *V) {
    return readEnvironment(mapLookup({{"AKG_FAIL_STAGE", V}}))
        .Compile.FailStage;
  };
  EXPECT_EQ(StageOf("double-buffer"), Stage::DoubleBuffer); // dash form
  EXPECT_EQ(StageOf("storage"), Stage::Storage);
  AkgOptions O =
      readEnvironment(mapLookup({{"AKG_FAIL_STAGE", "tiling"}})).Compile;
  auto M = graph::makeMatmul(64, 64, 64);
  CompileResult R = compileWithAkg(*M, O, "env_stage");
  EXPECT_TRUE(R.Degradation.hasStage(Stage::Tiling)) << R.Degradation.str();
}

// --- Deadlines + cooperative cancellation (DESIGN.md 4h) -----------------

/// An already-expired cancel::Context for driving checkpoints directly.
cancel::Context expiredContext() {
  cancel::Context Ctx;
  Ctx.DL = Deadline(1e-9);
  return Ctx;
}

TEST(PipelineCancel, PreCancelledTokenUnwindsNamingThePass) {
  auto M = graph::makeMatmul(64, 64, 64);
  AkgOptions O;
  O.Cancel = std::make_shared<CancelToken>();
  O.Cancel->requestCancel();
  CompileResult R = compileWithAkg(*M, O, "pre_cancelled");
  EXPECT_EQ(R.Outcome.code(), ErrCode::Cancelled);
  EXPECT_EQ(R.Trace.Outcome, "cancelled");
  // The terminal event names the pass the compile stopped in - with the
  // token flipped before submission, that is the very first pass.
  ASSERT_FALSE(R.Trace.Events.empty());
  const TraceEvent &Last = R.Trace.Events.back();
  EXPECT_EQ(Last.Pass, "cancelled");
  EXPECT_NE(Last.Note.find("stopped in pass 'prepare'"), std::string::npos)
      << Last.Note;
  ASSERT_EQ(Last.Degradations.size(), 1u);
  // The caller still holds a valid (scalar fallback) kernel.
  EXPECT_FALSE(cce::printKernel(R.Kernel).empty());
  EXPECT_TRUE(R.TileSizes.empty());
  // And the JSON rendering carries the outcome field.
  EXPECT_NE(R.Trace.json().find("\"outcome\": \"cancelled\""),
            std::string::npos);
}

TEST(PipelineCancel, HardDeadlineReturnsDeadlineExceeded) {
  auto M = graph::makeMatmul(96, 96, 96);
  AkgOptions O;
  O.RequestDeadlineMs = 1e-3; // expires before the first pass boundary
  CompileResult R = compileWithAkg(*M, O, "hard_deadline");
  EXPECT_EQ(R.Outcome.code(), ErrCode::DeadlineExceeded);
  EXPECT_EQ(R.Trace.Outcome, "deadline_exceeded");
  ASSERT_FALSE(R.Trace.Events.empty());
  EXPECT_EQ(R.Trace.Events.back().Pass, "deadline_exceeded");
  EXPECT_NE(R.Trace.Events.back().Note.find("stopped in pass"),
            std::string::npos);
  EXPECT_FALSE(cce::printKernel(R.Kernel).empty());
}

TEST(PipelineCancel, EnvDeadlineAppliesWhenOptionUnset) {
  // AKG_DEADLINE_MS (integer grammar) becomes the request deadline of the
  // options a tool reads at start; HardDeadlineReturnsDeadlineExceeded
  // covers enforcement. Unset or malformed means no deadline.
  EXPECT_EQ(readEnvironment(mapLookup({{"AKG_DEADLINE_MS", "1"}}))
                .Compile.RequestDeadlineMs,
            1);
  EXPECT_EQ(readEnvironment(mapLookup({})).Compile.RequestDeadlineMs, 0);
  EXPECT_EQ(readEnvironment(mapLookup({{"AKG_DEADLINE_MS", "1.5"}}))
                .Compile.RequestDeadlineMs,
            0);
}

TEST(PipelineCancel, UnwoundCompileLeavesNoCorruptionBehind) {
  // A deadline-unwound compile must not poison the thread-local cancel
  // state, the Stats singleton, or the next compile's trace.
  auto M = graph::makeMatmul(64, 64, 64);
  AkgOptions O;
  O.RequestDeadlineMs = 1e-3;
  for (int I = 0; I < 3; ++I) {
    CompileResult R = compileWithAkg(*M, O, "unwound");
    EXPECT_EQ(R.Outcome.code(), ErrCode::DeadlineExceeded);
  }
  EXPECT_EQ(cancel::current(), nullptr); // scope fully unwound
  CompileResult Clean = compileWithAkg(*M, AkgOptions(), "clean_after");
  EXPECT_TRUE(Clean.Outcome.isOk());
  EXPECT_TRUE(Clean.Degradation.Steps.empty()) << Clean.Degradation.str();
  std::vector<std::string> Names = passNames(Clean.Trace);
  std::vector<std::string> Want(std::begin(CleanPasses),
                                std::end(CleanPasses));
  EXPECT_EQ(Names, Want) << Clean.Trace.str();
}

// The three long-running loops each observe checkpoints directly, so an
// expired deadline unwinds from inside the loop, not just at the next
// pass boundary.

TEST(PipelineCancel, DependenceLoopObservesCheckpoints) {
  auto M = graph::makeMatmul(64, 64, 64);
  ir::PolyProgram P = ir::extractPolyProgram(*M);
  cancel::Context Ctx = expiredContext();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cancel::Scope S(&Ctx);
  EXPECT_THROW(sched::computeDependences(P), CancelledError);
  // The parallel fan-out propagates the context onto pool workers too.
  EXPECT_THROW(sched::computeDependences(P, 4), CancelledError);
}

TEST(PipelineCancel, PlutoMasterLoopObservesCheckpoints) {
  auto M = graph::makeMatmul(64, 64, 64);
  ir::PolyProgram P = ir::extractPolyProgram(*M);
  std::vector<sched::Dependence> Deps = sched::computeDependences(P);
  cancel::Context Ctx = expiredContext();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cancel::Scope S(&Ctx);
  EXPECT_THROW(sched::computeSchedule(P, Deps, sched::SchedulerOptions()),
               CancelledError);
}

TEST(PipelineCancel, AstGenLoopObservesCheckpoints) {
  auto M = graph::makeMatmul(64, 64, 64);
  ir::PolyProgram P = ir::extractPolyProgram(*M);
  std::vector<sched::Dependence> Deps = sched::computeDependences(P);
  sched::ScheduleResult SR =
      sched::computeSchedule(P, Deps, sched::SchedulerOptions());
  sched::ScheduleTree T = sched::buildScheduledTree(P, SR);
  cancel::Context Ctx = expiredContext();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cancel::Scope S(&Ctx);
  EXPECT_THROW(sched::generateAst(T, P), CancelledError);
}

TEST(PipelineCancel, DeadlineIsExcludedFromTheCacheKey) {
  // Two requests differing only in deadline/token must share a cache
  // line: a non-ok outcome is never inserted, so the fingerprint stays
  // honest without mixing per-request constraints into it.
  AkgOptions A;
  AkgOptions B;
  B.RequestDeadlineMs = 5000;
  B.Cancel = std::make_shared<CancelToken>();
  EXPECT_EQ(fingerprintOptions(A), fingerprintOptions(B));
}

TEST(PipelineCancel, FailedOutcomesAreNeverCached) {
  KernelCache Cache;
  auto M = graph::makeMatmul(64, 64, 64);
  AkgOptions O;
  O.RequestDeadlineMs = 1e-3;
  CompileResult R = Cache.compileOrGet(*M, O, "dl");
  EXPECT_EQ(R.Outcome.code(), ErrCode::DeadlineExceeded);
  EXPECT_EQ(Cache.size(), 0u); // the unwound result was not inserted
  // The same module without the deadline compiles and caches cleanly.
  CompileResult Ok = Cache.compileOrGet(*M, AkgOptions(), "ok");
  EXPECT_TRUE(Ok.Outcome.isOk());
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(Pipeline, ResolveFailStageUnparseableEnvFallsBackToOption) {
  // An AKG_FAIL_STAGE that names no stage leaves the default in place;
  // the dash form of a stage name parses.
  for (const char *Bad : {"not-a-stage", ""})
    EXPECT_EQ(readEnvironment(mapLookup({{"AKG_FAIL_STAGE", Bad}}))
                  .Compile.FailStage,
              Stage::None)
        << Bad;
  EXPECT_EQ(readEnvironment(mapLookup({{"AKG_FAIL_STAGE", "double-buffer"}}))
                .Compile.FailStage,
            Stage::DoubleBuffer);
}

} // namespace
