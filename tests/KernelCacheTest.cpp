//===- tests/KernelCacheTest.cpp - Content-addressed cache keys -----------===//
//
// The cache-key canonicalization contract: alpha-renamed but structurally
// identical modules fingerprint equal; any structural difference, any
// AkgOptions field, any machine-spec parameter, and the resolved
// AKG_FAIL_STAGE override all land on distinct fingerprints; and a cache
// hit returns a bit-identical CompileResult under the requested name.
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "graph/Ops.h"
#include "support/Cancel.h"
#include "target/CceIr.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <set>
#include <string>
#include <thread>

using namespace akg;
using namespace akg::ir;

namespace {

/// A reduction over a two-op chain, with every name drawn from \p Tag:
/// structurally constant, nominally parameterized.
std::shared_ptr<Module> makeNamedChain(const std::string &Tag,
                                       int64_t Rows = 8, int64_t Cols = 32,
                                       bool MulChain = false) {
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder(Tag + "_a", {Rows, Cols}, DType::F32);
  Tensor B = M->placeholder(Tag + "_b", {Rows, Cols}, DType::F32);
  Tensor T = M->compute(
      Tag + "_t", {Rows, Cols},
      [&](const std::vector<Expr> &I) {
        Expr L = tensorRead(A, I), R = tensorRead(B, I);
        return MulChain ? mul(L, R) : add(L, R);
      },
      DType::F32);
  IterVar K = M->reduceAxis(Cols, Tag + "_k");
  M->compute(
      Tag + "_out", {Rows},
      [&](const std::vector<Expr> &I) {
        return reduce(ReduceKind::Sum,
                      tensorRead(T, {I[0], var(Tag + "_k")}), {K});
      },
      DType::F32);
  return M;
}

TEST(CacheKey, AlphaRenamedModulesHashEqual) {
  auto M1 = makeNamedChain("alpha");
  auto M2 = makeNamedChain("completely_different_names");
  EXPECT_EQ(fingerprintModule(*M1), fingerprintModule(*M2));
  // But the binding fingerprint (tensor names the emitted kernel will
  // address) differs, so they occupy distinct cache lines.
  EXPECT_NE(bindingFingerprint(*M1), bindingFingerprint(*M2));
  AkgOptions O;
  EXPECT_FALSE(makeCacheKey(*M1, O) == makeCacheKey(*M2, O));
  // Same names, same structure: full key equality.
  auto M3 = makeNamedChain("alpha");
  EXPECT_TRUE(makeCacheKey(*M1, O) == makeCacheKey(*M3, O));
}

TEST(CacheKey, StructuralDifferencesHashDistinct) {
  std::set<uint64_t> Fps;
  Fps.insert(fingerprintModule(*makeNamedChain("x")));
  Fps.insert(fingerprintModule(*makeNamedChain("x", 16, 32))); // extent
  Fps.insert(fingerprintModule(*makeNamedChain("x", 8, 64)));  // extent
  Fps.insert(fingerprintModule(*makeNamedChain("x", 8, 32, true))); // op
  Fps.insert(fingerprintModule(*graph::makeMatmul(32, 32, 32)));
  Fps.insert(fingerprintModule(*graph::makeMatmul(32, 32, 64)));
  Fps.insert(fingerprintModule(*graph::makeRelu({8, 32})));
  Fps.insert(fingerprintModule(*graph::makeTensorAdd({8, 32})));
  EXPECT_EQ(Fps.size(), 8u);
  // Dtype is structural too.
  auto F16 = std::make_shared<Module>();
  auto F32 = std::make_shared<Module>();
  for (auto &[M, D] : {std::pair<Module *, DType>{F16.get(), DType::F16},
                       {F32.get(), DType::F32}}) {
    Tensor A = M->placeholder("a", {8, 8}, D);
    M->compute(
        "o", {8, 8},
        [&](const std::vector<Expr> &I) { return tensorRead(A, I); }, D);
  }
  EXPECT_NE(fingerprintModule(*F16), fingerprintModule(*F32));
}

TEST(CacheKey, EveryOptionFieldChangesFingerprint) {
  std::set<uint64_t> Fps;
  auto Probe = [&](const AkgOptions &O) {
    uint64_t F = fingerprintOptions(O);
    EXPECT_TRUE(Fps.insert(F).second)
        << "fingerprint collision between option variants";
  };
  AkgOptions Base;
  Probe(Base);

  AkgOptions O = Base;
  O.Scheduler.Fusion = sched::FusionStrategy::Aggressive;
  Probe(O);
  O = Base;
  O.Scheduler.Fusion = sched::FusionStrategy::None;
  Probe(O);
  O = Base;
  O.Scheduler.AllowSkew = !Base.Scheduler.AllowSkew;
  Probe(O);
  O = Base;
  O.Scheduler.AllowShift = !Base.Scheduler.AllowShift;
  Probe(O);
  O = Base;
  O.Scheduler.CoeffBound += 1;
  Probe(O);
  O = Base;
  O.Scheduler.ShiftBound += 1;
  Probe(O);
  O = Base;
  O.Scheduler.UseBoundingFunction = !Base.Scheduler.UseBoundingFunction;
  Probe(O);
  O = Base;
  O.Scheduler.IlpNodeBudget = 777;
  Probe(O);
  O = Base;
  O.Scheduler.DeadlineSeconds = 1.5;
  Probe(O);
  O = Base;
  O.Scheduler.ForceFallback = !Base.Scheduler.ForceFallback;
  Probe(O);

  O = Base;
  O.Codegen.EnableVectorize = !Base.Codegen.EnableVectorize;
  Probe(O);
  O = Base;
  O.Codegen.EnableDoubleBuffer = !Base.Codegen.EnableDoubleBuffer;
  Probe(O);

  O = Base;
  O.Sync = cce::SyncStrategy::TvmEmpirical;
  Probe(O);
  O = Base;
  O.Sync = cce::SyncStrategy::FullSerial;
  Probe(O);

  O = Base;
  transforms::TilingPolicy TP;
  transforms::StmtTileSpec Spec;
  Spec.Entries.push_back(transforms::TileSpecEntry{8, "UB"});
  TP.PerStmt[0] = Spec;
  O.ManualTiles = TP;
  Probe(O);
  // A different tile size under the same policy shape is a different key.
  O.ManualTiles->PerStmt[0].Entries[0].Size = 16;
  Probe(O);
  // So is the same size in a different buffer.
  O.ManualTiles->PerStmt[0].Entries[0].Size = 8;
  O.ManualTiles->PerStmt[0].Entries[0].BufferName = "L1";
  Probe(O);

  O = Base;
  O.EnablePostTilingFusion = !Base.EnablePostTilingFusion;
  Probe(O);
  O = Base;
  O.EnableIntraTile = !Base.EnableIntraTile;
  Probe(O);
  O = Base;
  O.EnableInlining = !Base.EnableInlining;
  Probe(O);
  O = Base;
  O.MaxTileRetries += 1;
  Probe(O);
  O = Base;
  O.Budget.DeadlineSeconds = 2.0;
  Probe(O);
  O = Base;
  O.Budget.IlpNodeBudget = 555;
  Probe(O);
  O = Base;
  O.FailStage = Stage::Vectorize;
  Probe(O);
  O = Base;
  O.FailStage = Stage::Sync;
  Probe(O);
}

TEST(CacheKey, EveryMachineFieldChangesFingerprint) {
  sim::MachineSpec Base = sim::MachineSpec::ascend910();
  std::set<uint64_t> Fps;
  Fps.insert(fingerprintMachine(Base));
  int64_t sim::MachineSpec::*Fields[] = {
      &sim::MachineSpec::L1Bytes,        &sim::MachineSpec::UBBytes,
      &sim::MachineSpec::L0ABytes,       &sim::MachineSpec::L0BBytes,
      &sim::MachineSpec::L0CBytes,       &sim::MachineSpec::GmBandwidth,
      &sim::MachineSpec::GmLatency,      &sim::MachineSpec::OnChipBandwidth,
      &sim::MachineSpec::OnChipLatency,  &sim::MachineSpec::BurstLatency,
      &sim::MachineSpec::CubeM,          &sim::MachineSpec::CubeN,
      &sim::MachineSpec::CubeK,          &sim::MachineSpec::CubeStartup,
      &sim::MachineSpec::VectorLanes,    &sim::MachineSpec::VectorIssue,
      &sim::MachineSpec::ScalarCost,     &sim::MachineSpec::SyncCost};
  for (auto Field : Fields) {
    sim::MachineSpec S = Base;
    S.*Field += 1;
    EXPECT_TRUE(Fps.insert(fingerprintMachine(S)).second)
        << "machine fingerprint collision";
  }
  // The machine model flows into the options fingerprint.
  AkgOptions O1, O2;
  O2.Codegen.Machine.UBBytes /= 2;
  EXPECT_NE(fingerprintOptions(O1), fingerprintOptions(O2));
}

TEST(CacheKey, EnvFailStageOverrideChangesFingerprint) {
  // AKG_FAIL_STAGE replaces the default stage in the options a tool reads
  // at start, and fingerprints like the equivalent explicit option.
  AkgOptions Clean;
  AkgOptions Injected =
      readEnvironment(mapLookup({{"AKG_FAIL_STAGE", "vectorize"}})).Compile;
  EXPECT_NE(fingerprintOptions(Clean), fingerprintOptions(Injected));
  AkgOptions Explicit;
  Explicit.FailStage = Stage::Vectorize;
  EXPECT_EQ(fingerprintOptions(Injected), fingerprintOptions(Explicit));
}

TEST(CacheKey, CoversEveryAkgOptionsField) {
  // One mutation per AkgOptions field: a field that can change the kernel
  // must change fingerprintOptions, and the ones that cannot
  // (RequestDeadlineMs, Cancel, AstGen.UseMemo) must not. Each
  // structured binding stops compiling when its struct gains a field,
  // until the field joins the sweep below.
  AkgOptions Base;
  [[maybe_unused]] auto &[Target, Scheduler, Codegen, Sync, ManualTiles,
                          PostTilingFusion, IntraTile, Inlining,
                          MaxTileRetries, Budget, AstGen, FailStage,
                          RequestDeadlineMs, Cancel] = Base;
  [[maybe_unused]] auto &[Fusion, AllowSkew, AllowShift, CoeffBound,
                          ShiftBound, UseBoundingFunction, IlpNodeBudget,
                          DeadlineSeconds, ForceFallback] = Base.Scheduler;
  [[maybe_unused]] auto &[Machine, Simt, EnableVectorize,
                          EnableDoubleBuffer] = Base.Codegen;
  [[maybe_unused]] auto &[BudgetDeadline, BudgetNodes] = Base.Budget;
  [[maybe_unused]] auto &[UseMemo] = Base.AstGen;

  struct Probe {
    const char *Field;
    std::function<void(AkgOptions &)> Mutate;
    bool KeyChanges;
  };
  const Probe Probes[] = {
      {"Target", [](AkgOptions &O) { O.Target = sim::TargetKind::Simt; },
       true},
      {"Scheduler.Fusion",
       [](AkgOptions &O) {
         O.Scheduler.Fusion = sched::FusionStrategy::Aggressive;
       },
       true},
      {"Scheduler.AllowSkew",
       [](AkgOptions &O) { O.Scheduler.AllowSkew = !O.Scheduler.AllowSkew; },
       true},
      {"Scheduler.AllowShift",
       [](AkgOptions &O) {
         O.Scheduler.AllowShift = !O.Scheduler.AllowShift;
       },
       true},
      {"Scheduler.CoeffBound", [](AkgOptions &O) { ++O.Scheduler.CoeffBound; },
       true},
      {"Scheduler.ShiftBound", [](AkgOptions &O) { ++O.Scheduler.ShiftBound; },
       true},
      {"Scheduler.UseBoundingFunction",
       [](AkgOptions &O) {
         O.Scheduler.UseBoundingFunction = !O.Scheduler.UseBoundingFunction;
       },
       true},
      {"Scheduler.IlpNodeBudget",
       [](AkgOptions &O) { O.Scheduler.IlpNodeBudget = 777; }, true},
      {"Scheduler.DeadlineSeconds",
       [](AkgOptions &O) { O.Scheduler.DeadlineSeconds = 1.5; }, true},
      {"Scheduler.ForceFallback",
       [](AkgOptions &O) {
         O.Scheduler.ForceFallback = !O.Scheduler.ForceFallback;
       },
       true},
      {"Codegen.Machine",
       [](AkgOptions &O) { O.Codegen.Machine.UBBytes /= 2; }, true},
      {"Codegen.Simt",
       [](AkgOptions &O) { O.Codegen.Simt.SharedMemBytes /= 2; }, true},
      {"Codegen.EnableVectorize",
       [](AkgOptions &O) {
         O.Codegen.EnableVectorize = !O.Codegen.EnableVectorize;
       },
       true},
      {"Codegen.EnableDoubleBuffer",
       [](AkgOptions &O) {
         O.Codegen.EnableDoubleBuffer = !O.Codegen.EnableDoubleBuffer;
       },
       true},
      {"Sync", [](AkgOptions &O) { O.Sync = cce::SyncStrategy::FullSerial; },
       true},
      {"ManualTiles",
       [](AkgOptions &O) {
         transforms::TilingPolicy TP;
         TP.PerStmt[0].Entries.push_back(transforms::TileSpecEntry{8, "UB"});
         O.ManualTiles = TP;
       },
       true},
      {"EnablePostTilingFusion",
       [](AkgOptions &O) {
         O.EnablePostTilingFusion = !O.EnablePostTilingFusion;
       },
       true},
      {"EnableIntraTile",
       [](AkgOptions &O) { O.EnableIntraTile = !O.EnableIntraTile; }, true},
      {"EnableInlining",
       [](AkgOptions &O) { O.EnableInlining = !O.EnableInlining; }, true},
      {"MaxTileRetries", [](AkgOptions &O) { ++O.MaxTileRetries; }, true},
      {"Budget.DeadlineSeconds",
       [](AkgOptions &O) { O.Budget.DeadlineSeconds = 2.0; }, true},
      {"Budget.IlpNodeBudget",
       [](AkgOptions &O) { O.Budget.IlpNodeBudget = 555; }, true},
      {"FailStage", [](AkgOptions &O) { O.FailStage = Stage::Storage; },
       true},
      {"RequestDeadlineMs", [](AkgOptions &O) { O.RequestDeadlineMs = 5; },
       false},
      {"Cancel",
       [](AkgOptions &O) { O.Cancel = std::make_shared<CancelToken>(); },
       false},
      {"AstGen.UseMemo",
       [](AkgOptions &O) { O.AstGen.UseMemo = !O.AstGen.UseMemo; }, false},
  };
  const uint64_t Ref = fingerprintOptions(Base);
  for (const Probe &P : Probes) {
    AkgOptions O = Base;
    P.Mutate(O);
    EXPECT_EQ(fingerprintOptions(O) != Ref, P.KeyChanges) << P.Field;
  }
}

TEST(KernelCache, HitReturnsBitIdenticalResult) {
  auto M = makeNamedChain("hit");
  AkgOptions O;
  KernelCache Cache;
  CompileResult Cold = Cache.compileOrGet(*M, O, "k");
  CompileResult Warm = Cache.compileOrGet(*M, O, "k");
  EXPECT_EQ(cce::printKernel(Cold.Kernel), cce::printKernel(Warm.Kernel));
  EXPECT_EQ(Cold.ScheduleTreeDump, Warm.ScheduleTreeDump);
  EXPECT_EQ(Cold.TilingPolicyText, Warm.TilingPolicyText);
  EXPECT_EQ(Cold.TileSizes, Warm.TileSizes);
  EXPECT_EQ(Cold.Degradation.str(), Warm.Degradation.str());
  KernelCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1);
  EXPECT_EQ(S.Hits, 1);
  EXPECT_EQ(S.Evictions, 0);
  EXPECT_DOUBLE_EQ(S.hitRate(), 0.5);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(KernelCache, HitCarriesRequestedName) {
  // The graph engine requests the same subgraph under per-instance names;
  // a hit must come back under the caller's name, not the cached one.
  auto M = makeNamedChain("rename");
  AkgOptions O;
  KernelCache Cache;
  CompileResult First = Cache.compileOrGet(*M, O, "net/layer#0");
  CompileResult Second = Cache.compileOrGet(*M, O, "net/layer#1");
  EXPECT_EQ(First.Kernel.Name, "net/layer#0");
  EXPECT_EQ(Second.Kernel.Name, "net/layer#1");
  Second.Kernel.Name = First.Kernel.Name;
  EXPECT_EQ(cce::printKernel(First.Kernel), cce::printKernel(Second.Kernel));
  EXPECT_EQ(Cache.stats().Hits, 1);
}

TEST(KernelCache, DistinctOptionsCompileSeparately) {
  auto M = makeNamedChain("opts");
  KernelCache Cache;
  AkgOptions O1;
  AkgOptions O2;
  O2.Codegen.EnableDoubleBuffer = false;
  Cache.compileOrGet(*M, O1, "k");
  Cache.compileOrGet(*M, O2, "k");
  EXPECT_EQ(Cache.stats().Misses, 2);
  EXPECT_EQ(Cache.stats().Hits, 0);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(KernelCache, AlphaRenamedModulesCompileSeparately) {
  // Structurally equal, differently named: the emitted kernels address
  // different GM tensors, so the binding fingerprint must keep them on
  // separate cache lines.
  auto M1 = makeNamedChain("bind_one");
  auto M2 = makeNamedChain("bind_two");
  ASSERT_EQ(fingerprintModule(*M1), fingerprintModule(*M2));
  KernelCache Cache;
  AkgOptions O;
  CompileResult R1 = Cache.compileOrGet(*M1, O, "k1");
  CompileResult R2 = Cache.compileOrGet(*M2, O, "k2");
  EXPECT_EQ(Cache.stats().Misses, 2);
  EXPECT_EQ(Cache.stats().Hits, 0);
  std::string Dump2 = cce::printKernel(R2.Kernel);
  EXPECT_NE(Dump2.find("bind_two_a"), std::string::npos);
  EXPECT_EQ(Dump2.find("bind_one_a"), std::string::npos);
}

TEST(KernelCache, LruEvictionAtCapacity) {
  KernelCacheConfig Cfg;
  Cfg.MaxEntries = 2;
  KernelCache Cache(Cfg);
  EXPECT_EQ(Cache.capacity(), 2u);
  auto MA = makeNamedChain("ev", 8, 16);
  auto MB = makeNamedChain("ev", 8, 32);
  auto MC = makeNamedChain("ev", 8, 64);
  AkgOptions O;
  Cache.compileOrGet(*MA, O, "a");
  Cache.compileOrGet(*MB, O, "b");
  // Touch A so B becomes the LRU entry, then insert C.
  Cache.compileOrGet(*MA, O, "a");
  Cache.compileOrGet(*MC, O, "c");
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1);
  EXPECT_NE(Cache.lookup(makeCacheKey(*MA, O)), nullptr);
  EXPECT_EQ(Cache.lookup(makeCacheKey(*MB, O)), nullptr); // evicted
  EXPECT_NE(Cache.lookup(makeCacheKey(*MC, O)), nullptr);
}

// --- Single-flight failure semantics (DESIGN.md 4h) ----------------------

TEST(KernelCache, FailedCompileIsReturnedButNotCached) {
  auto M = makeNamedChain("fail");
  KernelCache Cache;
  std::atomic<int> Calls{0};
  auto FailFn = [&](const Module &Mod, const AkgOptions &O,
                    const std::string &N) {
    ++Calls;
    CompileResult R = compileWithAkg(Mod, O, N);
    R.Outcome = Status::error(ErrCode::Internal, "injected failure");
    return R;
  };
  CompileResult R = Cache.compileOrGet(*M, AkgOptions(), "k", FailFn);
  EXPECT_EQ(R.Outcome.code(), ErrCode::Internal);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().LeaderFailed, 1);
  // A later request with a healthy compile starts from scratch: the
  // failure left no entry to poison it.
  CompileResult Ok = Cache.compileOrGet(*M, AkgOptions(), "k");
  EXPECT_TRUE(Ok.Outcome.isOk());
  EXPECT_EQ(Calls.load(), 1);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(KernelCache, FailedLeaderWakesWaitersWhoRetry) {
  // Leader fails slowly; the coalesced waiter must not inherit the
  // failure or strand - it wakes, retries, becomes the next leader,
  // and compiles successfully.
  auto M = makeNamedChain("leader");
  KernelCache Cache;
  std::atomic<int> Calls{0};
  auto FlakyFn = [&](const Module &Mod, const AkgOptions &O,
                     const std::string &N) {
    int C = ++Calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    CompileResult R = compileWithAkg(Mod, O, N);
    if (C == 1)
      R.Outcome = Status::error(ErrCode::Internal, "first compile dies");
    return R;
  };
  CompileResult RA, RB;
  std::thread A([&] { RA = Cache.compileOrGet(*M, AkgOptions(), "a",
                                              FlakyFn); });
  std::thread B([&] { RB = Cache.compileOrGet(*M, AkgOptions(), "b",
                                              FlakyFn); });
  A.join();
  B.join();
  // Exactly one request saw the injected failure; the other succeeded
  // (either by retrying after the leader died, or by arriving later).
  EXPECT_EQ(Calls.load(), 2);
  EXPECT_NE(RA.Outcome.isOk(), RB.Outcome.isOk());
  const CompileResult &Ok = RA.Outcome.isOk() ? RA : RB;
  EXPECT_FALSE(cce::printKernel(Ok.Kernel).empty());
  EXPECT_EQ(Cache.stats().LeaderFailed, 1);
  EXPECT_EQ(Cache.size(), 1u); // only the good result was inserted
}

TEST(KernelCache, CoalescedWaiterHonorsItsOwnCancel) {
  // A waiter parked on another request's in-flight compile observes its
  // own token: cancelling the waiter must not wait out the leader.
  auto M = makeNamedChain("waiter");
  KernelCache Cache;
  std::atomic<bool> LeaderIn{false};
  auto SlowFn = [&](const Module &Mod, const AkgOptions &O,
                    const std::string &N) {
    LeaderIn = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return compileWithAkg(Mod, O, N);
  };
  std::thread Leader([&] {
    (void)Cache.compileOrGet(*M, AkgOptions(), "leader", SlowFn);
  });
  while (!LeaderIn)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  CancelToken Tok;
  cancel::Context Ctx;
  Ctx.Token = &Tok;
  Tok.requestCancel();
  auto T0 = std::chrono::steady_clock::now();
  {
    cancel::Scope S(&Ctx);
    EXPECT_THROW(Cache.compileOrGet(*M, AkgOptions(), "w", SlowFn),
                 CancelledError);
  }
  double Waited = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  EXPECT_LT(Waited, 0.15); // bailed before the 200ms leader finished
  Leader.join();
}

TEST(KernelCache, ClearResetsEntriesAndCounters) {
  auto M = makeNamedChain("clr");
  KernelCache Cache;
  Cache.compileOrGet(*M, AkgOptions{}, "k");
  Cache.compileOrGet(*M, AkgOptions{}, "k");
  ASSERT_GT(Cache.size(), 0u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Hits, 0);
  EXPECT_EQ(Cache.stats().Misses, 0);
  // And the next request compiles fresh.
  Cache.compileOrGet(*M, AkgOptions{}, "k");
  EXPECT_EQ(Cache.stats().Misses, 1);
}

} // namespace
