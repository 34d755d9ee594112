//===- tests/SimtTest.cpp - Target abstraction + SIMT backend tests -------===//
//
// Covers the target layer's dispatch edges: name tables, AKG_TARGET
// parsing into AkgOptions::Target, cache-key target separation (including
// per-field SimtSpec fingerprint sensitivity), SIMT lowering correctness
// against the reference evaluator, determinism across service thread
// counts, shared-memory capacity degradation through the retry ladder,
// barrier insertion, the composite JSON "target" field, the trace target
// tag, and kernel-store round-tripping of the target-specific fields.
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "akg/KernelStore.h"
#include "composite/Composite.h"
#include "graph/Ops.h"
#include "sim/SimtRun.h"
#include "target/CceIr.h"
#include "target/Sync.h"
#include "target/TargetBackend.h"

#include <gtest/gtest.h>

using namespace akg;
using namespace akg::graph;

namespace {

AkgOptions simtOptions() {
  AkgOptions O;
  O.Target = sim::TargetKind::Simt;
  return O;
}

// --- String tables --------------------------------------------------------

TEST(Target, NameTableIsExhaustive) {
  for (unsigned I = 0; I < sim::NumTargetKinds; ++I) {
    sim::TargetKind K = static_cast<sim::TargetKind>(I);
    std::string Name = sim::targetName(K);
    EXPECT_NE(Name, "?") << "unnamed TargetKind " << I;
    sim::TargetKind Parsed;
    ASSERT_TRUE(sim::parseTargetName(Name, Parsed)) << Name;
    EXPECT_EQ(Parsed, K);
  }
}

TEST(Target, SimtBufferNamesAreNamed) {
  EXPECT_STREQ(sim::bufferName(sim::Buffer::Shared), "SHARED");
  EXPECT_STREQ(sim::bufferName(sim::Buffer::Reg), "REG");
}

TEST(Target, ParseRejectsUnknownNamesWithoutTouchingOut) {
  sim::TargetKind K = sim::TargetKind::Simt;
  EXPECT_FALSE(sim::parseTargetName("cuda", K));
  EXPECT_FALSE(sim::parseTargetName("", K));
  EXPECT_FALSE(sim::parseTargetName("CCE", K)); // names are case-sensitive
  EXPECT_EQ(K, sim::TargetKind::Simt);
}

// --- Where the target comes from (AKG_TARGET) -----------------------------

TEST(Target, ResolveUsesOptionWhenEnvUnset) {
  // Unset: the built-in default; an explicit option is used as given.
  AkgOptions O = readEnvironment(mapLookup({})).Compile;
  EXPECT_EQ(O.Target, sim::TargetKind::Cce);
  O.Target = sim::TargetKind::Simt;
  ModulePtr M = makeTensorAdd({8, 16});
  EXPECT_EQ(compileWithAkg(*M, O, "opt").Kernel.Target,
            sim::TargetKind::Simt);
}

TEST(Target, ResolveEnvOverridesOption) {
  // AKG_TARGET replaces the built-in target in the options a tool starts
  // from, and the compile uses it. A flag set on top of those options wins
  // over the environment (Environment.ExplicitOptionsOverrideTheEnvironment).
  auto TargetOf = [](const char *V) {
    return readEnvironment(mapLookup({{"AKG_TARGET", V}})).Compile.Target;
  };
  EXPECT_EQ(TargetOf("simt"), sim::TargetKind::Simt);
  EXPECT_EQ(TargetOf("cce"), sim::TargetKind::Cce);
  AkgOptions O = readEnvironment(mapLookup({{"AKG_TARGET", "simt"}})).Compile;
  ModulePtr M = makeTensorAdd({8, 16});
  EXPECT_EQ(compileWithAkg(*M, O, "env").Kernel.Target,
            sim::TargetKind::Simt);
}

TEST(Target, ResolveIgnoresUnparseableEnv) {
  auto TargetOf = [](const char *V) {
    return readEnvironment(mapLookup({{"AKG_TARGET", V}})).Compile.Target;
  };
  EXPECT_EQ(TargetOf("simt"), sim::TargetKind::Simt);
  EXPECT_EQ(TargetOf("gpu"), sim::TargetKind::Cce); // unknown: default
}

// --- Cache-key target separation ------------------------------------------

TEST(Target, CacheKeySeparatesTargets) {
  ModulePtr M = makeTensorAdd({8, 16});
  AkgOptions Cce;
  CacheKey KC = makeCacheKey(*M, Cce);
  CacheKey KS = makeCacheKey(*M, simtOptions());
  EXPECT_FALSE(KC == KS) << "cce and simt compiles may never share a "
                            "cache line";
  // AKG_TARGET read into the options keys exactly like the option does.
  AkgOptions FromEnv =
      readEnvironment(mapLookup({{"AKG_TARGET", "simt"}})).Compile;
  EXPECT_TRUE(makeCacheKey(*M, FromEnv) == KS);
}

TEST(Target, CacheKeyCoversEverySimtSpecField) {
  ModulePtr M = makeTensorAdd({8, 16});
  AkgOptions Base = simtOptions();
  CacheKey Ref = makeCacheKey(*M, Base);
  int64_t sim::SimtSpec::*Fields[] = {
      &sim::SimtSpec::NumSMs,          &sim::SimtSpec::MaxBlocksPerSM,
      &sim::SimtSpec::MaxThreadsPerBlock, &sim::SimtSpec::WarpSize,
      &sim::SimtSpec::SharedMemBytes,  &sim::SimtSpec::RegisterBytes,
      &sim::SimtSpec::GlobalBandwidth, &sim::SimtSpec::GlobalLatency,
      &sim::SimtSpec::CoalesceBytes,   &sim::SimtSpec::TransactionCost,
      &sim::SimtSpec::SharedLatency,   &sim::SimtSpec::SharedBandwidth,
      &sim::SimtSpec::IssueCost,       &sim::SimtSpec::ScalarCost,
      &sim::SimtSpec::BarrierCost,     &sim::SimtSpec::LaunchLatency};
  for (size_t I = 0; I < sizeof(Fields) / sizeof(Fields[0]); ++I) {
    AkgOptions O = Base;
    O.Codegen.Simt.*Fields[I] += 1;
    EXPECT_FALSE(makeCacheKey(*M, O) == Ref)
        << "SimtSpec field " << I << " missing from the fingerprint";
  }
}

TEST(Target, SharedCacheServesEachTargetItsOwnKernel) {
  ModulePtr M = makeTensorAdd({16, 32});
  KernelCache Cache;
  CompileResult RC = Cache.compileOrGet(*M, AkgOptions{}, "dual");
  CompileResult RS = Cache.compileOrGet(*M, simtOptions(), "dual");
  EXPECT_EQ(RC.Kernel.Target, sim::TargetKind::Cce);
  EXPECT_EQ(RS.Kernel.Target, sim::TargetKind::Simt);
  EXPECT_EQ(Cache.stats().Misses, 2); // no aliasing, both compiled
  // Warm: each target hits its own entry.
  CompileResult RC2 = Cache.compileOrGet(*M, AkgOptions{}, "dual");
  CompileResult RS2 = Cache.compileOrGet(*M, simtOptions(), "dual");
  EXPECT_EQ(Cache.stats().Hits, 2);
  EXPECT_EQ(RC2.Kernel.Target, sim::TargetKind::Cce);
  EXPECT_EQ(RS2.Kernel.Target, sim::TargetKind::Simt);
  EXPECT_EQ(cce::printKernel(RC2.Kernel), cce::printKernel(RC.Kernel));
  EXPECT_EQ(cce::printKernel(RS2.Kernel), cce::printKernel(RS.Kernel));
}

// --- SIMT lowering: correctness, structure, determinism -------------------

TEST(Simt, ElementwiseMatchesReference) {
  ModulePtr M = makeTensorAdd({16, 48, 24, 24});
  CompileResult R = compileWithAkg(*M, simtOptions(), "simt_add");
  ASSERT_TRUE(R.Outcome.isOk());
  ASSERT_EQ(R.Kernel.Target, sim::TargetKind::Simt);
  sim::FunctionalDiff D = sim::diffSimtAgainstReference(
      R.Kernel, *M, sim::SimtSpec::sm80());
  EXPECT_TRUE(D.within(2e-2)) << D.str();
}

TEST(Simt, MatmulMatchesReference) {
  ModulePtr M = makeMatmul(64, 96, 48);
  CompileResult R = compileWithAkg(*M, simtOptions(), "simt_mm");
  ASSERT_TRUE(R.Outcome.isOk());
  sim::FunctionalDiff D = sim::diffSimtAgainstReference(
      R.Kernel, *M, sim::SimtSpec::sm80());
  EXPECT_TRUE(D.within(2e-2)) << D.str();
}

TEST(Simt, ReductionMatchesReference) {
  ModulePtr M = makeBnReduce(8, 16, 14, 14);
  CompileResult R = compileWithAkg(*M, simtOptions(), "simt_bn");
  ASSERT_TRUE(R.Outcome.isOk());
  sim::FunctionalDiff D = sim::diffSimtAgainstReference(
      R.Kernel, *M, sim::SimtSpec::sm80());
  EXPECT_TRUE(D.within(2e-2)) << D.str();
}

TEST(Simt, KernelShapeAndBarriers) {
  ModulePtr M = makeTensorAdd({16, 48, 24, 24});
  CompileResult R = compileWithAkg(*M, simtOptions(), "simt_shape");
  ASSERT_TRUE(R.Outcome.isOk());
  const cce::Kernel &K = R.Kernel;
  EXPECT_GE(K.GridBlocks, 1);
  EXPECT_GE(K.BlockThreads, 1);
  EXPECT_LE(K.BlockThreads, sim::SimtSpec::sm80().MaxThreadsPerBlock);
  EXPECT_EQ(K.BlockThreads % sim::SimtSpec::sm80().WarpSize, 0)
      << "block size must be warp-aligned";
  // Barriers, not set/wait flag pairs.
  EXPECT_GT(R.Sync.BarriersInserted, 0u);
  EXPECT_EQ(R.Sync.FlagsInserted, 0u);
  std::string Text = cce::printKernel(K);
  EXPECT_NE(Text.find("__simt__"), std::string::npos);
  EXPECT_NE(Text.find("__syncthreads()"), std::string::npos);
  EXPECT_NE(Text.find("blockIdx."), std::string::npos);
  EXPECT_EQ(Text.find("set_flag"), std::string::npos);
  // Every buffer lives in a SIMT memory.
  for (const cce::BufferAlloc &B : K.Buffers)
    EXPECT_TRUE(B.Location == sim::Buffer::Shared ||
                B.Location == sim::Buffer::Reg)
        << sim::bufferName(B.Location);
  EXPECT_TRUE(cce::checkSimtCapacities(K, sim::SimtSpec::sm80()).empty());
}

TEST(Simt, SimulationIsDeterministic) {
  ModulePtr M = makeRelu({8, 32, 14, 14});
  CompileResult R = compileWithAkg(*M, simtOptions(), "simt_det");
  ASSERT_TRUE(R.Outcome.isOk());
  sim::SimtResult A, B;
  uint64_t BitsA = 0, BitsB = 0;
  sim::diffSimtAgainstReference(R.Kernel, *M, sim::SimtSpec::sm80(), 1, &A,
                                &BitsA);
  sim::diffSimtAgainstReference(R.Kernel, *M, sim::SimtSpec::sm80(), 1, &B,
                                &BitsB);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(BitsA, BitsB);
  EXPECT_GT(A.Cycles, 0);
}

TEST(Simt, CompileIsDeterministicAcrossServiceThreads) {
  ModulePtr M = makeBnUpdate(8, 32, 14, 14);
  std::vector<CompileJob> Jobs(3, CompileJob{M.get(), simtOptions(),
                                             "simt_threads"});
  KernelCache C1, CN;
  CompileService::Options S1, SN;
  S1.Cache = &C1;
  SN.Threads = 4;
  SN.Cache = &CN;
  std::vector<CompileResult> A = CompileService(S1).compileAll(Jobs);
  std::vector<CompileResult> B = CompileService(SN).compileAll(Jobs);
  std::string Ref = cce::printKernel(A.front().Kernel);
  EXPECT_NE(Ref.find("__simt__"), std::string::npos);
  for (const CompileResult &R : A)
    EXPECT_EQ(cce::printKernel(R.Kernel), Ref);
  for (const CompileResult &R : B)
    EXPECT_EQ(cce::printKernel(R.Kernel), Ref);
}

TEST(Simt, SharedCapacityDegradesThroughRetryLadder) {
  // A shared memory too small for the auto-tiled footprint: the tile
  // retry ladder must halve until the kernel fits, still correct.
  ModulePtr M = makeTensorAdd({16, 64, 24, 24});
  AkgOptions O = simtOptions();
  O.Codegen.Simt.SharedMemBytes = 4 << 10;
  CompileResult R = compileWithAkg(*M, O, "simt_tiny_sm");
  ASSERT_TRUE(R.Outcome.isOk());
  EXPECT_TRUE(cce::checkSimtCapacities(R.Kernel, O.Codegen.Simt).empty());
  sim::FunctionalDiff D = sim::diffSimtAgainstReference(
      R.Kernel, *M, O.Codegen.Simt);
  EXPECT_TRUE(D.within(2e-2)) << D.str();
}

TEST(Simt, ScalarFallbackCarriesTarget) {
  ModulePtr M = makeTensorAdd({8, 8});
  const TargetBackend &B = targetBackend(sim::TargetKind::Simt);
  cce::Kernel K = B.scalarFallback(*M, "simt_fallback");
  EXPECT_EQ(K.Target, sim::TargetKind::Simt);
  sim::FunctionalDiff D =
      sim::diffSimtAgainstReference(K, *M, sim::SimtSpec::sm80());
  EXPECT_TRUE(D.within(2e-2)) << D.str();
}

// --- verifyKernel dispatch ------------------------------------------------

TEST(Simt, VerifyKernelDispatchesOnKernelTarget) {
  ModulePtr M = makeTensorAdd({8, 16});
  CompileResult R = compileWithAkg(*M, simtOptions(), "simt_verify");
  ASSERT_TRUE(R.Outcome.isOk());
  EXPECT_LE(verifyKernel(R.Kernel, *M, sim::MachineSpec::ascend910()), 2e-2);
}

// --- Composite JSON "target" field ----------------------------------------

TEST(CompositeTarget, PayloadFieldParsesAndRoundTrips) {
  ModulePtr M = makeTensorAdd({8, 16});
  composite::CompositeGraph G =
      composite::moduleToComposite(*M, "targeted");
  G.Target = "simt";
  std::string Payload = composite::serializeComposite(G, false);
  EXPECT_NE(Payload.find("\"target\":\"simt\""), std::string::npos);
  composite::ParseResult P = composite::parseComposite(Payload);
  ASSERT_TRUE(P.ok()) << P.Outcome.str();
  EXPECT_EQ(P.Graph.Target, "simt");
  // Absent field stays absent (pre-target payloads round-trip untouched).
  G.Target.clear();
  std::string Plain = composite::serializeComposite(G, false);
  EXPECT_EQ(Plain.find("\"target\""), std::string::npos);
  composite::ParseResult P2 = composite::parseComposite(Plain);
  ASSERT_TRUE(P2.ok());
  EXPECT_TRUE(P2.Graph.Target.empty());
}

TEST(CompositeTarget, UnknownTargetIsAStructuredDiag) {
  ModulePtr M = makeTensorAdd({8, 16});
  composite::CompositeGraph G = composite::moduleToComposite(*M, "bad");
  std::string Payload = composite::serializeComposite(G, false);
  // Splice an invalid target into an otherwise-valid payload.
  Payload.insert(1, "\"target\": \"tpu\", ");
  composite::ParseResult P = composite::parseComposite(Payload);
  EXPECT_FALSE(P.ok());
  ASSERT_FALSE(P.Diags.empty());
  EXPECT_EQ(P.Diags.front().Path, "$.target");
  // Wrong type is also a Diag, not a crash.
  std::string Payload2 = composite::serializeComposite(G, false);
  Payload2.insert(1, "\"target\": 7, ");
  composite::ParseResult P2 = composite::parseComposite(Payload2);
  EXPECT_FALSE(P2.ok());
  ASSERT_FALSE(P2.Diags.empty());
  EXPECT_EQ(P2.Diags.front().Path, "$.target");
}

TEST(CompositeTarget, ServiceHonorsPayloadTarget) {
  ModulePtr M = makeTensorAdd({8, 16});
  composite::CompositeGraph CG =
      composite::moduleToComposite(*M, "svc_simt");
  CG.Target = "simt";
  std::string Payload = composite::serializeComposite(CG, false);
  KernelCache Cache;
  CompileService::Options SO;
  SO.Cache = &Cache;
  CompileService Svc(SO);
  CompileResult R = Svc.submitJson(Payload, AkgOptions{}).get();
  ASSERT_TRUE(R.Outcome.isOk()) << R.Outcome.str();
  EXPECT_EQ(R.Kernel.Target, sim::TargetKind::Simt);
  EXPECT_EQ(R.Trace.Target, "simt");
}

// --- Trace target tag -----------------------------------------------------

TEST(TraceTarget, TracesCarryTheResolvedTarget) {
  ModulePtr M = makeTensorAdd({8, 16});
  CompileResult RC = compileWithAkg(*M, AkgOptions{}, "trace_cce");
  EXPECT_EQ(RC.Trace.Target, "cce");
  EXPECT_NE(RC.Trace.json().find("\"target\": \"cce\""), std::string::npos);
  CompileResult RS = compileWithAkg(*M, simtOptions(), "trace_simt");
  EXPECT_EQ(RS.Trace.Target, "simt");
  EXPECT_NE(RS.Trace.json().find("\"target\": \"simt\""), std::string::npos);
  EXPECT_NE(RS.Trace.find("lower_simt"), nullptr);
  EXPECT_EQ(RS.Trace.find("lower_cce"), nullptr);
}

// --- Kernel-store round-trip of the target fields -------------------------

TEST(SimtStore, SerializationPreservesTargetFields) {
  ModulePtr M = makeTensorAdd({16, 32});
  CompileResult R = compileWithAkg(*M, simtOptions(), "store_simt");
  ASSERT_TRUE(R.Outcome.isOk());
  std::string Bytes = serializeCompileResult(R);
  CompileResult Out;
  ASSERT_TRUE(deserializeCompileResult(Bytes, Out));
  EXPECT_EQ(Out.Kernel.Target, sim::TargetKind::Simt);
  EXPECT_EQ(Out.Kernel.BlockThreads, R.Kernel.BlockThreads);
  EXPECT_EQ(Out.Kernel.GridBlocks, R.Kernel.GridBlocks);
  EXPECT_EQ(Out.Trace.Target, "simt");
  EXPECT_EQ(cce::printKernel(Out.Kernel), cce::printKernel(R.Kernel));
}

} // namespace
