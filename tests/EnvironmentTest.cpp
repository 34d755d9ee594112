//===- tests/EnvironmentTest.cpp - The one reader of AKG_* variables ------===//
//
// readEnvironment maps each AKG_* variable the library honours to one
// field of the configuration structs, leaves built-in defaults when a
// variable is unset or malformed, and never overrides what a caller sets
// explicitly on top of it. Every case passes a map, so no test touches
// the process environment.
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "composite/Composite.h"
#include "graph/Ops.h"

#include <gtest/gtest.h>

using namespace akg;

namespace {

TEST(Environment, UnsetMeansBuiltInDefaults) {
  Environment E = readEnvironment(mapLookup({}));
  AkgOptions Defaults;
  EXPECT_EQ(fingerprintOptions(E.Compile), fingerprintOptions(Defaults));
  EXPECT_EQ(E.Compile.RequestDeadlineMs, 0);
  EXPECT_TRUE(E.Compile.AstGen.UseMemo);
  EXPECT_EQ(E.Service.Threads, 1u);
  EXPECT_EQ(E.Service.QueueDepth, 256u);
  EXPECT_EQ(E.Service.Shed, ShedPolicy::Reject);
  EXPECT_FALSE(E.Service.Chaos.has_value());
  EXPECT_TRUE(E.Cache.DiskDir.empty());
  EXPECT_EQ(E.Cache.DiskMaxBytes, 0);
  EXPECT_TRUE(E.Cache.DynShape);
  EXPECT_EQ(E.Cache.Buckets.bounds(), BucketScheme().bounds());
  EXPECT_FALSE(E.Diag.Stats);
  EXPECT_TRUE(E.Diag.TracePath.empty());
  EXPECT_FALSE(E.Diag.TraceSnapshots);
  EXPECT_TRUE(E.Warnings.empty());
}

TEST(Environment, EveryVariableMapsToItsField) {
  Environment E = readEnvironment(mapLookup({
      {"AKG_TARGET", "simt"},
      {"AKG_FAIL_STAGE", "storage"},
      {"AKG_DEADLINE_MS", "250"},
      {"AKG_ASTGEN_MEMO", "0"},
      {"AKG_THREADS", "3"},
      {"AKG_QUEUE_DEPTH", "9"},
      {"AKG_SHED_POLICY", "degrade"},
      {"AKG_CHAOS", "seed=7,fault=0.5"},
      {"AKG_CACHE_DIR", "/tmp/store"},
      {"AKG_CACHE_MAX_BYTES", "4096"},
      {"AKG_DYNSHAPE", "0"},
      {"AKG_SHAPE_BUCKETS", "8,32"},
      {"AKG_STATS", "1"},
      {"AKG_TRACE", "trace.jsonl"},
      {"AKG_TRACE_SNAPSHOTS", ""},
  }));
  EXPECT_EQ(E.Compile.Target, sim::TargetKind::Simt);
  EXPECT_EQ(E.Compile.FailStage, Stage::Storage);
  EXPECT_EQ(E.Compile.RequestDeadlineMs, 250);
  EXPECT_FALSE(E.Compile.AstGen.UseMemo);
  EXPECT_EQ(E.Service.Threads, 3u);
  EXPECT_EQ(E.Service.QueueDepth, 9u);
  EXPECT_EQ(E.Service.Shed, ShedPolicy::Degrade);
  ASSERT_TRUE(E.Service.Chaos.has_value());
  EXPECT_EQ(E.Service.Chaos->Seed, 7u);
  EXPECT_EQ(E.Service.Chaos->FaultP, 0.5);
  EXPECT_EQ(E.Cache.DiskDir, "/tmp/store");
  EXPECT_EQ(E.Cache.DiskMaxBytes, 4096);
  EXPECT_FALSE(E.Cache.DynShape);
  EXPECT_EQ(E.Cache.Buckets.bounds(), (std::vector<int64_t>{8, 32}));
  EXPECT_TRUE(E.Diag.Stats);
  EXPECT_EQ(E.Diag.TracePath, "trace.jsonl");
  EXPECT_TRUE(E.Diag.TraceSnapshots); // set to anything, even ""
  EXPECT_TRUE(E.Warnings.empty());
}

TEST(Environment, MalformedValuesAreIgnored) {
  Environment E = readEnvironment(mapLookup({
      {"AKG_TARGET", "gpu"},
      {"AKG_FAIL_STAGE", "no_such_stage"},
      {"AKG_DEADLINE_MS", "soon"},
      {"AKG_QUEUE_DEPTH", "0"},
      {"AKG_CHAOS", "fault=2"},
      {"AKG_CACHE_MAX_BYTES", "-5"},
      {"AKG_SHAPE_BUCKETS", "64,16"},
  }));
  EXPECT_EQ(E.Compile.Target, sim::TargetKind::Cce);
  EXPECT_EQ(E.Compile.FailStage, Stage::None);
  EXPECT_EQ(E.Compile.RequestDeadlineMs, 0);
  EXPECT_EQ(E.Service.QueueDepth, 1u); // clamped: a queue holds one job
  EXPECT_FALSE(E.Service.Chaos.has_value());
  ASSERT_EQ(E.Warnings.size(), 1u); // chaos is reported, not silently lost
  EXPECT_NE(E.Warnings[0].find("AKG_CHAOS"), std::string::npos);
  EXPECT_EQ(E.Cache.DiskMaxBytes, 0);
  EXPECT_EQ(E.Cache.Buckets.bounds(), BucketScheme().bounds());
  // A well-formed but inert chaos spec is no chaos at all.
  EXPECT_FALSE(readEnvironment(mapLookup({{"AKG_CHAOS", "seed=3"}}))
                   .Service.Chaos.has_value());
}

TEST(Environment, ExplicitOptionsOverrideTheEnvironment) {
  // A tool starts from the environment and layers its flags on top; the
  // library applies the result as given.
  Environment E = readEnvironment(
      mapLookup({{"AKG_TARGET", "simt"}, {"AKG_FAIL_STAGE", "storage"}}));
  AkgOptions O = E.Compile;
  O.Target = sim::TargetKind::Cce; // e.g. --target cce
  O.FailStage = Stage::None;
  auto M = graph::makeTensorAdd({8, 16});
  CompileResult R = compileWithAkg(*M, O, "explicit");
  EXPECT_EQ(R.Kernel.Target, sim::TargetKind::Cce);
  EXPECT_TRUE(R.Degradation.Steps.empty()) << R.Degradation.str();

  // A composite payload's own "target" beats the options it arrives with.
  std::string Payload = composite::moduleToCompositeJson(*M, "payload");
  composite::FrontendResult F = composite::loadComposite(Payload);
  ASSERT_TRUE(F.ok());
  F.Normalized.Target = "cce";
  KernelCache Cache;
  CompileService::Options SO = E.Service;
  SO.Cache = &Cache;
  CompileService Svc(SO);
  CompileResult P =
      Svc.submitJson(composite::serializeComposite(F.Normalized, false),
                     E.Compile)
          .get();
  ASSERT_TRUE(P.Outcome.isOk()) << P.Outcome.str();
  EXPECT_EQ(P.Kernel.Target, sim::TargetKind::Cce);
}

} // namespace
