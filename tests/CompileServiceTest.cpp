//===- tests/CompileServiceTest.cpp - Parallel compile service ------------===//
//
// The compile service's determinism contract: the Fig 13 network set
// compiled on 1 or 4 threads, with no cache, a cold cache or a warm one,
// produces bit-identical CCE kernel dumps and identical
// DegradationReports.
// Also unit-tests the thread pool, the service's job expansion, and the
// thread safety of the Stats singleton the workers share.
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "graph/Networks.h"
#include "graph/Ops.h"
#include "support/Cancel.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "target/CceIr.h"

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace akg;
using namespace akg::graph;

namespace {

TEST(ThreadPool, InlineModeRunsOnCallingThread) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.size(), 0u); // no workers: submit() runs inline
  bool Ran = false;
  auto Fut = Pool.submit([&] {
    Ran = true;
    return 42;
  });
  EXPECT_TRUE(Ran); // before get(): inline execution already happened
  EXPECT_EQ(Fut.get(), 42);
}

TEST(ThreadPool, WorkersDrainTheQueue) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::atomic<int> Sum{0};
  std::vector<std::future<void>> Futs;
  for (int I = 1; I <= 100; ++I)
    Futs.push_back(Pool.submit([&Sum, I] { Sum += I; }));
  for (auto &F : Futs)
    F.get();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool Pool(2);
  auto Fut = Pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(Fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned Threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> Seen(256);
    parallelFor(Threads, Seen.size(), [&](size_t I) { Seen[I]++; });
    for (size_t I = 0; I < Seen.size(); ++I)
      EXPECT_EQ(Seen[I].load(), 1) << "index " << I << " at " << Threads
                                   << " threads";
  }
}

TEST(ThreadPool, ParallelForRethrowsWorkerExceptions) {
  EXPECT_THROW(parallelFor(4, 16,
                           [](size_t I) {
                             if (I == 7)
                               throw std::runtime_error("index 7");
                           }),
               std::runtime_error);
}

TEST(StatsConcurrency, CountersSurviveAHammer) {
  const std::string Key = "test.hammer_counter";
  int64_t Before = Stats::get().counter(Key);
  parallelFor(8, 8, [&](size_t) {
    for (int I = 0; I < 1000; ++I)
      Stats::get().add(Key);
  });
  EXPECT_EQ(Stats::get().counter(Key) - Before, 8000);
  double TBefore = Stats::get().timer("test.hammer_timer");
  parallelFor(8, 8, [&](size_t) {
    for (int I = 0; I < 100; ++I)
      Stats::get().addTime("test.hammer_timer", 0.001);
  });
  EXPECT_NEAR(Stats::get().timer("test.hammer_timer") - TBefore, 0.8, 1e-9);
}

TEST(CompileService, ThreadCountResolution) {
  auto Threads = [](std::map<std::string, std::string> Vars) {
    return readEnvironment(mapLookup(std::move(Vars))).Service.Threads;
  };
  EXPECT_EQ(Threads({}), 1u); // unset -> sequential
  EXPECT_EQ(Threads({{"AKG_THREADS", "6"}}), 6u);
  EXPECT_EQ(Threads({{"AKG_THREADS", "not_a_number"}}), 1u);
  EXPECT_EQ(Threads({{"AKG_THREADS", "100000"}}), 256u); // clamped
  // An explicit option beats the environment.
  CompileService::Options SO =
      readEnvironment(mapLookup({{"AKG_THREADS", "6"}})).Service;
  SO.Threads = 2;
  CompileService Svc(SO);
  EXPECT_EQ(Svc.threads(), 2u);
}

TEST(CompileService, NetworkJobsExpandOccurrences) {
  NetworkModel N = buildAlexNet();
  AkgOptions Base;
  std::vector<CompileJob> Distinct = networkCompileJobs(N, Base);
  EXPECT_EQ(Distinct.size(), N.Layers.size());
  int64_t Occurrences = 0;
  for (const LayerWorkload &L : N.Layers)
    Occurrences += L.Count;
  std::vector<CompileJob> All =
      networkCompileJobs(N, Base, /*PerOccurrence=*/true);
  EXPECT_EQ(All.size(), static_cast<size_t>(Occurrences));
  // Per-occurrence names stay unique; distinct names carry net/layer.
  EXPECT_EQ(Distinct.front().Name, N.Name + "/" + N.Layers.front().Name);
}

/// The determinism contract: the Fig 13 network set yields identical
/// kernel dumps and DegradationReports compiled on 1 thread without a
/// cache (the sequential pipeline), on 4 threads without a cache, and on
/// 4 threads through a cold and then a warm cache. The cached passes
/// serve the per-occurrence stream (one request per subgraph instance),
/// so requests that waited on another's in-flight compile of the same
/// subgraph are compared too.
TEST(CompileService, Fig13NetworksDeterministicAcrossThreadCounts) {
  NetworkModel Nets[6] = {buildResNet50(), buildMobileNetV2(),
                          buildAlexNet(), buildBert(21128),
                          buildBert(30522), buildSsd()};
  AkgOptions Base;
  std::vector<CompileJob> Jobs, Stream;
  for (const NetworkModel &N : Nets) {
    std::vector<CompileJob> J = networkCompileJobs(N, Base);
    Jobs.insert(Jobs.end(), J.begin(), J.end());
    J = networkCompileJobs(N, Base, /*PerOccurrence=*/true);
    Stream.insert(Stream.end(), J.begin(), J.end());
  }
  ASSERT_GT(Jobs.size(), 30u);
  ASSERT_EQ(Stream.size(), 418u);

  auto Options = [](unsigned Threads, KernelCache *Cache, size_t NJobs) {
    CompileService::Options SO;
    SO.Threads = Threads;
    SO.Cache = Cache;
    SO.QueueDepth = static_cast<unsigned>(NJobs); // admit the whole batch
    return SO;
  };
  std::vector<CompileResult> Seq =
      CompileService(Options(1, nullptr, Jobs.size())).compileAll(Jobs);
  std::vector<CompileResult> NoCache4 =
      CompileService(Options(4, nullptr, Jobs.size())).compileAll(Jobs);
  ASSERT_EQ(Seq.size(), Jobs.size());
  ASSERT_EQ(NoCache4.size(), Jobs.size());
  std::map<std::string, size_t> JobOf;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    JobOf[Jobs[I].Name] = I;
    const std::string &Name = Jobs[I].Name;
    EXPECT_EQ(Seq[I].Kernel.Name, Name); // results in job order
    EXPECT_EQ(NoCache4[I].Kernel.Name, Name);
    EXPECT_EQ(cce::printKernel(Seq[I].Kernel),
              cce::printKernel(NoCache4[I].Kernel))
        << Name << ": 1-thread vs 4-thread kernels differ";
    EXPECT_EQ(Seq[I].Degradation.str(), NoCache4[I].Degradation.str())
        << Name << ": degradation reports differ across threads";
  }

  KernelCache Cache;
  CompileService Svc(Options(4, &Cache, Stream.size()));
  std::vector<CompileResult> Cold = Svc.compileAll(Stream);
  KernelCacheStats ColdStats = Cache.stats();
  std::vector<CompileResult> Warm = Svc.compileAll(Stream);
  ASSERT_EQ(Cold.size(), Stream.size());
  ASSERT_EQ(Warm.size(), Stream.size());
  for (size_t I = 0; I < Stream.size(); ++I) {
    const std::string &Name = Stream[I].Name;
    const CompileResult &Ref = Seq[JobOf.at(Name.substr(0, Name.find('#')))];
    cce::Kernel RefKernel = Ref.Kernel;
    RefKernel.Name = Name; // "net/layer#2" is an occurrence of "net/layer"
    std::string RefText = cce::printKernel(RefKernel);
    EXPECT_EQ(Cold[I].Kernel.Name, Name);
    EXPECT_EQ(Warm[I].Kernel.Name, Name);
    EXPECT_EQ(RefText, cce::printKernel(Cold[I].Kernel))
        << Name << ": sequential vs cold-cache kernels differ";
    EXPECT_EQ(RefText, cce::printKernel(Warm[I].Kernel))
        << Name << ": sequential vs warm-cache kernels differ";
    EXPECT_EQ(Ref.Degradation.str(), Cold[I].Degradation.str())
        << Name << ": degradation reports differ sequential vs cold";
    EXPECT_EQ(Ref.Degradation.str(), Warm[I].Degradation.str())
        << Name << ": degradation reports differ sequential vs warm";
  }
  // Single flight: the cold pass compiled each distinct fingerprint once
  // (BERT's two vocabularies share most of their layers); every other
  // request was a hit or waited on the leader. The warm pass was served
  // entirely from the cache.
  std::unordered_set<CacheKey, CacheKeyHash> Keys;
  for (const CompileJob &J : Stream)
    Keys.insert(makeCacheKey(*J.Mod, J.Opts));
  EXPECT_EQ(ColdStats.Misses, static_cast<int64_t>(Keys.size()));
  EXPECT_EQ(ColdStats.Misses + ColdStats.Hits + ColdStats.Coalesced,
            static_cast<int64_t>(Stream.size()));
  KernelCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits - ColdStats.Hits, static_cast<int64_t>(Stream.size()));
  EXPECT_EQ(S.Misses, ColdStats.Misses);
}

// --- Chaos spec: grammar + seeded determinism (DESIGN.md 4h) -------------

TEST(ChaosSpec, ParsesTheFullGrammar) {
  std::string Err;
  auto S = ChaosSpec::parse(
      "seed=42,fault=0.1,transient=0.25,delay=0.2:15,hang=0.01:500", &Err);
  ASSERT_TRUE(S.has_value()) << Err;
  EXPECT_EQ(S->Seed, 42u);
  EXPECT_DOUBLE_EQ(S->FaultP, 0.1);
  EXPECT_DOUBLE_EQ(S->TransientP, 0.25);
  EXPECT_DOUBLE_EQ(S->DelayP, 0.2);
  EXPECT_DOUBLE_EQ(S->DelayMs, 15);
  EXPECT_DOUBLE_EQ(S->HangP, 0.01);
  EXPECT_DOUBLE_EQ(S->HangMs, 500);
  EXPECT_TRUE(S->enabled());
  // Defaults: empty spec parses but is disabled.
  auto Empty = ChaosSpec::parse("");
  ASSERT_TRUE(Empty.has_value());
  EXPECT_FALSE(Empty->enabled());
}

TEST(ChaosSpec, RejectsMalformedSpecs) {
  for (const char *Bad : {"fault", "fault=", "fault=x", "fault=1.5",
                          "bogus=1", "delay=0.1:abc", "fault=0.1:5",
                          "seed=nope"}) {
    std::string Err;
    EXPECT_FALSE(ChaosSpec::parse(Bad, &Err).has_value()) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(ChaosSpec, DecisionsAreAPureFunctionOfSeedNameAttempt) {
  ChaosSpec S;
  S.Seed = 7;
  S.FaultP = 0.5;
  S.DelayP = 0.3;
  for (int I = 0; I < 32; ++I) {
    std::string Name = "net/layer#" + std::to_string(I);
    ChaosAction A = chaosDecide(S, Name, 0);
    ChaosAction B = chaosDecide(S, Name, 0);
    EXPECT_EQ(static_cast<int>(A.K), static_cast<int>(B.K)) << Name;
    EXPECT_EQ(A.Transient, B.Transient);
    EXPECT_DOUBLE_EQ(A.Ms, B.Ms);
  }
  // A different seed or attempt redraws the whole run.
  ChaosSpec S2 = S;
  S2.Seed = 8;
  bool AnyDiffer = false;
  for (int I = 0; I < 64 && !AnyDiffer; ++I) {
    std::string Name = "net/layer#" + std::to_string(I);
    AnyDiffer |= static_cast<int>(chaosDecide(S, Name, 0).K) !=
                 static_cast<int>(chaosDecide(S2, Name, 0).K);
    AnyDiffer |= static_cast<int>(chaosDecide(S, Name, 0).K) !=
                 static_cast<int>(chaosDecide(S, Name, 1).K);
  }
  EXPECT_TRUE(AnyDiffer);
}

// --- Quarantine: poison-pill negative cache ------------------------------

TEST(Quarantine, ArmsAtThresholdAndOnlyOnDeterministicFailures) {
  auto M = graph::makeMatmul(32, 32, 32);
  CacheKey K = makeCacheKey(*M, AkgOptions());
  QuarantineOptions QO;
  QO.FailureThreshold = 3;
  Quarantine Q(QO);
  // Non-deterministic codes never count, no matter how many.
  for (int I = 0; I < 10; ++I) {
    Q.recordFailure(K, ErrCode::DeadlineExceeded, "slow");
    Q.recordFailure(K, ErrCode::Cancelled, "cancelled");
    Q.recordFailure(K, ErrCode::Unavailable, "transient");
    Q.recordFailure(K, ErrCode::Overloaded, "shed");
  }
  EXPECT_FALSE(Q.check(K).has_value());
  // Deterministic failures arm at the threshold.
  Q.recordFailure(K, ErrCode::Internal, "boom");
  Q.recordFailure(K, ErrCode::FaultInjected, "boom");
  EXPECT_FALSE(Q.check(K).has_value()); // 2 of 3: still compiling
  Q.recordFailure(K, ErrCode::Internal, "boom");
  auto Why = Q.check(K);
  ASSERT_TRUE(Why.has_value());
  EXPECT_NE(Why->find("boom"), std::string::npos);
  QuarantineStats S = Q.stats();
  EXPECT_EQ(S.Armed, 1);
  EXPECT_EQ(S.FastFails, 1);
}

TEST(Quarantine, SuccessClearsAndTtlGivesAFreshStart) {
  auto M = graph::makeMatmul(32, 32, 32);
  CacheKey K = makeCacheKey(*M, AkgOptions());
  QuarantineOptions QO;
  QO.FailureThreshold = 1;
  QO.TtlSeconds = 0.05;
  Quarantine Q(QO);
  Q.recordFailure(K, ErrCode::Internal, "dies");
  EXPECT_TRUE(Q.check(K).has_value());
  // The TTL lapses: the fingerprint gets a completely fresh start (the
  // accumulated failure count does not survive).
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(Q.check(K).has_value());
  EXPECT_EQ(Q.size(), 0u);
  // And a success wipes a counting entry before it arms.
  QuarantineOptions QO2;
  QO2.FailureThreshold = 2;
  Quarantine Q2(QO2);
  Q2.recordFailure(K, ErrCode::Internal, "dies");
  Q2.recordSuccess(K);
  Q2.recordFailure(K, ErrCode::Internal, "dies");
  EXPECT_FALSE(Q2.check(K).has_value()); // 1 of 2 after the clear
}

// --- CompileService: admission, deadlines, retries, quarantine -----------

TEST(CompileService, CleanRequestCompilesWithServiceLatency) {
  auto M = graph::makeMatmul(32, 32, 32);
  KernelCache Cache;
  CompileService::Options SO;
  SO.Threads = 1; // inline: deterministic
  SO.Cache = &Cache;
  CompileService Svc(SO);
  CompileResult R = Svc.submit(*M, AkgOptions(), "clean").get();
  EXPECT_TRUE(R.Outcome.isOk());
  EXPECT_GT(R.ServiceSeconds, 0);
  EXPECT_FALSE(cce::printKernel(R.Kernel).empty());
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Submitted, 1);
  EXPECT_EQ(S.Completed, 1);
  EXPECT_EQ(S.Shed + S.Degraded + S.Quarantined, 0);
}

TEST(CompileService, PreCancelledRequestFailsFastWithCancelled) {
  auto M = graph::makeMatmul(32, 32, 32);
  CompileService::Options SO;
  SO.Threads = 1;
  SO.Cache = nullptr;
  CompileService Svc(SO);
  AkgOptions O;
  O.Cancel = std::make_shared<CancelToken>();
  O.Cancel->requestCancel();
  CompileResult R = Svc.submit(*M, O, "cancelled").get();
  EXPECT_EQ(R.Outcome.code(), ErrCode::Cancelled);
  EXPECT_EQ(R.Trace.Outcome, "cancelled");
  EXPECT_FALSE(cce::printKernel(R.Kernel).empty()); // scalar fallback
}

TEST(CompileService, ServiceDefaultDeadlineInherited) {
  auto M = graph::makeMatmul(96, 96, 96);
  CompileService::Options SO;
  SO.Threads = 1;
  SO.Cache = nullptr;
  SO.DefaultDeadlineMs = 1e-3; // expires in the queue
  CompileService Svc(SO);
  CompileResult R = Svc.submit(*M, AkgOptions(), "svc_deadline").get();
  EXPECT_EQ(R.Outcome.code(), ErrCode::DeadlineExceeded);
  // The request's own (generous) deadline beats the service default.
  AkgOptions O;
  O.RequestDeadlineMs = 60000;
  CompileResult R2 = Svc.submit(*M, O, "own_deadline").get();
  EXPECT_TRUE(R2.Outcome.isOk());
}

TEST(CompileService, RejectPolicyShedsWithOverloaded) {
  auto M = graph::makeMatmul(32, 32, 32);
  ChaosSpec Delay;            // park every worker 80ms per request
  Delay.DelayP = 1.0;
  Delay.DelayMs = 80;
  KernelCache Cache;
  CompileService::Options SO;
  SO.Threads = 2;
  SO.QueueDepth = 1;
  SO.Shed = ShedPolicy::Reject;
  SO.Cache = &Cache;
  SO.Chaos = Delay;
  CompileService Svc(SO);
  std::vector<std::future<CompileResult>> Futs;
  for (int I = 0; I < 12; ++I)
    Futs.push_back(Svc.submit(*M, AkgOptions(), "r" + std::to_string(I)));
  size_t Shed = 0, Ok = 0;
  for (auto &F : Futs) {
    CompileResult R = F.get();
    if (R.Outcome.code() == ErrCode::Overloaded) {
      ++Shed;
      // Reject sheds carry no kernel and a terminal "shed" event.
      EXPECT_NE(R.Trace.find("shed"), nullptr);
    } else if (R.Outcome.isOk()) {
      ++Ok;
    }
  }
  EXPECT_GE(Shed, 1u); // 2 workers + depth 1 cannot absorb 12 at once
  EXPECT_GE(Ok, 1u);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Shed, static_cast<int64_t>(Shed));
  EXPECT_EQ(S.Completed + S.Shed, S.Submitted); // nothing hung
}

TEST(CompileService, DegradePolicyServesTheScalarRung) {
  auto M = graph::makeMatmul(32, 32, 32);
  ChaosSpec Delay;
  Delay.DelayP = 1.0;
  Delay.DelayMs = 80;
  KernelCache Cache;
  CompileService::Options SO;
  SO.Threads = 2;
  SO.QueueDepth = 1;
  SO.Shed = ShedPolicy::Degrade;
  SO.Cache = &Cache;
  SO.Chaos = Delay;
  CompileService Svc(SO);
  std::vector<std::future<CompileResult>> Futs;
  for (int I = 0; I < 12; ++I)
    Futs.push_back(Svc.submit(*M, AkgOptions(), "d" + std::to_string(I)));
  size_t Degraded = 0;
  for (auto &F : Futs) {
    CompileResult R = F.get();
    // Every request succeeds under Degrade; shed ones get the scalar rung.
    EXPECT_TRUE(R.Outcome.isOk());
    EXPECT_FALSE(cce::printKernel(R.Kernel).empty());
    if (R.Trace.find("shed"))
      ++Degraded;
  }
  EXPECT_GE(Degraded, 1u);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Degraded, static_cast<int64_t>(Degraded));
  EXPECT_EQ(S.Shed, 0);
}

TEST(CompileService, FabricatedKernelsFollowTheRequestTarget) {
  // Chaos faults and shed-degrade answer without running the pipeline;
  // the fallback kernel they carry, and their trace, must still be for the
  // requested target.
  auto M = graph::makeMatmul(32, 32, 32);
  AkgOptions O;
  O.Target = sim::TargetKind::Simt;
  auto ExpectSimt = [](const CompileResult &R) {
    std::string Text = cce::printKernel(R.Kernel);
    EXPECT_EQ(Text.rfind("__simt__", 0), 0u) << Text;
    EXPECT_EQ(cce::checkSimtCapacities(R.Kernel, sim::SimtSpec::sm80()), "");
    EXPECT_EQ(R.Trace.Target, "simt");
  };
  {
    ChaosSpec AllFault;
    AllFault.FaultP = 1.0;
    AllFault.TransientP = 0.0;
    CompileService::Options SO;
    SO.Threads = 1;
    SO.Cache = nullptr;
    SO.Chaos = AllFault;
    CompileService Svc(SO);
    CompileResult R = Svc.submit(*M, O, "simt_fault").get();
    EXPECT_EQ(R.Outcome.code(), ErrCode::FaultInjected);
    ExpectSimt(R);
  }
  ChaosSpec Delay;
  Delay.DelayP = 1.0;
  Delay.DelayMs = 80;
  KernelCache Cache;
  CompileService::Options SO;
  SO.Threads = 2;
  SO.QueueDepth = 1;
  SO.Shed = ShedPolicy::Degrade;
  SO.Cache = &Cache;
  SO.Chaos = Delay;
  CompileService Svc(SO);
  std::vector<std::future<CompileResult>> Futs;
  for (int I = 0; I < 12; ++I)
    Futs.push_back(Svc.submit(*M, O, "simt_d" + std::to_string(I)));
  size_t Degraded = 0;
  for (auto &F : Futs) {
    CompileResult R = F.get();
    EXPECT_TRUE(R.Outcome.isOk());
    if (R.Trace.find("shed")) {
      ++Degraded;
      ExpectSimt(R);
    }
  }
  EXPECT_GE(Degraded, 1u);
}

TEST(CompileService, TransientFaultsRetryThenReportUnavailable) {
  auto M = graph::makeMatmul(32, 32, 32);
  ChaosSpec AllTransient; // every attempt faults transiently
  AllTransient.FaultP = 1.0;
  AllTransient.TransientP = 1.0;
  CompileService::Options SO;
  SO.Threads = 1;
  SO.Cache = nullptr;
  SO.MaxRetries = 2;
  SO.RetryBackoffMs = 0.1;
  SO.Chaos = AllTransient;
  CompileService Svc(SO);
  CompileResult R = Svc.submit(*M, AkgOptions(), "transient").get();
  EXPECT_EQ(R.Outcome.code(), ErrCode::Unavailable);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Retries, 2);        // both retry budget slots spent
  EXPECT_EQ(S.FaultsInjected, 3); // initial attempt + 2 retries
  // Transient faults never arm the quarantine.
  EXPECT_EQ(Svc.quarantine().stats().Armed, 0);
}

TEST(CompileService, DeterministicFaultsArmTheQuarantine) {
  auto M = graph::makeMatmul(32, 32, 32);
  ChaosSpec AllFault; // every attempt faults deterministically
  AllFault.FaultP = 1.0;
  AllFault.TransientP = 0.0;
  KernelCache Cache;
  CompileService::Options SO;
  SO.Threads = 1;
  SO.Cache = &Cache;
  SO.Chaos = AllFault;
  SO.QuarantineOpts.FailureThreshold = 2;
  CompileService Svc(SO);
  std::vector<ErrCode> Codes;
  for (int I = 0; I < 4; ++I)
    Codes.push_back(
        Svc.submit(*M, AkgOptions(), "poison").get().Outcome.code());
  // Two injected failures arm the entry; the rest fail fast.
  EXPECT_EQ(Codes[0], ErrCode::FaultInjected);
  EXPECT_EQ(Codes[1], ErrCode::FaultInjected);
  EXPECT_EQ(Codes[2], ErrCode::Quarantined);
  EXPECT_EQ(Codes[3], ErrCode::Quarantined);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Quarantined, 2);
  EXPECT_EQ(Svc.quarantine().stats().Armed, 1);
  EXPECT_EQ(Svc.quarantine().stats().FastFails, 2);
}

TEST(CompileService, ChaosRunMatchesChaosFreeKernels) {
  // The acceptance bar in miniature: a seeded fault+delay run over the
  // AlexNet stream returns bit-identical kernels for every request chaos
  // did not shed or fault, and strands nothing.
  NetworkModel N = buildAlexNet();
  AkgOptions Base;
  Base.RequestDeadlineMs = 60000;
  std::vector<CompileJob> Jobs =
      networkCompileJobs(N, Base, /*PerOccurrence=*/true);

  KernelCache RefCache;
  CompileService::Options RO;
  RO.Threads = 2;
  RO.Cache = &RefCache;
  std::vector<CompileResult> Ref = CompileService(RO).compileAll(Jobs);

  ChaosSpec Spec;
  Spec.Seed = 42;
  Spec.FaultP = 0.15;
  Spec.TransientP = 0.0;
  Spec.DelayP = 0.1;
  Spec.DelayMs = 5;
  KernelCache Cache;
  CompileService::Options SO;
  SO.Threads = 2;
  SO.Cache = &Cache;
  SO.Chaos = Spec;
  CompileService Svc(SO);
  std::vector<CompileResult> Res = Svc.compileAll(Jobs);

  ASSERT_EQ(Res.size(), Jobs.size());
  size_t Clean = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!Res[I].Outcome.isOk() || Res[I].Trace.find("shed"))
      continue;
    ++Clean;
    EXPECT_EQ(cce::printKernel(Res[I].Kernel),
              cce::printKernel(Ref[I].Kernel))
        << Jobs[I].Name;
  }
  EXPECT_GT(Clean, 0u);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Completed + S.Shed + S.Degraded, S.Submitted);
}

TEST(CompileService, NullCacheCompilesEveryJob) {
  NetworkModel N = buildAlexNet();
  AkgOptions Base;
  std::vector<CompileJob> Jobs =
      networkCompileJobs(N, Base, /*PerOccurrence=*/true);
  CompileService::Options SO;
  SO.Threads = 2;
  SO.Cache = nullptr; // pre-cache behavior: compile everything
  SO.QueueDepth = static_cast<unsigned>(Jobs.size()); // admit the batch
  CompileService Svc(SO);
  std::vector<CompileResult> R = Svc.compileAll(Jobs);
  ASSERT_EQ(R.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I)
    EXPECT_EQ(R[I].Kernel.Name, Jobs[I].Name);
  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Completed, static_cast<int64_t>(Jobs.size()));
  EXPECT_EQ(S.Shed, 0);
}

} // namespace
