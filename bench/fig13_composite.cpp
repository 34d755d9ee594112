//===- bench/fig13_composite.cpp - Composite-JSON network serving bench ---===//
//
// The Fig 13 networks served the way a graph engine actually delivers
// them: every fused subgraph of ResNet-50 and BERT serialized as a
// composite-subgraph JSON payload (src/composite) and pushed through
// CompileService::submitJson under concurrent load, one request per
// subgraph *occurrence*. Reports end-to-end ingress latency percentiles
// (parse + normalize + lower + queue + compile), the cache-hit split, and
// asserts every served kernel bit-identical to a direct in-memory module
// compile of the same subgraph - the frontend must be a zero-cost
// detour, not a second compiler.
//
//   AKG_THREADS=<n>          worker threads (default 4)
//   AKG_BENCH_REQUESTS=<n>   cap the request stream (CI smoke uses 50)
//
// Results land in BENCH_fig13_composite.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "akg/Environment.h"
#include "composite/Composite.h"
#include "graph/Networks.h"
#include "support/Stats.h"
#include "target/Codegen.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

namespace {

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t I = static_cast<size_t>(P * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(I, Sorted.size() - 1)];
}

/// One distinct subgraph: its JSON payload, the network it came from,
/// its occurrence count, and the reference kernel text from compiling
/// the in-memory module directly (no JSON anywhere near it).
struct Subgraph {
  std::string Network;
  std::string Payload;
  std::string KernelName;
  std::string RefText;
  unsigned Count = 1;
};

} // namespace

int main() {
  const Environment Env = readEnvironment();
  Env.installDiagnostics();
  printHeader("Fig 13 serving bench: ResNet-50 + BERT subgraphs as "
              "composite JSON through CompileService::submitJson");

  NetworkModel Nets[2] = {buildResNet50(), buildBert(30522)};
  unsigned Threads = processEnv("AKG_THREADS") ? Env.Service.Threads : 4;
  AkgOptions Base = Env.Compile;

  // Serialize every distinct subgraph and build the direct-module
  // reference compile it must match bit-for-bit.
  std::vector<Subgraph> Subs;
  int64_t Elim0 = Stats::get().counter("composite.transform_ops_eliminated");
  for (const NetworkModel &N : Nets) {
    for (const LayerWorkload &L : N.Layers) {
      Subgraph S;
      S.Network = N.Name;
      S.Count = L.Count;
      S.Payload = composite::moduleToCompositeJson(
          *L.Mod, N.Name + "_" + L.Name);
      composite::FrontendResult F = composite::loadComposite(S.Payload);
      if (!F.ok()) {
        std::fprintf(stderr, "FAIL: frontend rejected %s/%s: %s\n",
                     N.Name.c_str(), L.Name.c_str(), F.Outcome.str().c_str());
        return 1;
      }
      S.KernelName = F.KernelName;
      S.RefText = cce::printKernel(
          compileWithAkg(*L.Mod, Base, F.KernelName).Kernel);
      Subs.push_back(std::move(S));
    }
  }
  int64_t ElimDuringSetup =
      Stats::get().counter("composite.transform_ops_eliminated") - Elim0;

  // The request stream: one request per subgraph occurrence, in graph
  // order (the order a training step asks for them).
  std::vector<const Subgraph *> Stream;
  for (const Subgraph &S : Subs)
    for (unsigned I = 0; I < S.Count; ++I)
      Stream.push_back(&S);
  int64_t Cap = envInt(processEnv, "AKG_BENCH_REQUESTS", 0);
  if (Cap > 0 && Stream.size() > static_cast<size_t>(Cap))
    Stream.resize(static_cast<size_t>(Cap));
  std::printf("%zu requests (%zu distinct subgraphs), %u worker threads\n\n",
              Stream.size(), Subs.size(), Threads);

  KernelCache Cache(Env.Cache);
  CompileService::Options SO = Env.Service;
  SO.Threads = Threads;
  SO.Cache = &Cache;
  // The full training-step stream outruns the default admission bound;
  // this bench measures latency, not shedding.
  SO.QueueDepth = static_cast<unsigned>(Stream.size()) + 16;
  CompileService Svc(SO);

  std::vector<std::future<CompileResult>> Futs;
  Futs.reserve(Stream.size());
  std::vector<CompileResult> Res;
  Res.reserve(Stream.size());
  double WallSecs = wallSeconds([&] {
    for (const Subgraph *S : Stream)
      Futs.push_back(Svc.submitJson(S->Payload, Base));
    for (std::future<CompileResult> &F : Futs)
      Res.push_back(F.get());
  });

  // Audit: outcomes, bit-identity against the direct-module reference,
  // cache-hit split, latency distribution.
  std::vector<double> Lat, HitLat, MissLat;
  size_t Failures = 0, Mismatches = 0, Hits = 0;
  for (size_t I = 0; I < Stream.size(); ++I) {
    const CompileResult &R = Res[I];
    if (!R.Outcome.isOk()) {
      ++Failures;
      continue;
    }
    double Ms = R.ServiceSeconds * 1e3;
    Lat.push_back(Ms);
    (R.Trace.CacheHit ? HitLat : MissLat).push_back(Ms);
    Hits += R.Trace.CacheHit;
    if (cce::printKernel(R.Kernel) != Stream[I]->RefText)
      ++Mismatches;
  }
  std::sort(Lat.begin(), Lat.end());
  std::sort(HitLat.begin(), HitLat.end());
  std::sort(MissLat.begin(), MissLat.end());

  if (Failures || Mismatches) {
    std::fprintf(stderr,
                 "FAIL: %zu failed requests, %zu kernels differ from the "
                 "direct-module compiles\n",
                 Failures, Mismatches);
    return 1;
  }

  double P50 = percentile(Lat, 0.50), P99 = percentile(Lat, 0.99),
         P999 = percentile(Lat, 0.999);
  std::printf("served %zu/%zu requests in %.2fs\n", Lat.size(),
              Stream.size(), WallSecs);
  std::printf("latency ms: p50 %.2f  p99 %.2f  p999 %.2f  max %.2f\n", P50,
              P99, P999, Lat.empty() ? 0 : Lat.back());
  std::printf("cache: %zu hits / %zu misses (hit p50 %.2fms, miss p50 "
              "%.2fms)\n",
              Hits, Lat.size() - Hits, percentile(HitLat, 0.5),
              percentile(MissLat, 0.5));
  std::printf("transform ops eliminated during serialization round-trips: "
              "%lld (expected 0: canonical payloads)\n",
              (long long)(Stats::get().counter(
                              "composite.transform_ops_eliminated") -
                          Elim0 - ElimDuringSetup));
  std::printf("all %zu kernels bit-identical to direct-module compiles\n",
              Lat.size());

  BenchJson J("fig13_composite");
  J.total("requests", double(Stream.size()));
  J.total("distinct_subgraphs", double(Subs.size()));
  J.total("threads", double(Threads));
  J.total("wall_seconds", WallSecs);
  J.total("latency_p50_ms", P50);
  J.total("latency_p99_ms", P99);
  J.total("latency_p999_ms", P999);
  J.total("cache_hits", double(Hits));
  J.total("cache_misses", double(Lat.size() - Hits));
  J.total("hit_latency_p50_ms", percentile(HitLat, 0.5));
  J.total("miss_latency_p50_ms", percentile(MissLat, 0.5));
  J.total("kernels_identical", 1);
  for (const NetworkModel &N : Nets) {
    size_t Distinct = 0;
    int64_t Requests = 0;
    for (const Subgraph &S : Subs)
      if (S.Network == N.Name) {
        ++Distinct;
        Requests += S.Count;
      }
    J.record(N.Name)
        .num("distinct_subgraphs", double(Distinct))
        .num("requests", double(Requests));
  }
  J.write();
  return 0;
}
