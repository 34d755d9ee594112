//===- bench/shape_stream.cpp - Dynamic-shape serving under a Zipf stream -===//
//
// Replays a seeded Zipf-distributed stream of dynamic-shape compile
// requests (eltwise / row-reduce / GEMM families, extents 1..1024) through
// the CompileService three times:
//
//   1. baseline  - bucketing off, N threads: per-exact-shape caching,
//                  which doubles as the fresh per-shape compile reference
//                  for the correctness gate;
//   2. bucketed  - dynamic shapes on, N threads: one skeleton per shape
//                  bucket, concrete extents late-bound (DESIGN.md 4k);
//   3. bucketed  - dynamic shapes on, 1 thread: output bit hashes must
//                  match run 2 exactly (1-vs-N determinism).
//
// Hard gates (non-zero exit on failure):
//   - every distinct shape's bound output matches the evaluator reference
//     AND the per-shape fresh compile does too (tolerance 2e-2);
//   - bucketed effective hit rate >= 5x the per-exact-shape hit rate;
//   - bucketed serving wall < baseline wall;
//   - 1-thread and N-thread bucketed runs are bit-identical.
//
// Knobs: AKG_SEED (default 42), AKG_BENCH_REQUESTS (default 300, min
// 200), AKG_ZIPF_S (default 0.5), AKG_BENCH_THREADS (default 4).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "akg/Environment.h"
#include "sim/Compare.h"
#include "sim/DynRun.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace akg;

namespace {

constexpr double kTol = 2e-2;

//===----------------------------------------------------------------------===//
// Request-stream generation
//===----------------------------------------------------------------------===//

/// Deterministic 64-bit LCG; top bits feed a uniform double in [0, 1).
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  double next() {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return double(State >> 11) * (1.0 / 9007199254740992.0);
  }
};

/// Zipf sampler over extents 1..Universe (rank == extent, so small
/// extents are the popular ones). A mild exponent keeps the stream
/// mostly-distinct: exact-shape caching sees few repeats while every
/// request still lands in one of a handful of buckets.
class ZipfExtents {
public:
  ZipfExtents(int64_t Universe, double S) : Cdf(size_t(Universe)) {
    double Acc = 0;
    for (int64_t K = 1; K <= Universe; ++K)
      Cdf[size_t(K - 1)] = Acc += 1.0 / std::pow(double(K), S);
    for (double &C : Cdf)
      C /= Acc;
  }
  int64_t sample(Lcg &R) const {
    double U = R.next();
    auto It = std::lower_bound(Cdf.begin(), Cdf.end(), U);
    return int64_t(It - Cdf.begin()) + 1;
  }

private:
  std::vector<double> Cdf;
};

enum class Family { Eltwise, RowSum, Gemm };

const char *familyName(Family F) {
  switch (F) {
  case Family::Eltwise:
    return "eltwise";
  case Family::RowSum:
    return "rowsum";
  case Family::Gemm:
    return "gemm";
  }
  return "?";
}

/// relu(a + b) over [N, 32] with dim 0 dynamic under symbol "n".
std::shared_ptr<ir::Module> makeEltwise(int64_t N) {
  auto M = std::make_shared<ir::Module>();
  ir::Tensor A = M->placeholder("a", {N, 32}, ir::DType::F32);
  ir::Tensor B = M->placeholder("b", {N, 32}, ir::DType::F32);
  M->compute(
      "out", {N, 32},
      [&](const std::vector<ir::Expr> &I) {
        return ir::call(
            "relu", {ir::add(ir::tensorRead(A, I), ir::tensorRead(B, I))},
            ir::DType::F32);
      },
      ir::DType::F32);
  M->markDynamicDim(A, 0, "n");
  M->markDynamicDim(B, 0, "n");
  return M;
}

/// row[i] = sum_c a[i, c] over [N, 24]: reduce axis static, rows dynamic.
std::shared_ptr<ir::Module> makeRowSum(int64_t N) {
  auto M = std::make_shared<ir::Module>();
  ir::Tensor A = M->placeholder("a", {N, 24}, ir::DType::F32);
  ir::IterVar K = M->reduceAxis(24, "c");
  M->compute(
      "row", {N},
      [&](const std::vector<ir::Expr> &I) {
        return ir::reduce(ir::ReduceKind::Sum,
                          ir::tensorRead(A, {I[0], ir::var("c")}), {K});
      },
      ir::DType::F32);
  M->markDynamicDim(A, 0, "n");
  return M;
}

/// GEMM with dynamic M: c[i,j] = sum_k a[i,k] * b[k,j], K = Cols = 16.
std::shared_ptr<ir::Module> makeGemm(int64_t Rows) {
  auto M = std::make_shared<ir::Module>();
  ir::Tensor A = M->placeholder("a", {Rows, 16}, ir::DType::F16);
  ir::Tensor B = M->placeholder("b", {16, 16}, ir::DType::F16);
  ir::IterVar KV = M->reduceAxis(16, "k");
  M->compute(
      "c", {Rows, 16},
      [&](const std::vector<ir::Expr> &I) {
        return ir::reduce(ir::ReduceKind::Sum,
                          ir::mul(ir::tensorRead(A, {I[0], ir::var("k")}),
                                  ir::tensorRead(B, {ir::var("k"), I[1]})),
                          {KV});
      },
      ir::DType::F16);
  M->markDynamicDim(A, 0, "m");
  return M;
}

struct Request {
  Family Fam;
  int64_t Extent;
  std::shared_ptr<ir::Module> Mod;
  std::string Name;
};

std::vector<Request> makeStream(unsigned Count, uint64_t Seed, double ZipfS) {
  Lcg Rng(Seed);
  ZipfExtents Zipf(1024, ZipfS);
  std::vector<Request> Stream;
  Stream.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    Family F = static_cast<Family>(I % 3);
    int64_t N = Zipf.sample(Rng);
    std::shared_ptr<ir::Module> M;
    switch (F) {
    case Family::Eltwise:
      M = makeEltwise(N);
      break;
    case Family::RowSum:
      M = makeRowSum(N);
      break;
    case Family::Gemm:
      M = makeGemm(N);
      break;
    }
    Stream.push_back(Request{F, N, std::move(M),
                             std::string("stream/") + familyName(F) + "_n" +
                                 std::to_string(N) + "#" +
                                 std::to_string(I)});
  }
  return Stream;
}

//===----------------------------------------------------------------------===//
// One service run over the stream
//===----------------------------------------------------------------------===//

struct RunResult {
  std::vector<CompileResult> Results; // request order
  KernelCacheStats Cache;
  double WallSeconds = 0;
  std::vector<double> Latencies; // ServiceSeconds, request order
};

RunResult replay(const std::vector<Request> &Stream, bool DynShape,
                 unsigned Threads) {
  // Hermetic: each run gets its own cold in-memory cache with the default
  // buckets and no disk tier, and the service runs without chaos.
  KernelCacheConfig CC;
  CC.DynShape = DynShape;
  KernelCache Cache(CC);
  RunResult R;
  R.WallSeconds = bench::wallSeconds([&] {
    CompileService::Options SO;
    SO.Threads = Threads;
    SO.QueueDepth = unsigned(Stream.size()) + 16;
    SO.Cache = &Cache;
    CompileService Service(SO);
    std::vector<std::future<CompileResult>> Futures;
    Futures.reserve(Stream.size());
    for (const Request &Q : Stream)
      Futures.push_back(Service.submit(*Q.Mod, AkgOptions{}, Q.Name));
    for (auto &F : Futures)
      R.Results.push_back(F.get());
  });
  R.Cache = Cache.stats();
  for (const CompileResult &C : R.Results)
    R.Latencies.push_back(C.ServiceSeconds);
  return R;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Idx = P / 100.0 * double(V.size() - 1);
  size_t Lo = size_t(Idx);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Idx - double(Lo));
}

bool failGate(const char *What) {
  std::fprintf(stderr, "shape_stream GATE FAILED: %s\n", What);
  return false;
}

} // namespace

int main() {
  readEnvironment().installDiagnostics();
  uint64_t Seed = uint64_t(envInt(processEnv, "AKG_SEED", 42));
  unsigned Requests = unsigned(envInt(processEnv, "AKG_BENCH_REQUESTS", 300));
  unsigned Threads = unsigned(envInt(processEnv, "AKG_BENCH_THREADS", 4));
  double ZipfS = 0.5;
  if (auto S = processEnv("AKG_ZIPF_S")) {
    char *End = nullptr;
    double V = std::strtod(S->c_str(), &End);
    if (End && *End == '\0' && V >= 0 && V <= 4)
      ZipfS = V;
  }
  if (Requests < 200) {
    std::fprintf(stderr, "shape_stream needs >= 200 requests (got %u)\n",
                 Requests);
    return 1;
  }
  bench::printHeader("Dynamic-shape serving: Zipf shape stream, bucketed "
                     "reuse vs per-exact-shape caching");
  std::vector<Request> Stream = makeStream(Requests, Seed, ZipfS);

  // First occurrence of every distinct (family, extent): the correctness
  // and determinism gates check each distinct shape exactly once.
  std::map<std::pair<int, int64_t>, unsigned> FirstOf;
  for (unsigned I = 0; I < Stream.size(); ++I)
    FirstOf.emplace(std::make_pair(int(Stream[I].Fam), Stream[I].Extent), I);
  if (FirstOf.size() < 50) {
    std::fprintf(stderr, "shape_stream needs >= 50 distinct shapes (got %zu)\n",
                 FirstOf.size());
    return 1;
  }

  std::printf("stream: %u requests, %zu distinct shapes, zipf s=%.2f, "
              "seed=%llu, %u threads\n\n",
              Requests, FirstOf.size(), ZipfS,
              static_cast<unsigned long long>(Seed), Threads);

  std::printf("run 1/3: baseline (bucketing off, per-exact-shape cache)...\n");
  RunResult Base = replay(Stream, /*DynShape=*/false, Threads);
  std::printf("run 2/3: bucketed (%u threads)...\n", Threads);
  RunResult Buck = replay(Stream, /*DynShape=*/true, Threads);
  std::printf("run 3/3: bucketed (1 thread, determinism reference)...\n");
  RunResult Seq = replay(Stream, /*DynShape=*/true, 1);

  //===--------------------------------------------------------------------===//
  // Gates
  //===--------------------------------------------------------------------===//
  bool Ok = true;

  // Correctness: for every distinct shape, the bound (bucketed) result and
  // the per-shape fresh compile must both match the evaluator reference.
  double MaxErrBound = 0, MaxErrFresh = 0;
  unsigned Checked = 0;
  bool Deterministic = true;
  for (const auto &[Key, Idx] : FirstOf) {
    const Request &Q = Stream[Idx];
    uint64_t BitsN = 0, Bits1 = 0;
    sim::FunctionalDiff DB = sim::diffBoundAgainstReference(
        Buck.Results[Idx], *Q.Mod, bench::machine(), /*Seed=*/1, nullptr,
        &BitsN);
    sim::FunctionalDiff DS = sim::diffBoundAgainstReference(
        Seq.Results[Idx], *Q.Mod, bench::machine(), /*Seed=*/1, nullptr,
        &Bits1);
    sim::FunctionalDiff DF = sim::diffBoundAgainstReference(
        Base.Results[Idx], *Q.Mod, bench::machine(), /*Seed=*/1);
    MaxErrBound = std::max(MaxErrBound, DB.MaxAbsErr);
    MaxErrFresh = std::max(MaxErrFresh, DF.MaxAbsErr);
    ++Checked;
    if (!DB.within(kTol)) {
      std::fprintf(stderr, "  %s: bound output diverges: %s\n",
                   Q.Name.c_str(), DB.str().c_str());
      Ok = failGate("bucketed kernel does not match the reference");
    }
    if (!DF.within(kTol)) {
      std::fprintf(stderr, "  %s: fresh compile diverges: %s\n",
                   Q.Name.c_str(), DF.str().c_str());
      Ok = failGate("per-shape fresh compile does not match the reference");
    }
    if (BitsN != Bits1) {
      std::fprintf(stderr, "  %s: 1-thread and %u-thread outputs differ\n",
                   Q.Name.c_str(), Threads);
      Deterministic = false;
    }
  }
  if (!Deterministic)
    Ok = failGate("bucketed serving is not 1-vs-N-thread deterministic");

  // Reuse: bucketed effective hit rate must beat per-exact-shape caching
  // by at least 5x, and the serving wall must drop.
  double BaseRate = Base.Cache.hitRate();
  double BuckRate = Buck.Cache.hitRate();
  double Ratio = BaseRate > 0 ? BuckRate / BaseRate
                              : (BuckRate > 0 ? 1e9 : 0);
  if (Ratio < 5.0)
    Ok = failGate("effective hit rate is not >= 5x the exact-shape baseline");
  if (!(Buck.WallSeconds < Base.WallSeconds))
    Ok = failGate("bucketed serving wall is not below the baseline wall");

  //===--------------------------------------------------------------------===//
  // Report
  //===--------------------------------------------------------------------===//
  std::printf("\n%-28s %12s %12s\n", "", "exact-shape", "bucketed");
  std::printf("%-28s %12.3f %12.3f\n", "serving wall (s)", Base.WallSeconds,
              Buck.WallSeconds);
  std::printf("%-28s %12.4f %12.4f\n", "effective hit rate", BaseRate,
              BuckRate);
  std::printf("%-28s %12lld %12lld\n", "compiles (cache misses)",
              static_cast<long long>(Base.Cache.Misses),
              static_cast<long long>(Buck.Cache.Misses));
  std::printf("%-28s %12.5f %12.5f\n", "p50 latency (s)",
              percentile(Base.Latencies, 50), percentile(Buck.Latencies, 50));
  std::printf("%-28s %12.5f %12.5f\n", "p99 latency (s)",
              percentile(Base.Latencies, 99), percentile(Buck.Latencies, 99));
  std::printf("%-28s %12s %12lld\n", "dynamic binds", "-",
              static_cast<long long>(Buck.Cache.DynBinds));
  std::printf("%-28s %12s %12lld\n", "dynamic fallbacks", "-",
              static_cast<long long>(Buck.Cache.DynFallbacks));
  std::printf("\nhit-rate ratio: %.2fx (gate: >= 5x)   correctness: %u "
              "distinct shapes, max |err| bound %.3g fresh %.3g (tol %g)   "
              "determinism: %s\n",
              Ratio, Checked, MaxErrBound, MaxErrFresh, kTol,
              Deterministic ? "bit-identical" : "DIVERGED");

  bench::BenchJson J("shape_stream");
  J.total("requests", Requests);
  J.total("distinct_shapes", double(FirstOf.size()));
  J.total("threads", Threads);
  J.total("zipf_s", ZipfS);
  J.total("exact_hit_rate", BaseRate);
  J.total("bucketed_hit_rate", BuckRate);
  J.total("hit_rate_ratio", Ratio);
  J.total("exact_wall_seconds", Base.WallSeconds);
  J.total("bucketed_wall_seconds", Buck.WallSeconds);
  J.total("exact_p50_seconds", percentile(Base.Latencies, 50));
  J.total("exact_p99_seconds", percentile(Base.Latencies, 99));
  J.total("bucketed_p50_seconds", percentile(Buck.Latencies, 50));
  J.total("bucketed_p99_seconds", percentile(Buck.Latencies, 99));
  J.total("exact_compiles", double(Base.Cache.Misses));
  J.total("bucketed_compiles", double(Buck.Cache.Misses));
  J.total("dyn_binds", double(Buck.Cache.DynBinds));
  J.total("dyn_fallbacks", double(Buck.Cache.DynFallbacks));
  J.total("correctness_checked", Checked);
  J.total("correctness_max_abs_err", MaxErrBound);
  J.total("determinism_ok", Deterministic ? 1 : 0);
  J.total("gates_ok", Ok ? 1 : 0);
  for (Family F :
       {Family::Eltwise, Family::RowSum, Family::Gemm}) {
    unsigned Count = 0;
    std::map<int64_t, unsigned> Extents;
    for (const Request &Q : Stream)
      if (Q.Fam == F) {
        ++Count;
        ++Extents[Q.Extent];
      }
    J.record(familyName(F))
        .num("requests", Count)
        .num("distinct_extents", double(Extents.size()));
  }
  J.write();

  if (!Ok)
    return 1;
  std::printf("all gates passed\n");
  return 0;
}
