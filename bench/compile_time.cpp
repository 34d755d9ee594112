//===- bench/compile_time.cpp - Polyhedral-core compile-time bench --------===//
//
// Compile-only microbench for the polyhedral core's hot paths (int64
// simplex, sample-point caching, redundancy prefiltering, Farkas dedup).
// Compiles a representative subset of the Fig 9 operator families through
// the full AKG pipeline, records wall time per family plus one simulated
// cycle count (so a perf regression that changes generated code is visible
// as a cycle diff), and emits the fast-path counters into the JSON totals.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "akg/Environment.h"
#include "graph/Ops.h"
#include "support/Stats.h"

#include <map>

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

namespace {

struct OpFamily {
  const char *Name;
  std::vector<ModulePtr> Shapes;
};

// A spread of the heavier Fig 9 shape configs: enough LP/FM volume that
// the gated wall total is well clear of timer noise, without the full
// fig09 runtime (which also measures the three non-AKG pipelines).
std::vector<OpFamily> buildFamilies() {
  std::vector<OpFamily> F;
  {
    OpFamily C{"op1_conv", {}};
    int64_t Cfg[3][5] = {
        {32, 28, 28, 32, 3}, {64, 14, 14, 64, 3}, {64, 7, 7, 128, 3}};
    for (auto &S : Cfg)
      C.Shapes.push_back(
          makeConv(16, S[0], S[1], S[2], S[3], S[4], S[4], 1, S[4] / 2));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op2_matmul", {}};
    int64_t Cfg[3][3] = {{512, 512, 512}, {1024, 1024, 256}, {768, 768, 768}};
    for (auto &S : Cfg)
      C.Shapes.push_back(makeMatmul(S[0], S[1], S[2]));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op4_bmm", {}};
    int64_t Cfg[3][3] = {{128, 128, 128}, {64, 192, 64}, {192, 64, 64}};
    for (auto &S : Cfg)
      C.Shapes.push_back(makeBatchMatmul(16, S[0], S[1], S[2]));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op8_add", {}};
    for (int I = 0; I < 3; ++I)
      C.Shapes.push_back(makeTensorAdd({16, 48 + 24 * I, 24, 24}));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op9_bn_reduce", {}};
    for (int I = 0; I < 3; ++I)
      C.Shapes.push_back(makeBnReduce(16, 32 + 16 * I, 14, 14));
    F.push_back(std::move(C));
  }
  return F;
}

} // namespace

int main() {
  const Environment Env = readEnvironment();
  Env.installDiagnostics();
  printHeader("Compile-time microbench: AKG pipeline wall time per family "
              "(polyhedral-core fast paths; lower is better)");
  std::printf("%-16s %14s %14s\n", "operator", "compile [s]", "akg cycles");
  BenchJson J("compile_time");
  double TotalSeconds = 0;
  // Cached mode (CI cold-process -> warm-disk -> warm-memory job): when
  // AKG_CACHE_DIR is set, compile through the tiered kernel cache so a
  // first run populates the disk store and a second process serves every
  // first request from disk. The committed baseline is always recorded
  // WITHOUT a cache dir, so the gated numbers measure real compiles.
  const bool Cached = !Env.Cache.DiskDir.empty();
  KernelCache Cache(Env.Cache);
  if (Cached)
    std::printf("cache mode: AKG_CACHE_DIR=%s (tiered memory -> disk)\n",
                Env.Cache.DiskDir.c_str());
  // One AKG compile of these shapes is a few ms; repeat so the gated wall
  // total sits well above timer/scheduler noise. The wall covers compiles
  // only; the (deterministic) simulation runs outside the timer purely to
  // expose code changes as a cycle diff.
  constexpr int Reps = 10;
  // Per-pass wall-time breakdown aggregated from every compile's trace:
  // reported as stage_wall.* totals so bench_diff.py can localize a
  // compile-time regression to its pipeline stage (informational, not
  // gated - the gate stays on compile_wall_seconds).
  std::map<std::string, double> StageWall;
  for (const OpFamily &Fam : buildFamilies()) {
    std::vector<CompileResult> Results;
    // Per-family breakdown too, so a per-op ast_gen regression is visible
    // in the record instead of being averaged into the figure total.
    std::map<std::string, double> FamStageWall;
    double FamSeconds = wallSeconds([&] {
      for (int R = 0; R < Reps; ++R)
        for (const ModulePtr &M : Fam.Shapes) {
          CompileResult CR =
              Cached ? Cache.compileOrGet(*M, Env.Compile, Fam.Name)
                     : compileWithAkg(*M, Env.Compile, Fam.Name);
          for (const TraceEvent &E : CR.Trace.Events)
            FamStageWall[E.Pass] += E.WallSeconds;
          if (R == 0)
            Results.push_back(std::move(CR));
        }
    });
    int64_t Cycles = 0;
    for (const CompileResult &CR : Results)
      Cycles += simCycles(CR.Kernel);
    TotalSeconds += FamSeconds;
    auto &Rec = J.record(Fam.Name)
                    .num("compile_wall_seconds", FamSeconds)
                    .num("akg_cycles", double(Cycles));
    for (const auto &[Pass, Seconds] : FamStageWall) {
      Rec.num("stage_wall." + Pass, Seconds);
      StageWall[Pass] += Seconds;
    }
    std::printf("%-16s %14.3f %14lld\n", Fam.Name, FamSeconds,
                static_cast<long long>(Cycles));
  }
  std::printf("total compile wall: %.3fs\n", TotalSeconds);
  J.total("compile_wall_seconds", TotalSeconds);
  for (const auto &[Pass, Seconds] : StageWall) {
    J.total("stage_wall." + Pass, Seconds);
    std::printf("stage_wall.%-24s %10.3fs\n", Pass.c_str(), Seconds);
  }
  // Fast-path effectiveness counters; a silent fall-back-to-slow-path
  // regression shows up here (and in the gated wall time) before it shows
  // up anywhere else.
  const char *Counters[] = {"lp.int64_fastpath", "lp.rational_fallback",
                            "lp.solves_avoided_sample",
                            "affine.redundant_prefiltered",
                            "affine.implied_eq", "affine.empty_syntactic",
                            "pluto.master_dedup", "affine.dup_constraint",
                            "astgen.proj_memo_hit", "astgen.proj_memo_miss",
                            "astgen.implied_memo_hit",
                            "astgen.implied_syntactic", "astgen.implied_lp",
                            "astgen.lp_avoided",
                            "astgen.incremental_refinements"};
  for (const char *K : Counters) {
    J.total(K, double(Stats::get().counter(K)));
    std::printf("%-36s %lld\n", K,
                static_cast<long long>(Stats::get().counter(K)));
  }
  if (Cached) {
    // Where the requests were actually served from (the CI cold -> warm
    // job asserts hit_disk > 0 on the second process).
    KernelCacheStats CS = Cache.stats();
    J.total("cache.hit_memory", double(CS.Hits));
    J.total("cache.hit_disk", double(CS.DiskHits));
    J.total("cache.hit_coalesced", double(CS.Coalesced));
    J.total("cache.miss", double(CS.Misses - CS.DiskHits));
    std::printf("cache.hit_memory %lld  cache.hit_disk %lld  "
                "cache.hit_coalesced %lld  cache.miss %lld\n",
                static_cast<long long>(CS.Hits),
                static_cast<long long>(CS.DiskHits),
                static_cast<long long>(CS.Coalesced),
                static_cast<long long>(CS.Misses - CS.DiskHits));
  }
  J.write();
  return 0;
}
