//===- bench/ablation_fusion.cpp - Ablation: post-tiling fusion -----------===//
//
// Design-choice ablation (Sec 4.3 / Sec 8): the reverse strategy's
// post-tiling fusion versus classical per-cluster tiling. With fusion off,
// every intermediate tensor round-trips through global memory; the GM
// traffic and cycle deltas below are the quantity the paper attributes
// the subgraph wins to.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Ops.h"

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

namespace {

/// The Fig 3 running example at feature-map scale: a bias-add producer
/// feeding a convolution through overlapped reads - the case classical
/// per-cluster tiling cannot keep on chip.
ModulePtr convChain(int64_t H, int64_t W) {
  auto M = std::make_shared<ir::Module>();
  using namespace ir;
  Tensor A = M->placeholder("A", {H, W});
  Tensor B = M->placeholder("B", {3, 3});
  Tensor A2 = M->compute("A2", {H, W}, [&](const std::vector<Expr> &I) {
    return add(tensorRead(A, I), floatImm(0.5));
  });
  IterVar Kh = M->reduceAxis(3, "kh");
  IterVar Kw = M->reduceAxis(3, "kw");
  Tensor C = M->compute("C", {H - 2, W - 2},
                        [&](const std::vector<Expr> &I) {
                          return reduce(
                              ReduceKind::Sum,
                              mul(tensorRead(A2, {add(I[0], var("kh")),
                                                  add(I[1], var("kw"))}),
                                  tensorRead(B, {var("kh"), var("kw")})),
                              {Kh, Kw});
                        });
  M->compute("D", {H - 2, W - 2}, [&](const std::vector<Expr> &I) {
    return call("relu", {tensorRead(C, I)}, DType::F16);
  });
  return M;
}

/// Stencil producer chain: shifted reads break pre-tiling fusion.
ModulePtr stencilChain(int64_t N) {
  auto M = std::make_shared<ir::Module>();
  using namespace ir;
  Tensor A = M->placeholder("A", {N, N});
  Tensor B = M->compute("B", {N, N}, [&](const std::vector<Expr> &I) {
    return mul(tensorRead(A, I), floatImm(0.25));
  });
  M->compute("C", {N - 2, N}, [&](const std::vector<Expr> &I) {
    return add(tensorRead(B, {I[0], I[1]}),
               tensorRead(B, {add(I[0], intImm(2)), I[1]}));
  });
  return M;
}

} // namespace

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Ablation: post-tiling fusion (reverse strategy) on/off");
  ModulePtr Cases[] = {convChain(512, 512), stencilChain(768),
                       makeSubgraph3(4), makeSubgraph5(1)};
  const char *Names[] = {"conv_chain", "stencil", "subgraph3", "subgraph5"};
  std::printf("%-12s %14s %14s %9s %12s %12s\n", "case", "fused cyc",
              "unfused cyc", "speedup", "fused GM B", "unfused GM B");
  for (int I = 0; I < 4; ++I) {
    AkgOptions On;
    CompileResult RF = compileWithAkg(*Cases[I], On, Names[I]);
    sim::SimResult SF = simFull(RF.Kernel);
    AkgOptions Off;
    Off.EnablePostTilingFusion = false;
    CompileResult RU = compileWithAkg(*Cases[I], Off, Names[I]);
    sim::SimResult SU = simFull(RU.Kernel);
    std::printf("%-12s %14lld %14lld %8.2fx %12lld %12lld\n", Names[I],
                (long long)SF.Cycles, (long long)SU.Cycles,
                double(SU.Cycles) / double(SF.Cycles),
                (long long)SF.GmTrafficBytes,
                (long long)SU.GmTrafficBytes);
  }
  return 0;
}
