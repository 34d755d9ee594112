//===- examples/quickstart.cpp - AKG in five minutes ----------------------===//
//
// Declares a small fused operator in the tensor-expression DSL, compiles
// it with the full AKG pipeline, runs the generated CCE kernel on the
// DaVinci simulator and checks the result against the reference
// evaluator. AKG_* variables are read once, at start (akg/Environment.h):
// AKG_FAIL_STAGE=storage sends the compile down a fallback rung and
// AKG_STATS=1 prints the internal counters at exit.
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "sim/Simulator.h"

#include <cstdio>

using namespace akg;
using namespace akg::ir;

int main() {
  const Environment Env = readEnvironment();
  Env.installDiagnostics();

  // out = relu(a * b + c), elementwise over a (64, 96) FP16 tensor.
  Module M;
  Tensor A = M.placeholder("a", {64, 96});
  Tensor B = M.placeholder("b", {64, 96});
  Tensor C = M.placeholder("c", {64, 96});
  Tensor T = M.compute("t", {64, 96}, [&](const std::vector<Expr> &I) {
    return add(mul(tensorRead(A, I), tensorRead(B, I)), tensorRead(C, I));
  });
  M.compute("out", {64, 96}, [&](const std::vector<Expr> &I) {
    return call("relu", {tensorRead(T, I)}, DType::F16);
  });
  std::printf("--- DSL ---\n%s\n", M.str().c_str());

  // Compile: scheduling, tiling, fusion, storage management,
  // vectorization and synchronization are all automatic.
  CompileResult R = compileWithAkg(M, Env.Compile, "quickstart");
  std::printf("--- schedule tree ---\n%s\n", R.ScheduleTreeDump.c_str());
  std::printf("--- tile policy (Fig 4 language) ---\n%s\n\n",
              R.TilingPolicyText.c_str());
  std::printf("--- CCE kernel ---\n%s\n",
              cce::printKernel(R.Kernel).c_str());

  // Execute on the simulator and verify against the reference evaluator.
  const sim::MachineSpec &Spec = sim::MachineSpec::ascend910();
  double Err = verifyKernel(R.Kernel, M, Spec);
  BufferMap Bufs;
  for (const Tensor &In : M.inputs())
    Bufs[In->Name] = makeTestData(In->numElements(), 3);
  sim::SimResult S = sim::simulate(R.Kernel, Spec, &Bufs);
  std::printf("cycles: %lld, GM traffic: %lld bytes, vector util: %.1f%%, "
              "max abs error vs reference: %g\n",
              (long long)S.Cycles, (long long)S.GmTrafficBytes,
              100.0 * S.utilization(sim::Pipe::V), Err);
  return Err < 1e-3 ? 0 : 1;
}
