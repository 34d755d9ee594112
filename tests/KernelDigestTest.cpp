//===- tests/KernelDigestTest.cpp - Kernel-text digests on both targets ---===//
//
// Pins the emitted kernel text of a fixed module set on the CCE and the
// SIMT target: the first 60 generator seeds (every theme, so cube,
// reduction and multi-output lowering are all covered) plus one shape of
// each Fig 9 operator family. Each kernel's printKernel text is FNV-1a
// hashed and compared with tests/data/kernel_digests.txt. A refactor of
// the lowering must leave every digest unchanged; a change that moves
// kernels on purpose replaces the file with the table this test prints
// on a mismatch.
//
//===----------------------------------------------------------------------===//

#include "akg/Compiler.h"
#include "graph/Ops.h"
#include "target/CceIr.h"
#include "verify/Generator.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace akg;

namespace {

constexpr uint64_t NumSeeds = 60;

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::vector<std::pair<std::string, graph::ModulePtr>> digestModules() {
  using namespace graph;
  std::vector<std::pair<std::string, ModulePtr>> Out;
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed)
    Out.emplace_back("seed" + std::to_string(Seed),
                     std::make_shared<ir::Module>(
                         verify::generateModule(Seed)));
  Out.emplace_back("op1_conv", makeConv(16, 16, 14, 14, 32, 3, 3, 1, 1));
  Out.emplace_back("op2_matmul", makeMatmul(128, 128, 128));
  Out.emplace_back("op3_relu", makeRelu({16, 32, 28, 28}));
  Out.emplace_back("op4_bmm", makeBatchMatmul(16, 64, 64, 64));
  Out.emplace_back("op5_cast", makeCast({16, 64, 14, 14}));
  Out.emplace_back("op6_transpose", makeTranspose(256, 512));
  Out.emplace_back("op7_onehot", makeOneHot(128, 128));
  Out.emplace_back("op8_add", makeTensorAdd({16, 48, 24, 24}));
  Out.emplace_back("op9_bn_reduce", makeBnReduce(16, 32, 14, 14));
  Out.emplace_back("op10_bn_update", makeBnUpdate(16, 32, 14, 14));
  return Out;
}

/// "<target> <module> <digest>" lines, CCE first.
std::string digestTable() {
  std::string Table;
  for (sim::TargetKind T : {sim::TargetKind::Cce, sim::TargetKind::Simt}) {
    AkgOptions Opts;
    Opts.Target = T;
    for (const auto &[Name, M] : digestModules()) {
      CompileResult R = compileWithAkg(*M, Opts, Name);
      char Line[128];
      std::snprintf(Line, sizeof(Line), "%s %s %016" PRIx64 "\n",
                    sim::targetName(T), Name.c_str(),
                    fnv1a(cce::printKernel(R.Kernel)));
      Table += Line;
    }
  }
  return Table;
}

TEST(KernelDigest, BothTargetsMatchCheckedInTable) {
  std::ifstream In(std::string(AKG_TEST_DATA_DIR) + "/kernel_digests.txt");
  ASSERT_TRUE(In) << "missing tests/data/kernel_digests.txt";
  std::stringstream Want;
  Want << In.rdbuf();
  std::string Got = digestTable();
  EXPECT_EQ(Got, Want.str())
      << "kernel text moved; if intended, replace "
         "tests/data/kernel_digests.txt with:\n"
      << Got;
}

} // namespace
