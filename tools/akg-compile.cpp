//===- tools/akg-compile.cpp - One-shot compile CLI -----------------------===//
//
// Compiles a single named operator through the full AKG pipeline and
// prints what happened: tile sizes, degradation ladder, and the per-pass
// compile trace summary. It reads AKG_TRACE / AKG_FAIL_STAGE / AKG_TARGET
// / AKG_STATS at start (akg/Environment.h), which makes this the driver
// for the CI trace-schema check (tools/check_trace.py):
//
//   AKG_TRACE=trace.jsonl akg-compile --op matmul
//   AKG_FAIL_STAGE=storage AKG_TRACE=trace.jsonl akg-compile --op conv
//
// With --json <file|-> the input is a composite-subgraph JSON payload
// (src/composite) instead of a built-in op: the payload is parsed,
// normalized (transform-op elimination), and compiled. Malformed payloads
// exit 1 after printing every structured diagnostic; they never crash the
// driver.
//
//   akg-compile --json fused_subgraph.json --dump-kernel
//   cat payload.json | akg-compile --json -
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "composite/Composite.h"
#include "graph/Ops.h"
#include "sim/Simulator.h"
#include "target/CceIr.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace akg;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: akg-compile [--op matmul|conv|add|bn] [--json <file|->]\n"
      "                   [--target cce|simt] [--dump-kernel]\n"
      "                   [--dump-normalized] [--help]\n"
      "\n"
      "Compiles one Fig 9 operator (--op) or a composite-subgraph JSON\n"
      "payload (--json, '-' reads stdin) with the AKG pipeline and prints\n"
      "the degradation report and compile trace. A top-level JSON array\n"
      "is a batch: every entry compiles, any failure exits 1.\n"
      "--target selects the backend (default AKG_TARGET, else cce; a JSON\n"
      "payload's own \"target\" key overrides both per entry).\n"
      "--dump-normalized prints the canonical payload after transform-op\n"
      "elimination. Environment:\n"
      "  AKG_TRACE=<path|->   dump the trace (JSONL / stderr text)\n"
      "  AKG_FAIL_STAGE=<s>   force stage <s> onto its fallback\n"
      "  AKG_TARGET=<t>       default compile target (cce|simt)\n");
}

graph::ModulePtr makeOp(const std::string &Op) {
  if (Op == "matmul")
    return graph::makeMatmul(512, 512, 512);
  if (Op == "conv")
    return graph::makeConv(16, 32, 14, 14, 32, 3, 3, 1, 1);
  if (Op == "add")
    return graph::makeTensorAdd({16, 48, 24, 24});
  if (Op == "bn")
    return graph::makeBnReduce(16, 32, 14, 14);
  return nullptr;
}

bool readInput(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Out = SS.str();
    return true;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

void printResult(const CompileResult &R, const std::string &Name,
                 bool DumpKernel) {
  std::string Tiles;
  for (int64_t T : R.TileSizes)
    Tiles += (Tiles.empty() ? "" : " ") + std::to_string(T);
  std::printf("akg-compile: op=%s tiles=[%s] fused_producers=%u\n",
              Name.c_str(), Tiles.c_str(), R.FusedProducers);
  if (R.Degradation.Steps.empty())
    std::printf("degradation: clean compile\n");
  else
    std::printf("%s", R.Degradation.str().c_str());
  std::printf("%s", R.Trace.str().c_str());
  if (DumpKernel)
    std::printf("%s", cce::printKernel(R.Kernel).c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  const Environment Env = readEnvironment();
  Env.installDiagnostics();
  std::string Op = "matmul";
  std::string JsonPath;
  bool DumpKernel = false, DumpNormalized = false;
  AkgOptions Opts = Env.Compile;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--op") && I + 1 < Argc) {
      Op = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--target") && I + 1 < Argc) {
      if (!sim::parseTargetName(Argv[++I], Opts.Target)) {
        std::fprintf(stderr, "akg-compile: unknown target '%s'\n", Argv[I]);
        usage();
        return 2;
      }
    } else if (!std::strcmp(Argv[I], "--dump-kernel")) {
      DumpKernel = true;
    } else if (!std::strcmp(Argv[I], "--dump-normalized")) {
      DumpNormalized = true;
    } else if (!std::strcmp(Argv[I], "--help") || !std::strcmp(Argv[I], "-h")) {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }

  if (!JsonPath.empty()) {
    std::string Text;
    if (!readInput(JsonPath, Text)) {
      std::fprintf(stderr, "akg-compile: cannot read '%s'\n",
                   JsonPath.c_str());
      return 2;
    }
    // A top-level array is a batch: compile every entry, report each one,
    // and fail the run if any entry fails.
    composite::BatchSplit B = composite::splitBatchPayload(Text);
    if (!B.ok()) {
      std::fprintf(stderr, "akg-compile: batch payload rejected (%s)\n",
                   errCodeName(B.Outcome.code()));
      for (const composite::Diag &D : B.Diags)
        std::fprintf(stderr, "  %s\n", D.str().c_str());
      return 1;
    }
    std::vector<std::string> Entries =
        B.IsBatch ? std::move(B.Entries) : std::vector<std::string>{Text};
    if (B.IsBatch)
      std::printf("batch: %zu entries\n", Entries.size());
    int Failed = 0;
    for (size_t I = 0; I < Entries.size(); ++I) {
      composite::FrontendResult F = composite::loadComposite(Entries[I]);
      if (!F.ok()) {
        std::fprintf(stderr,
                     "akg-compile: composite payload%s rejected (%s)\n",
                     B.IsBatch ? (" [" + std::to_string(I) + "]").c_str()
                               : "",
                     errCodeName(F.Outcome.code()));
        for (const composite::Diag &D : F.Diags)
          std::fprintf(stderr, "  %s\n", D.str().c_str());
        ++Failed;
        continue;
      }
      std::printf(
          "composite: kernel=%s ops=%zu transform_ops_eliminated=%u\n",
          F.KernelName.c_str(), F.Normalized.Ops.size(),
          F.TransformOpsEliminated);
      if (DumpNormalized)
        std::printf(
            "%s\n", composite::serializeComposite(F.Normalized, true).c_str());
      // The payload's own "target" key wins over --target, mirroring the
      // compile service's submitJson.
      AkgOptions EntryOpts = Opts;
      if (!F.Normalized.Target.empty())
        sim::parseTargetName(F.Normalized.Target, EntryOpts.Target);
      CompileResult R = compileWithAkg(*F.Mod, EntryOpts, F.KernelName);
      printResult(R, F.KernelName, DumpKernel);
      if (!R.Outcome.isOk())
        ++Failed;
    }
    return Failed ? 1 : 0;
  }

  graph::ModulePtr M = makeOp(Op);
  if (!M) {
    std::fprintf(stderr, "akg-compile: unknown op '%s'\n", Op.c_str());
    usage();
    return 2;
  }

  CompileResult R = compileWithAkg(*M, Opts, Op);
  printResult(R, Op, DumpKernel);
  return 0;
}
