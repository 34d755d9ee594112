//===- tools/akg-fuzz.cpp - Differential fuzzing driver -------------------===//
//
// Command-line front end of the verify subsystem (DESIGN.md 4e): sweeps a
// seed range through the structured module generator, runs the
// config-matrix oracle on every module, and on a failure invokes the
// automatic reducer and writes a ready-to-paste C++ repro plus a corpus
// line. Exit code 0 = all seeds clean, 1 = at least one mismatch.
//
//   akg-fuzz --seeds 200                 # seeds 0..199, full matrix
//   akg-fuzz --start 1000 --seeds 50     # seeds 1000..1049
//   akg-fuzz --seed 42 --dump            # one seed, print module + report
//   akg-fuzz --seeds 20 --matrix quick   # PR-smoke subset
//   akg-fuzz --seeds 30 --dynshape       # dynamic-shape theme only
//
// Environment: AKG_FUZZ_SEEDS / AKG_FUZZ_START / AKG_FUZZ_MATRIX /
// AKG_FUZZ_DYNSHAPE provide defaults for CI wrappers; AKG_THREADS sizes
// the determinism sweep. The oracle's configs are explicit options, so no
// other AKG_* variable changes what it compiles.
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "ir/ModuleUtils.h"
#include "verify/Generator.h"
#include "verify/Oracle.h"
#include "verify/Reducer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace akg;

namespace {

struct Args {
  uint64_t Start = 0;
  uint64_t Seeds = 100;
  int64_t OneSeed = -1;
  verify::MatrixLevel Level = verify::MatrixLevel::Full;
  std::string ReproDir = ".";
  std::string CorpusFile; // append corpus lines here when set
  bool Dump = false;
  bool KeepGoing = false; // continue after the first failing seed
  /// Generate every seed under Theme::DynShape (not part of the Auto
  /// cycle) so the dynshape_bucketed/killswitch oracle configs fire.
  bool DynShape = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: akg-fuzz [--seeds N] [--start S] [--seed S] "
      "[--matrix full|quick]\n"
      "                [--repro-dir DIR] [--corpus FILE] [--dump] "
      "[--keep-going]\n"
      "                [--dynshape]\n");
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  A.Seeds = uint64_t(envInt(processEnv, "AKG_FUZZ_SEEDS", int64_t(A.Seeds)));
  A.Start = uint64_t(envInt(processEnv, "AKG_FUZZ_START", 0));
  if (auto M = processEnv("AKG_FUZZ_MATRIX"))
    A.Level = (*M == "quick") ? verify::MatrixLevel::Quick
                              : verify::MatrixLevel::Full;
  A.DynShape = envInt(processEnv, "AKG_FUZZ_DYNSHAPE", 0) != 0;
  for (int I = 1; I < Argc; ++I) {
    std::string S = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (S == "--seeds") {
      const char *V = Next();
      if (!V)
        return false;
      A.Seeds = std::strtoull(V, nullptr, 10);
    } else if (S == "--start") {
      const char *V = Next();
      if (!V)
        return false;
      A.Start = std::strtoull(V, nullptr, 10);
    } else if (S == "--seed") {
      const char *V = Next();
      if (!V)
        return false;
      A.OneSeed = std::strtoll(V, nullptr, 10);
    } else if (S == "--matrix") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "quick") == 0)
        A.Level = verify::MatrixLevel::Quick;
      else if (std::strcmp(V, "full") == 0)
        A.Level = verify::MatrixLevel::Full;
      else
        return false;
    } else if (S == "--repro-dir") {
      const char *V = Next();
      if (!V)
        return false;
      A.ReproDir = V;
    } else if (S == "--corpus") {
      const char *V = Next();
      if (!V)
        return false;
      A.CorpusFile = V;
    } else if (S == "--dynshape") {
      A.DynShape = true;
    } else if (S == "--dump") {
      A.Dump = true;
    } else if (S == "--keep-going") {
      A.KeepGoing = true;
    } else {
      usage();
      return false;
    }
  }
  return true;
}

/// Writes the reduced repro as a self-contained gtest case.
void writeRepro(const Args &A, uint64_t Seed, const verify::OracleReport &Rep,
                const verify::ReduceResult &Red) {
  std::string Path =
      A.ReproDir + "/akg_fuzz_repro_" + std::to_string(Seed) + ".cpp";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  std::fprintf(F,
               "// Reduced repro for akg-fuzz seed %llu.\n"
               "// First failure: %s\n"
               "// Paste into tests/ and link with gtest.\n"
               "#include \"verify/Oracle.h\"\n"
               "#include <gtest/gtest.h>\n\n"
               "using namespace akg;\n\n"
               "TEST(FuzzRepro, Seed%llu) {\n",
               static_cast<unsigned long long>(Seed),
               Rep.firstFailure().c_str(),
               static_cast<unsigned long long>(Seed));
  // Indent the builder body by two spaces.
  std::string Body = Red.CppTestCase;
  std::string Indented = "  ";
  for (char C : Body) {
    Indented += C;
    if (C == '\n')
      Indented += "  ";
  }
  std::fprintf(F, "%s\n", Indented.c_str());
  std::fprintf(F, "  verify::OracleReport Rep = verify::runOracle(M);\n"
                  "  EXPECT_TRUE(Rep.Pass) << Rep.str();\n"
                  "}\n");
  std::fclose(F);
  std::printf("  wrote %s\n", Path.c_str());
}

void appendCorpus(const Args &A, uint64_t Seed, const std::string &Desc) {
  if (A.CorpusFile.empty())
    return;
  std::FILE *F = std::fopen(A.CorpusFile.c_str(), "a");
  if (!F)
    return;
  std::string Line = verify::corpusLine(Seed, Desc);
  std::fprintf(F, "%s\n", Line.c_str());
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  const Environment Env = readEnvironment();
  Env.installDiagnostics();
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;

  uint64_t First = A.Start, Count = A.Seeds;
  if (A.OneSeed >= 0) {
    First = uint64_t(A.OneSeed);
    Count = 1;
  }
  verify::OracleOptions OO;
  OO.Level = A.Level;
  OO.Threads = Env.Service.Threads;
  if (OO.Threads < 2)
    OO.Threads = 4; // the determinism sweep needs a real N

  verify::GenOptions GO;
  if (A.DynShape)
    GO.ThemeSel = verify::Theme::DynShape;

  std::printf("akg-fuzz: seeds [%llu, %llu), matrix=%s, N=%u threads%s\n",
              static_cast<unsigned long long>(First),
              static_cast<unsigned long long>(First + Count),
              A.Level == verify::MatrixLevel::Full ? "full" : "quick",
              OO.Threads, A.DynShape ? ", theme=dynshape" : "");

  unsigned Failures = 0;
  for (uint64_t Seed = First; Seed < First + Count; ++Seed) {
    ir::Module M = verify::generateModule(Seed, GO);
    if (A.Dump)
      std::printf("--- %s\n%s",
                  verify::describeModule(Seed, M).c_str(), M.str().c_str());
    verify::OracleReport Rep = verify::runOracle(M, OO);
    if (A.Dump)
      std::printf("%s", Rep.str().c_str());
    if (Rep.Pass) {
      if ((Seed - First + 1) % 25 == 0)
        std::printf("  ... %llu/%llu seeds clean\n",
                    static_cast<unsigned long long>(Seed - First + 1),
                    static_cast<unsigned long long>(Count));
      continue;
    }
    ++Failures;
    std::printf("FAIL %s\n  %s\n", verify::describeModule(Seed, M).c_str(),
                Rep.firstFailure().c_str());
    // Show what the pipeline did for this module under default options:
    // the per-pass compile trace is usually enough to localize the stage
    // that went wrong before reaching for the reducer output.
    {
      CompileResult TraceRun =
          compileWithAkg(M, AkgOptions(), "fuzz_seed_" + std::to_string(Seed));
      std::printf("%s", TraceRun.Trace.str().c_str());
    }
    // Shrink with the same oracle configuration as the failing run.
    verify::ReduceResult Red = verify::reduceModule(
        M,
        [&](const ir::Module &Cand) { return !verify::runOracle(Cand, OO).Pass; });
    std::printf("  reduced to %zu ops (%u mutations, %u oracle runs)\n",
                Red.Reduced.ops().size(), Red.MutationsKept, Red.ChecksUsed);
    writeRepro(A, Seed, Rep, Red);
    appendCorpus(A, Seed, verify::describeModule(Seed, M) + " -> " +
                              Rep.firstFailure());
    if (!A.KeepGoing)
      break;
  }

  if (Failures == 0) {
    std::printf("akg-fuzz: all %llu seeds clean\n",
                static_cast<unsigned long long>(Count));
    return 0;
  }
  std::printf("akg-fuzz: %u failing seed(s)\n", Failures);
  return 1;
}
