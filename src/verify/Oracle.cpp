//===- verify/Oracle.cpp - Config-matrix differential oracle --------------===//

#include "verify/Oracle.h"

#include "akg/CompileService.h"
#include "akg/KernelCache.h"
#include "composite/Composite.h"
#include "ir/PolyExtract.h"
#include "sim/DynRun.h"
#include "sim/SimtRun.h"
#include "target/Codegen.h"

#include <cstdio>

namespace akg {
namespace verify {

using namespace ir;

std::string OracleReport::firstFailure() const {
  for (const ConfigOutcome &O : Outcomes)
    if (!O.Pass)
      return O.Config + ": " + O.Detail;
  return "";
}

std::string OracleReport::str() const {
  std::string S;
  for (const ConfigOutcome &O : Outcomes) {
    char Buf[160];
    std::snprintf(Buf, sizeof Buf, "%-18s %s  err=%.3g  bits=%016llx  %s\n",
                  O.Config.c_str(), O.Pass ? "PASS" : "FAIL", O.MaxErr,
                  static_cast<unsigned long long>(O.OutputBits),
                  O.Detail.c_str());
    S += Buf;
  }
  return S;
}

namespace {

/// Uniform manual tile policy: tile every axis of the live-out statement
/// with min(extent, Size) at UB (the same shape BenchCommon and the tuner
/// use for manual specs).
AkgOptions tiledOptions(const ir::Module &M, int64_t Size) {
  AkgOptions O;
  ir::PolyProgram P = ir::extractPolyProgram(M);
  if (P.Stmts.empty())
    return O;
  const ir::PolyStmt &Live = P.Stmts.back();
  transforms::StmtTileSpec Spec;
  for (const IterVar &IV : Live.Op->Axis)
    Spec.Entries.push_back(
        transforms::TileSpecEntry{std::min(IV.Extent, Size), "UB"});
  transforms::TilingPolicy Pol;
  Pol.PerStmt[Live.Id] = Spec;
  O.ManualTiles = Pol;
  return O;
}

} // namespace

std::vector<std::pair<std::string, AkgOptions>>
oracleConfigs(const ir::Module &M, MatrixLevel Level) {
  std::vector<std::pair<std::string, AkgOptions>> Cfgs;
  Cfgs.emplace_back("default", AkgOptions{});
  {
    AkgOptions O;
    O.EnablePostTilingFusion = false;
    Cfgs.emplace_back("nofuse", O);
  }
  Cfgs.emplace_back("tile4", tiledOptions(M, 4));
  {
    AkgOptions O;
    O.FailStage = Stage::Storage;
    Cfgs.emplace_back("fail_storage", O);
  }
  if (Level == MatrixLevel::Quick)
    return Cfgs;
  {
    AkgOptions O;
    O.EnableIntraTile = false;
    Cfgs.emplace_back("nointratile", O);
  }
  {
    AkgOptions O;
    O.EnableInlining = true;
    Cfgs.emplace_back("inline", O);
  }
  Cfgs.emplace_back("tile8", tiledOptions(M, 8));
  static const Stage Rungs[] = {Stage::Scheduler,    Stage::Tiling,
                                Stage::Fusion,       Stage::IntraTile,
                                Stage::Vectorize,    Stage::DoubleBuffer,
                                Stage::Sync};
  for (Stage S : Rungs) {
    AkgOptions O;
    O.FailStage = S;
    Cfgs.emplace_back(std::string("fail_") + stageName(S), O);
  }
  return Cfgs;
}

OracleReport runOracle(const ir::Module &M, const OracleOptions &Opts) {
  const sim::MachineSpec &Spec =
      Opts.Machine ? *Opts.Machine : sim::MachineSpec::ascend910();
  OracleReport Rep;

  auto Check = [&](const std::string &Name, CompileResult R) {
    ConfigOutcome Out;
    Out.Config = Name;
    if (Opts.MutateKernel)
      Opts.MutateKernel(M, Name, R.Kernel);
    std::string Cap = cce::checkBufferCapacities(R.Kernel, Spec);
    // diffBoundAgainstReference pads/slices when R was served from a
    // dynamic-shape bucket skeleton (determinism sweep below) and is a
    // plain kernel-vs-evaluator diff otherwise.
    sim::FunctionalDiff D = [&] {
      sim::SimResult SR;
      return sim::diffBoundAgainstReference(R, M, Spec, Opts.DataSeed, &SR,
                                            &Out.OutputBits);
    }();
    Out.MaxErr = D.MaxAbsErr;
    if (!Cap.empty()) {
      Out.Pass = false;
      Out.Detail = "buffer capacity: " + Cap;
    } else if (!D.within(Opts.Tolerance)) {
      Out.Pass = false;
      Out.Detail = D.str();
    } else {
      Out.Pass = true;
    }
    Rep.Pass &= Out.Pass;
    Rep.Outcomes.push_back(Out);
    return Out;
  };

  // --- Functional matrix: every config vs the reference evaluator -------
  // Kernel text is captured pre-MutateKernel so the round-trip below
  // diffs against the real compiler output, not an injected miscompile.
  std::vector<std::pair<std::string, std::string>> BaseKernels;
  for (const auto &[Name, O] : oracleConfigs(M, Opts.Level)) {
    CompileResult R = compileWithAkg(M, O, "oracle_" + Name);
    BaseKernels.emplace_back(Name, cce::printKernel(R.Kernel));
    Check(Name, std::move(R));
  }

  // --- Composite JSON round-trip differential ---------------------------
  // parse(serialize(M)) must rebuild a structurally identical module:
  // same kernel-cache fingerprint, and byte-identical kernel text under
  // every functional config above.
  if (Opts.JsonRoundTrip) {
    ConfigOutcome Out;
    Out.Config = "json_roundtrip";
    Out.Pass = true;
    std::string Payload = composite::moduleToCompositeJson(M, "oracle_rt");
    composite::FrontendResult F = composite::loadComposite(Payload);
    if (!F.ok()) {
      Out.Pass = false;
      Out.Detail =
          "frontend rejected serialized module: " + F.Outcome.str();
    } else if (!(makeCacheKey(M, AkgOptions{}) ==
                 makeCacheKey(*F.Mod, AkgOptions{}))) {
      Out.Pass = false;
      Out.Detail = "cache fingerprint differs after JSON round-trip";
    } else {
      for (const auto &[Name, O] : oracleConfigs(*F.Mod, Opts.Level)) {
        CompileResult R = compileWithAkg(*F.Mod, O, "oracle_" + Name);
        const std::string *Base = nullptr;
        for (const auto &[BN, Text] : BaseKernels)
          if (BN == Name)
            Base = &Text;
        if (Base && cce::printKernel(R.Kernel) != *Base) {
          Out.Pass = false;
          Out.Detail =
              "kernel text differs after JSON round-trip (config " + Name +
              ")";
          break;
        }
      }
    }
    Rep.Pass &= Out.Pass;
    Rep.Outcomes.push_back(Out);
  }

  // --- SIMT cross-target differential (DESIGN.md 4l) --------------------
  // The same module compiled for the SIMT backend must agree with the
  // reference evaluator within tolerance, fit the SIMT capacities (the
  // retry ladder owns any degradation), and relower deterministically.
  if (Opts.SimtDifferential) {
    ConfigOutcome Out;
    Out.Config = "simt_differential";
    Out.Pass = true;
    AkgOptions O;
    O.Target = sim::TargetKind::Simt;
    CompileResult R = compileWithAkg(M, O, "oracle_simt");
    sim::SimtSpec SSpec = sim::SimtSpec::sm80();
    std::string Cap = cce::checkSimtCapacities(R.Kernel, SSpec);
    if (!R.Outcome.isOk()) {
      Out.Pass = false;
      Out.Detail = "simt compile failed: " + R.Outcome.str();
    } else if (R.Kernel.Target != sim::TargetKind::Simt) {
      Out.Pass = false;
      Out.Detail = "kernel did not lower for the simt target";
    } else if (!Cap.empty()) {
      Out.Pass = false;
      Out.Detail = "shared-memory capacity: " + Cap;
    } else {
      sim::FunctionalDiff D = sim::diffSimtAgainstReference(
          R.Kernel, M, SSpec, Opts.DataSeed, nullptr, &Out.OutputBits);
      Out.MaxErr = D.MaxAbsErr;
      if (!D.within(Opts.Tolerance)) {
        Out.Pass = false;
        Out.Detail = "simt kernel vs reference: " + D.str();
      } else {
        CompileResult R2 = compileWithAkg(M, O, "oracle_simt");
        if (cce::printKernel(R2.Kernel) != cce::printKernel(R.Kernel)) {
          Out.Pass = false;
          Out.Detail = "simt kernel text differs across recompiles";
        }
      }
    }
    Rep.Pass &= Out.Pass;
    Rep.Outcomes.push_back(Out);
  }

  // --- Dynamic-shape differential (DESIGN.md 4k) ------------------------
  // For a module carrying shape-symbol marks: the bucketed serving path
  // (cache canonicalizes to the bucket skeleton, late-bound execution)
  // must match the reference evaluator, and a cache with bucketing off
  // (the AKG_DYNSHAPE=0 kill switch) must reproduce the plain per-shape
  // compile byte-identically. A module the admission analysis rejects
  // passes trivially: the fallback IS the plain compile, which the
  // functional matrix covers.
  if (ir::hasDynamicDims(M)) {
    {
      ConfigOutcome Out;
      Out.Config = "dynshape_bucketed";
      Out.Pass = true;
      KernelCache Cache;
      CompileResult R = Cache.compileOrGet(M, AkgOptions{}, "oracle_dyn");
      if (!R.Outcome.isOk()) {
        Out.Pass = false;
        Out.Detail = "bucketed compile failed: " + R.Outcome.str();
      } else if (!R.DynShape) {
        Out.Detail = "fallback: per-shape compile (functional matrix)";
      } else {
        sim::FunctionalDiff D = sim::diffBoundAgainstReference(
            R, M, Spec, Opts.DataSeed, nullptr, &Out.OutputBits);
        Out.MaxErr = D.MaxAbsErr;
        if (!D.within(Opts.Tolerance)) {
          Out.Pass = false;
          Out.Detail = "bound kernel vs reference: " + D.str();
        }
      }
      Rep.Pass &= Out.Pass;
      Rep.Outcomes.push_back(Out);
    }
    {
      ConfigOutcome Out;
      Out.Config = "dynshape_killswitch";
      Out.Pass = true;
      KernelCacheConfig Off;
      Off.DynShape = false;
      KernelCache Cache(Off);
      CompileResult R0 = Cache.compileOrGet(M, AkgOptions{}, "oracle_dyn");
      CompileResult Plain = compileWithAkg(M, AkgOptions{}, "oracle_dyn");
      if (R0.DynShape) {
        Out.Pass = false;
        Out.Detail = "kill switch did not disable bucketing";
      } else if (cce::printKernel(R0.Kernel) !=
                 cce::printKernel(Plain.Kernel)) {
        Out.Pass = false;
        Out.Detail = "AKG_DYNSHAPE=0 kernel differs from plain compile";
      }
      Rep.Pass &= Out.Pass;
      Rep.Outcomes.push_back(Out);
    }
  }

  // --- Determinism sweep: 1 vs N threads, cold vs warm cache ------------
  // The three passes must produce byte-identical kernel text and
  // bit-identical functional outputs.
  KernelCache ColdCache1, ColdCacheN;
  std::vector<CompileJob> Jobs(3, CompileJob{&M, AkgOptions{}, "oracle_det"});
  CompileService::Options S1, SN;
  S1.Cache = &ColdCache1;
  SN.Threads = Opts.Threads;
  SN.Cache = &ColdCacheN;
  CompileService One(S1), Many(SN);
  std::vector<CompileResult> A = One.compileAll(Jobs);
  std::vector<CompileResult> B = Many.compileAll(Jobs);
  std::vector<CompileResult> C = Many.compileAll(Jobs); // warm

  std::string RefText = cce::printKernel(A.front().Kernel);
  ConfigOutcome Det1 = Check("threads1", A.front());
  uint64_t RefBits = Det1.OutputBits;
  struct Pass {
    const char *Name;
    std::vector<CompileResult> *Results;
  } Passes[] = {{"threadsN_cold", &B}, {"threadsN_warm", &C}};
  for (const Pass &P : Passes) {
    ConfigOutcome Out;
    Out.Config = P.Name;
    Out.Pass = true;
    for (const CompileResult &R : *P.Results) {
      if (cce::printKernel(R.Kernel) != RefText) {
        Out.Pass = false;
        Out.Detail = "kernel text differs from 1-thread compile";
        break;
      }
    }
    if (Out.Pass) {
      sim::FunctionalDiff D = sim::diffBoundAgainstReference(
          P.Results->front(), M, Spec, Opts.DataSeed, nullptr,
          &Out.OutputBits);
      Out.MaxErr = D.MaxAbsErr;
      if (Out.OutputBits != RefBits) {
        Out.Pass = false;
        Out.Detail = "output bits differ from 1-thread compile";
      } else if (!D.within(Opts.Tolerance)) {
        Out.Pass = false;
        Out.Detail = D.str();
      }
    }
    Rep.Pass &= Out.Pass;
    Rep.Outcomes.push_back(Out);
  }
  return Rep;
}

} // namespace verify
} // namespace akg
