//===- akg/Compiler.cpp - The AKG compiler driver -------------------------===//

#include "akg/Compiler.h"

#include "akg/Pipeline.h"
#include "sim/Compare.h"
#include "sim/SimtRun.h"
#include "sim/Simulator.h"
#include "target/TargetBackend.h"
#include "support/Rational.h"
#include "support/Stats.h"

namespace akg {

using namespace ir;

CompileResult compileWithAkg(const Module &MIn, const AkgOptions &Opts,
                             const std::string &Name) {
  ScopedTimer Timer("akg.compile");
  Stats::get().add("akg.compiles");
  Stage Where = Stage::None;
  std::string Reason;
  try {
    // The real pipeline (akg/Pipeline.cpp). Recoverable failures degrade
    // in place and are recorded in Res.Degradation; anything that still
    // escapes is caught below and lands on the scalar fallback kernel.
    CompileResult Res = runPassPipeline(MIn, Opts, Name);
    trace::maybeDump(Res.Trace);
    return Res;
  } catch (const RationalOverflow &E) {
    // Should be absorbed inside the LP layer; if one escapes, the compile
    // still lands on its feet.
    Where = Stage::Scheduler;
    Reason = E.what();
  } catch (const std::exception &E) {
    Reason = E.what();
  } catch (...) {
    Reason = "unknown exception";
  }
  CompileResult Res;
  Res.Degradation.record(Where, Reason, "scalar fallback kernel");
  sim::TargetKind Target = Opts.Target;
  const TargetBackend &TB = targetBackend(Target);
  Res.Kernel = TB.scalarFallback(MIn, Name);
  Res.Sync = TB.insertSync(Res.Kernel, cce::SyncStrategy::FullSerial);
  Res.Trace.Kernel = Name;
  Res.Trace.Target = sim::targetName(Target);
  TraceEvent E;
  E.Pass = "exception_fallback";
  E.Id = Where;
  E.Note = Reason;
  E.Degradations.push_back(Res.Degradation.Steps.back());
  Res.Trace.Events.push_back(std::move(E));
  trace::maybeDump(Res.Trace);
  return Res;
}

double verifyKernel(const cce::Kernel &K, const Module &M,
                    const sim::MachineSpec &Spec, uint32_t Seed) {
  if (K.Target == sim::TargetKind::Simt)
    return sim::diffSimtAgainstReference(K, M, sim::SimtSpec::sm80(), Seed)
        .MaxAbsErr;
  return sim::diffKernelAgainstReference(K, M, Spec, Seed).MaxAbsErr;
}

} // namespace akg
