//===- tools/akg-chaos.cpp - Chaos-testing driver -------------------------===//
//
// Drives the hardened CompileService under a seeded chaos spec and
// reports what the hardening did: per-request outcomes, latency
// percentiles, shed/degrade counts, retries, quarantine arms, and cache
// leader failures. The spec comes from --spec or AKG_CHAOS (identical
// grammar; --spec wins), so the same scenario replays bit-identically
// from its seed:
//
//   akg-chaos --spec seed=42,fault=0.1,delay=0.1:20 --requests 50
//             --threads 4 --deadline-ms 2000
//   akg-chaos --explain --spec seed=42,fault=0.3   # decisions only
//
// The workload is the Fig-13 ResNet-50 subgraph stream (one request per
// layer occurrence), capped by --requests. After the chaos run the same
// stream is compiled again by a chaos-free service as the reference.
// Exit code 1 on a hung request (a request that neither completed nor
// was shed), on a request that finished ok without being shed but got a
// kernel different from its reference, or on a malformed spec.
//
//===----------------------------------------------------------------------===//

#include "akg/Environment.h"
#include "graph/Networks.h"
#include "target/CceIr.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace akg;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: akg-chaos [options]\n"
      "  --spec <s>         chaos spec (default: AKG_CHAOS), grammar:\n"
      "                     seed=N,fault=P,transient=P,delay=P[:ms],"
      "hang=P[:ms]\n"
      "  --requests <n>     request count (default 50)\n"
      "  --threads <n>      service workers (default 4)\n"
      "  --deadline-ms <d>  per-request hard deadline (default 2000)\n"
      "  --queue-depth <n>  admission queue bound (default AKG_QUEUE_DEPTH,\n"
      "                     else 256)\n"
      "  --policy <p>       shed policy: reject | degrade (default\n"
      "                     AKG_SHED_POLICY, else reject)\n"
      "  --explain          print the seeded decisions, compile nothing\n");
}

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t I = static_cast<size_t>(P * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(I, Sorted.size() - 1)];
}

const char *actionName(ChaosAction::Kind K) {
  switch (K) {
  case ChaosAction::Kind::None:
    return "none";
  case ChaosAction::Kind::Fault:
    return "fault";
  case ChaosAction::Kind::Delay:
    return "delay";
  case ChaosAction::Kind::Hang:
    return "hang";
  }
  return "?";
}

} // namespace

int main(int Argc, char **Argv) {
  const Environment Env = readEnvironment();
  Env.installDiagnostics();
  std::string SpecText = processEnv("AKG_CHAOS").value_or("");
  unsigned Requests = 50, Threads = 4;
  double DeadlineMs = 2000;
  std::string Policy;
  CompileService::Options SO = Env.Service;
  bool Explain = false;

  for (int I = 1; I < Argc; ++I) {
    auto Val = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Flag);
        usage();
        std::exit(1);
      }
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--spec"))
      SpecText = Val("--spec");
    else if (!std::strcmp(Argv[I], "--requests"))
      Requests = static_cast<unsigned>(std::atoi(Val("--requests")));
    else if (!std::strcmp(Argv[I], "--threads"))
      Threads = static_cast<unsigned>(std::atoi(Val("--threads")));
    else if (!std::strcmp(Argv[I], "--deadline-ms"))
      DeadlineMs = std::atof(Val("--deadline-ms"));
    else if (!std::strcmp(Argv[I], "--queue-depth"))
      SO.QueueDepth = static_cast<unsigned>(std::atoi(Val("--queue-depth")));
    else if (!std::strcmp(Argv[I], "--policy"))
      Policy = Val("--policy");
    else if (!std::strcmp(Argv[I], "--explain"))
      Explain = true;
    else {
      usage();
      return 1;
    }
  }

  std::string Err;
  std::optional<ChaosSpec> Spec = ChaosSpec::parse(SpecText, &Err);
  if (!Spec) {
    std::fprintf(stderr, "bad chaos spec '%s': %s\n", SpecText.c_str(),
                 Err.c_str());
    return 1;
  }

  graph::NetworkModel Net = graph::buildResNet50();
  AkgOptions Base = Env.Compile;
  Base.RequestDeadlineMs = DeadlineMs;
  std::vector<CompileJob> Jobs =
      networkCompileJobs(Net, Base, /*PerOccurrence=*/true);
  if (Jobs.size() > Requests)
    Jobs.resize(Requests);

  if (Explain) {
    std::printf("%-28s %-8s %s\n", "request", "action", "detail");
    for (const CompileJob &J : Jobs) {
      ChaosAction A = chaosDecide(*Spec, J.Name, 0);
      std::string Detail;
      if (A.K == ChaosAction::Kind::Fault)
        Detail = A.Transient ? "transient (Unavailable)"
                             : "deterministic (FaultInjected)";
      else if (A.K != ChaosAction::Kind::None)
        Detail = std::to_string(A.Ms) + " ms";
      std::printf("%-28s %-8s %s\n", J.Name.c_str(), actionName(A.K),
                  Detail.c_str());
    }
    return 0;
  }

  KernelCache Cache(Env.Cache);
  SO.Threads = Threads;
  SO.Cache = &Cache;
  SO.Chaos = Spec->enabled() ? std::optional<ChaosSpec>(*Spec)
                             : std::nullopt;
  if (Policy == "reject")
    SO.Shed = ShedPolicy::Reject;
  else if (Policy == "degrade")
    SO.Shed = ShedPolicy::Degrade;
  else if (!Policy.empty()) {
    std::fprintf(stderr, "unknown --policy '%s'\n", Policy.c_str());
    return 1;
  }
  CompileService Svc(SO);

  std::printf("chaos run: %zu requests, %u workers, deadline %.0f ms, "
              "spec '%s'\n",
              Jobs.size(), Svc.threads(), DeadlineMs, SpecText.c_str());
  std::vector<CompileResult> Res = Svc.compileAll(Jobs);

  std::vector<double> Lat;
  std::map<std::string, int64_t> Outcomes;
  for (const CompileResult &R : Res) {
    Lat.push_back(R.ServiceSeconds * 1e3);
    Outcomes[R.Outcome.isOk() ? "ok" : errCodeName(R.Outcome.code())]++;
  }
  std::sort(Lat.begin(), Lat.end());

  ServiceStats SS = Svc.stats();
  QuarantineStats QS = Svc.quarantine().stats();
  KernelCacheStats CS = Cache.stats();
  int64_t Accounted = SS.Completed + SS.Shed + SS.Degraded;

  std::printf("outcomes:");
  for (const auto &[Name, N] : Outcomes)
    std::printf("  %s=%lld", Name.c_str(), (long long)N);
  std::printf("\nlatency ms: p50 %.2f  p99 %.2f  p999 %.2f  max %.2f\n",
              percentile(Lat, 0.50), percentile(Lat, 0.99),
              percentile(Lat, 0.999), Lat.empty() ? 0 : Lat.back());
  std::printf("service: %lld submitted, %lld completed, %lld shed, %lld "
              "degraded, %lld retries\n",
              (long long)SS.Submitted, (long long)SS.Completed,
              (long long)SS.Shed, (long long)SS.Degraded,
              (long long)SS.Retries);
  std::printf("chaos: %lld faults, %lld delays, %lld hangs\n",
              (long long)SS.FaultsInjected, (long long)SS.DelaysInjected,
              (long long)SS.HangsInjected);
  std::printf("quarantine: %lld armed, %lld fast-fails; cache: %lld "
              "leader-failed\n",
              (long long)QS.Armed, (long long)QS.FastFails,
              (long long)CS.LeaderFailed);

  if (Accounted != SS.Submitted) {
    std::fprintf(stderr, "FAIL: %lld requests unaccounted for (hung?)\n",
                 (long long)(SS.Submitted - Accounted));
    return 1;
  }
  std::printf("zero hung requests\n");

  // Chaos-free reference: the same stream through a service without
  // chaos or deadlines, with its own cold cache and room to admit every
  // request, so each reference compile runs to completion.
  std::vector<CompileJob> RefJobs = Jobs;
  for (CompileJob &J : RefJobs)
    J.Opts.RequestDeadlineMs = 0;
  KernelCache RefCache(Env.Cache);
  CompileService::Options RO = SO;
  RO.Chaos.reset();
  RO.Cache = &RefCache;
  RO.QueueDepth = static_cast<unsigned>(Jobs.size());
  std::vector<CompileResult> Ref = CompileService(RO).compileAll(RefJobs);
  size_t Clean = 0, Mismatches = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!Res[I].Outcome.isOk() || Res[I].Trace.find("shed"))
      continue;
    ++Clean;
    if (cce::printKernel(Res[I].Kernel) != cce::printKernel(Ref[I].Kernel)) {
      std::fprintf(stderr, "FAIL: %s differs from the chaos-free kernel\n",
                   Jobs[I].Name.c_str());
      ++Mismatches;
    }
  }
  if (Mismatches)
    return 1;
  std::printf("all %zu clean kernels bit-identical to the chaos-free run\n",
              Clean);
  return 0;
}
