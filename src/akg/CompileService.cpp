//===- akg/CompileService.cpp - Parallel compile service ------------------===//

#include "akg/CompileService.h"

#include "composite/Composite.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "target/TargetBackend.h"

#include <algorithm>
#include <chrono>

namespace akg {

namespace {

/// A service-fabricated result (shed, quarantined, chaos fault, cancel):
/// carries a valid scalar fallback kernel for the request's target unless
/// \p WithKernel is off, one terminal trace event, the target, and the
/// outcome; dumped like a real compile so chaos-run JSONL logs are
/// complete.
CompileResult serviceResult(const ir::Module &M, const AkgOptions &Opts,
                            const std::string &Name, ErrCode Code,
                            const char *Event, const std::string &Note,
                            bool WithKernel = true) {
  sim::TargetKind Target = Opts.Target;
  CompileResult Res;
  Res.Trace.Kernel = Name;
  Res.Trace.Target = sim::targetName(Target);
  if (Code != ErrCode::Ok) {
    Res.Outcome = Status::error(Code, Note);
    Res.Trace.Outcome = errCodeName(Code);
  }
  Res.Degradation.record(Stage::None, Note,
                         WithKernel ? "scalar fallback kernel"
                                    : "request failed fast (no kernel)");
  TraceEvent E;
  E.Pass = Event;
  E.Note = Note;
  E.Degradations.push_back(Res.Degradation.Steps.back());
  Res.Trace.Events.push_back(std::move(E));
  if (WithKernel) {
    const TargetBackend &TB = targetBackend(Target);
    Res.Kernel = TB.scalarFallback(M, Name);
    Res.Sync = TB.insertSync(Res.Kernel, cce::SyncStrategy::FullSerial);
  }
  trace::maybeDump(Res.Trace);
  return Res;
}

} // namespace

CompileService::CompileService() : CompileService(Options()) {}

CompileService::CompileService(Options Opts)
    : Opt(std::move(Opts)), Quar(Opt.QuarantineOpts) {
  Opt.Threads = std::max(1u, Opt.Threads);
  Opt.QueueDepth = std::max(1u, Opt.QueueDepth);
  Pool = std::make_unique<ThreadPool>(Opt.Threads);
}

CompileService::~CompileService() { Pool->shutdown(/*Drain=*/true); }

std::future<CompileResult> CompileService::submit(const ir::Module &M,
                                                  const AkgOptions &Opts,
                                                  const std::string &Name) {
  // Non-owning alias: the caller guarantees M outlives the result.
  return submitShared(
      std::shared_ptr<const ir::Module>(&M, [](const ir::Module *) {}), Opts,
      Name);
}

namespace {

/// An already-ready error future for a request rejected before admission.
std::future<CompileResult> readyError(ErrCode Code, const std::string &Msg) {
  CompileResult R;
  R.Outcome = Status::error(Code, Msg);
  std::promise<CompileResult> P;
  P.set_value(std::move(R));
  return P.get_future();
}

/// First non-whitespace byte of \p S, or '\0' when all whitespace.
char firstPayloadByte(const std::string &S) {
  for (char C : S)
    if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
      return C;
  return '\0';
}

} // namespace

std::future<CompileResult>
CompileService::submitJson(const std::string &JsonText,
                           const AkgOptions &Opts) {
  if (firstPayloadByte(JsonText) == '[') {
    ++NSubmitted;
    if (Stats::enabled())
      Stats::get().add("service.invalid_json");
    return readyError(ErrCode::InvalidArgument,
                      "$: top-level value is an array (a batch of "
                      "subgraphs); use submitJsonBatch");
  }
  composite::FrontendResult F = composite::loadComposite(JsonText);
  if (!F.ok()) {
    ++NSubmitted;
    if (Stats::enabled())
      Stats::get().add("service.invalid_json");
    // Nothing was compiled, so no scalar fallback and no trace dump: the
    // caller gets the structured diagnostics and nothing else.
    CompileResult R;
    std::string Msg = F.Outcome.message();
    unsigned Extra = 0;
    for (size_t I = 1; I < F.Diags.size() && Extra < 2; ++I, ++Extra)
      Msg += "; " + F.Diags[I].str();
    if (F.Diags.size() > 3)
      Msg += "; (+" + std::to_string(F.Diags.size() - 3) + " more)";
    R.Outcome = Status::error(F.Outcome.code(), Msg);
    std::promise<CompileResult> P;
    P.set_value(std::move(R));
    return P.get_future();
  }
  // A payload-level "target" overrides the caller's options, which carry
  // any AKG_TARGET the tool read at start. The name was validated at
  // parse time.
  if (!F.Normalized.Target.empty()) {
    AkgOptions O = Opts;
    sim::parseTargetName(F.Normalized.Target, O.Target);
    return submitShared(F.Mod, O, F.KernelName);
  }
  return submitShared(F.Mod, Opts, F.KernelName);
}

std::vector<std::future<CompileResult>>
CompileService::submitJsonBatch(const std::string &JsonText,
                                const AkgOptions &Opts) {
  std::vector<std::future<CompileResult>> Futures;
  composite::BatchSplit B = composite::splitBatchPayload(JsonText);
  if (!B.ok()) {
    ++NSubmitted;
    if (Stats::enabled())
      Stats::get().add("service.invalid_json");
    std::string Msg = B.Outcome.message();
    for (size_t I = 1; I < B.Diags.size() && I < 3; ++I)
      Msg += "; " + B.Diags[I].str();
    Futures.push_back(readyError(B.Outcome.code(), Msg));
    return Futures;
  }
  if (!B.IsBatch) {
    // A batch of one: the ordinary single-payload path (which also
    // reports malformed JSON with the full diagnostics).
    Futures.push_back(submitJson(JsonText, Opts));
    return Futures;
  }
  if (Stats::enabled())
    Stats::get().add("service.batch_entries",
                     static_cast<int64_t>(B.Entries.size()));
  Futures.reserve(B.Entries.size());
  for (const std::string &Entry : B.Entries)
    Futures.push_back(submitJson(Entry, Opts));
  return Futures;
}

std::future<CompileResult>
CompileService::submitShared(std::shared_ptr<const ir::Module> M,
                             const AkgOptions &Opts,
                             const std::string &Name) {
  ++NSubmitted;
  if (Stats::enabled())
    Stats::get().add("service.submitted");

  // Admission control: jobs admitted but not yet picked up by a worker
  // count against the bounded queue. Inline pools (<= 1 thread) run the
  // job inside Pool->submit, so Queued drops before the next admission
  // and nothing ever sheds - matching the sequential pipeline exactly.
  if (Queued.load(std::memory_order_acquire) >=
      static_cast<int64_t>(Opt.QueueDepth)) {
    std::promise<CompileResult> P;
    std::string Full =
        "queue full (depth " + std::to_string(Opt.QueueDepth) + "); policy ";
    if (Opt.Shed == ShedPolicy::Reject) {
      ++NShed;
      if (Stats::enabled())
        Stats::get().add("service.shed");
      P.set_value(serviceResult(*M, Opts, Name, ErrCode::Overloaded, "shed",
                                Full + "reject", /*WithKernel=*/false));
    } else {
      // Degrade: the caller still gets a valid kernel - the bottom rung
      // of the PR 1 ladder, compiled inline without touching the queue.
      ++NDegraded;
      if (Stats::enabled())
        Stats::get().add("service.degraded");
      P.set_value(serviceResult(*M, Opts, Name, ErrCode::Ok, "shed",
                                Full + "degrade: scalar rung"));
    }
    return P.get_future();
  }

  // Deadline inheritance: the request's own deadline wins, else the
  // service default. Armed here - at admission - so time spent queued
  // counts against it.
  double Ms = Opts.RequestDeadlineMs > 0 ? Opts.RequestDeadlineMs
                                         : Opt.DefaultDeadlineMs;
  auto Ctx = std::make_shared<cancel::Context>();
  Ctx->DL = Deadline(Ms / 1000.0);
  Ctx->Token = Opts.Cancel.get();

  Queued.fetch_add(1, std::memory_order_acq_rel);
  AkgOptions JobOpts = Opts;
  auto Admit = std::chrono::steady_clock::now();
  return Pool->submit(
      [this, M, JobOpts = std::move(JobOpts), Name, Ctx, Admit] {
        Queued.fetch_sub(1, std::memory_order_acq_rel);
        CompileResult R = runOne(*M, JobOpts, Name, Ctx);
        R.ServiceSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - Admit)
                               .count();
        return R;
      });
}

CompileResult CompileService::runOne(const ir::Module &M, AkgOptions Opts,
                                     const std::string &Name,
                                     std::shared_ptr<cancel::Context> Ctx) {
  // Install the request's termination constraints for everything below:
  // the quarantine check, chaos sleeps, the cache wait, and the compile
  // pipeline itself all observe this context (or chain under it).
  cancel::Scope RequestScope(Ctx.get());
  struct Count {
    std::atomic<int64_t> &C;
    ~Count() { ++C; }
  } Completed{NCompleted};

  try {
    cancel::checkPoint("service_queue"); // expired while queued?

    CacheKey K = makeCacheKey(M, Opts);
    if (std::optional<std::string> Why = Quar.check(K)) {
      ++NQuarantined;
      return serviceResult(M, Opts, Name, ErrCode::Quarantined, "quarantined",
                           "poison-pill fingerprint: " + *Why);
    }

    for (unsigned Attempt = 0;; ++Attempt) {
      if (Opt.Chaos) {
        ChaosAction A = chaosDecide(*Opt.Chaos, Name, Attempt);
        switch (A.K) {
        case ChaosAction::Kind::Hang:
          ++NHangs;
          if (Stats::enabled())
            Stats::get().add("service.chaos_hang");
          // Interruptible: a deadline or cancel rescues the "hang".
          if (!cancel::sleepFor(A.Ms))
            cancel::checkPoint("chaos_hang");
          break;
        case ChaosAction::Kind::Delay:
          ++NDelays;
          if (Stats::enabled())
            Stats::get().add("service.chaos_delay");
          if (!cancel::sleepFor(A.Ms))
            cancel::checkPoint("chaos_delay");
          break;
        case ChaosAction::Kind::Fault: {
          ++NFaults;
          if (Stats::enabled())
            Stats::get().add("service.chaos_fault");
          if (A.Transient && Attempt < Opt.MaxRetries) {
            // Transient fault: retry with exponential backoff. The next
            // attempt redraws its chaos decision, so the fault clears
            // with probability (1 - FaultP * TransientP...).
            ++NRetries;
            if (Stats::enabled())
              Stats::get().add("service.retries");
            if (!cancel::sleepFor(Opt.RetryBackoffMs *
                                  double(1u << Attempt)))
              cancel::checkPoint("retry_backoff");
            continue;
          }
          ErrCode Code = A.Transient ? ErrCode::Unavailable
                                     : ErrCode::FaultInjected;
          Quar.recordFailure(K, Code, "chaos-injected fault");
          return serviceResult(M, Opts, Name, Code, "chaos_fault",
                               A.Transient
                                   ? "transient fault; retries exhausted"
                                   : "deterministic chaos fault");
        }
        case ChaosAction::Kind::None:
          break;
        }
      }

      CompileResult Res = Opt.Cache
                              ? Opt.Cache->compileOrGet(M, Opts, Name)
                              : compileWithAkg(M, Opts, Name);
      if (Res.Outcome.isOk()) {
        Quar.recordSuccess(K);
        return Res;
      }
      if (Res.Outcome.code() == ErrCode::Unavailable &&
          Attempt < Opt.MaxRetries) {
        ++NRetries;
        if (Stats::enabled())
          Stats::get().add("service.retries");
        if (!cancel::sleepFor(Opt.RetryBackoffMs * double(1u << Attempt)))
          cancel::checkPoint("retry_backoff");
        continue;
      }
      Quar.recordFailure(K, Res.Outcome.code(), Res.Outcome.message());
      return Res;
    }
  } catch (const CancelledError &E) {
    // Tripped outside the pipeline (queue wait, chaos sleep, cache wait):
    // the pipeline's own unwinding never lets CancelledError escape.
    return serviceResult(M, Opts, Name, E.code(), errCodeName(E.code()),
                         std::string(E.what()) + " in '" + E.where() + "'");
  }
}

std::vector<CompileResult>
CompileService::compileAll(const std::vector<CompileJob> &Jobs) {
  ScopedTimer Timer("service.compile_batch");
  std::vector<std::future<CompileResult>> Futs;
  Futs.reserve(Jobs.size());
  for (const CompileJob &J : Jobs)
    Futs.push_back(submit(*J.Mod, J.Opts, J.Name));
  std::vector<CompileResult> Results;
  Results.reserve(Jobs.size());
  for (std::future<CompileResult> &F : Futs)
    Results.push_back(F.get());
  if (Stats::enabled())
    Stats::get().add("service.jobs", static_cast<int64_t>(Jobs.size()));
  return Results;
}

ServiceStats CompileService::stats() const {
  ServiceStats S;
  S.Submitted = NSubmitted.load();
  S.Completed = NCompleted.load();
  S.Shed = NShed.load();
  S.Degraded = NDegraded.load();
  S.Quarantined = NQuarantined.load();
  S.Retries = NRetries.load();
  S.FaultsInjected = NFaults.load();
  S.DelaysInjected = NDelays.load();
  S.HangsInjected = NHangs.load();
  return S;
}

std::vector<CompileJob> networkCompileJobs(const graph::NetworkModel &N,
                                           const AkgOptions &Base,
                                           bool PerOccurrence) {
  std::vector<CompileJob> Jobs;
  for (const graph::LayerWorkload &L : N.Layers) {
    unsigned Copies = PerOccurrence ? std::max(1u, L.Count) : 1u;
    for (unsigned C = 0; C < Copies; ++C) {
      CompileJob J;
      J.Mod = L.Mod.get();
      J.Opts = Base;
      J.Name = N.Name + "/" + L.Name;
      if (PerOccurrence && Copies > 1)
        J.Name += "#" + std::to_string(C);
      Jobs.push_back(std::move(J));
    }
  }
  return Jobs;
}

} // namespace akg
