//===- akg/CompileService.h - Parallel compile service ----------*- C++ -*-===//
//
// Fans independent module compiles across a fixed-size thread pool
// (support/ThreadPool.h), serving each job through the content-addressed
// kernel cache. This is the layer a graph engine (or a benchmark suite,
// or the tuner) talks to when it needs many kernels: the subgraphs of a
// network are independent compiles, so throughput scales with workers,
// and structurally identical subgraphs - within one network, across
// networks, or across repeated requests - compile exactly once.
//
// Threading contract (see DESIGN.md 4d): the compile pipeline itself is
// pure (no shared mutable state beyond the mutex-guarded Stats/cache
// singletons, and it never reads the environment), each job's Module is
// read-only during the run, and results land in job order. Output is
// bit-identical for 1 worker, N workers, or a warm cache.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_COMPILESERVICE_H
#define AKG_AKG_COMPILESERVICE_H

#include "akg/Chaos.h"
#include "akg/KernelCache.h"
#include "akg/Quarantine.h"
#include "graph/Networks.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace akg {

/// One compile request. The module must stay alive (and unmodified)
/// until CompileService::compileAll returns.
struct CompileJob {
  const ir::Module *Mod = nullptr;
  AkgOptions Opts;
  std::string Name;
};

/// The compile jobs of one network model: one job per fused subgraph the
/// graph engine produces, "network/layer" names, shared base options.
/// With \p PerOccurrence each subgraph appears Count times (the serving
/// workload: the graph engine requests every instance); otherwise each
/// distinct subgraph appears once.
std::vector<CompileJob> networkCompileJobs(const graph::NetworkModel &N,
                                           const AkgOptions &Base,
                                           bool PerOccurrence = false);

//===----------------------------------------------------------------------===//
// CompileService: the production-hardened serving layer (DESIGN.md 4h)
//===----------------------------------------------------------------------===//

/// What to do with a request arriving at a full queue.
enum class ShedPolicy {
  Reject,  // fail fast with Outcome = Overloaded (no kernel compiled)
  Degrade, // serve the scalar-fallback rung inline (valid, slow kernel)
};

struct ServiceStats {
  int64_t Submitted = 0;
  int64_t Completed = 0;   // worker-path results delivered (any outcome)
  int64_t Shed = 0;        // rejected at admission (policy Reject)
  int64_t Degraded = 0;    // scalar-rung service at admission (Degrade)
  int64_t Quarantined = 0; // fast-failed by the poison-pill quarantine
  int64_t Retries = 0;     // transient-fault retries taken
  int64_t FaultsInjected = 0;
  int64_t DelaysInjected = 0;
  int64_t HangsInjected = 0;
};

/// The hardened compile front end: a fixed worker pool behind a bounded
/// admission queue, per-request deadline/cancel inheritance, transient
/// retry with exponential backoff, poison-pill quarantine, and seeded
/// chaos injection. With the default options none of that fires, and
/// compileAll is a plain fan-out of a batch of jobs.
class CompileService {
public:
  /// Built-in defaults; akg/Environment.h fills Threads, QueueDepth,
  /// Shed and Chaos from AKG_THREADS, AKG_QUEUE_DEPTH, AKG_SHED_POLICY
  /// and AKG_CHAOS.
  struct Options {
    /// Worker threads; 0 and 1 run every request inline on the caller.
    unsigned Threads = 1;
    /// Admission bound: jobs admitted but not yet running (0 acts as 1).
    /// Inline mode never queues.
    unsigned QueueDepth = 256;
    /// Load-shedding policy at a full queue.
    ShedPolicy Shed = ShedPolicy::Reject;
    /// Retries for transient faults (Outcome = Unavailable), with
    /// exponential backoff starting at RetryBackoffMs.
    unsigned MaxRetries = 2;
    double RetryBackoffMs = 1.0;
    /// Deadline for requests that do not carry their own
    /// AkgOptions::RequestDeadlineMs; 0 = none. The clock starts at
    /// admission, so queue wait counts against it.
    double DefaultDeadlineMs = 0;
    /// Content-addressed cache; nullptr compiles every job from scratch.
    KernelCache *Cache = &KernelCache::global();
    QuarantineOptions QuarantineOpts;
    /// Chaos spec; unset = no chaos.
    std::optional<ChaosSpec> Chaos;
  };

  CompileService(); // all-default options
  explicit CompileService(Options Opts);
  ~CompileService(); // drains in-flight and queued work

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Admits one request. Returns a future that is already ready when the
  /// request was shed (Reject: Outcome = Overloaded; Degrade: an inline
  /// scalar-rung kernel). The module must outlive the future's result.
  std::future<CompileResult> submit(const ir::Module &M,
                                    const AkgOptions &Opts,
                                    const std::string &Name);

  /// The network front door: parses one composite-subgraph JSON payload
  /// (src/composite), normalizes away its transform ops, and admits the
  /// lowered module. The job owns the parsed module, so neither the
  /// payload string nor anything else must outlive the future. A payload
  /// the frontend rejects returns an already-ready future with Outcome =
  /// InvalidArgument (or Unsupported) carrying the structured diagnostics
  /// in the message; nothing is compiled and no trace is dumped. Because
  /// lowering canonicalizes the payload, textual variants of the same
  /// subgraph land on the same kernel-cache fingerprint triple.
  /// A payload whose top-level value is an ARRAY is a batch request and
  /// is rejected here with a diagnostic pointing at submitJsonBatch, so a
  /// graph engine that picked the wrong entry point finds out immediately
  /// instead of getting a confusing per-payload schema error.
  std::future<CompileResult> submitJson(const std::string &JsonText,
                                        const AkgOptions &Opts);

  /// The batched front door: a top-level JSON array of composite-subgraph
  /// payloads (one network's fused subgraphs in one request) fans out to
  /// one future per entry, in payload order. Each entry is admitted
  /// independently: a malformed entry yields an already-ready
  /// InvalidArgument future carrying that entry's diagnostics while its
  /// siblings compile normally, and structurally identical entries
  /// coalesce in the kernel cache. A non-array payload is treated as a
  /// batch of one (the submitJson path). A payload unusable as a whole
  /// (unparseable, or over composite::kMaxBatchEntries) returns a single
  /// ready error future.
  std::vector<std::future<CompileResult>>
  submitJsonBatch(const std::string &JsonText, const AkgOptions &Opts);

  /// Submits every job and waits; results in job order. Each job is
  /// admitted like a submit() call, so a batch larger than QueueDepth
  /// plus the workers sheds its tail: set QueueDepth to at least the job
  /// count to compile all of it.
  std::vector<CompileResult> compileAll(const std::vector<CompileJob> &Jobs);

  ServiceStats stats() const;
  Quarantine &quarantine() { return Quar; }
  unsigned threads() const { return Opt.Threads; }
  unsigned queueDepth() const { return Opt.QueueDepth; }
  ShedPolicy shedPolicy() const { return Opt.Shed; }

private:
  /// Common admission path. \p M may own the module (submitJson) or be a
  /// non-owning alias of caller-owned storage (submit).
  std::future<CompileResult> submitShared(std::shared_ptr<const ir::Module> M,
                                          const AkgOptions &Opts,
                                          const std::string &Name);

  CompileResult runOne(const ir::Module &M, AkgOptions Opts,
                       const std::string &Name,
                       std::shared_ptr<cancel::Context> Ctx);

  Options Opt; // Threads and QueueDepth normalized to at least 1
  Quarantine Quar;
  std::unique_ptr<ThreadPool> Pool;
  std::atomic<int64_t> Queued{0}; // admitted, not yet running

  std::atomic<int64_t> NSubmitted{0}, NCompleted{0}, NShed{0}, NDegraded{0},
      NQuarantined{0}, NRetries{0}, NFaults{0}, NDelays{0}, NHangs{0};
};

} // namespace akg

#endif // AKG_AKG_COMPILESERVICE_H
