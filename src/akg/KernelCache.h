//===- akg/KernelCache.h - Content-addressed kernel cache -------*- C++ -*-===//
//
// A process-wide cache of CompileResults keyed by *what* is compiled,
// not by the module object or its names: the key is a canonical
// structural fingerprint of the prepared ir::Module (tensors and
// iteration variables alpha-renamed to their positions) combined with a
// fingerprint of every compilation knob that can change the emitted
// kernel (AkgOptions, including the machine model, the target and the
// fault-injection stage). Two structurally identical subgraphs produced
// by different networks - or the same subgraph requested hundreds of
// times per training step by the graph engine - therefore compile once.
//
// The cache is safe for concurrent use by the compile service. Lookups
// that race with an in-flight compile of the same key coalesce onto the
// first compile (single-flight) instead of duplicating the work. Cached
// results are immutable by contract; a hit returns a copy whose
// instruction list is shared with the cached entry.
//
// When KernelCacheConfig::DiskDir is set (AKG_CACHE_DIR), the cache is
// tiered: memory -> on-disk content-addressed store (akg/KernelStore.h,
// owned by this cache) -> compile. A memory miss consults the disk store
// before compiling (inside the single-flight leader, so coalesced waiters
// share one disk load too), and successful compiles are persisted for
// future processes.
//
// Hit/miss/eviction counters are surfaced through Stats
// ("kernel_cache.*", printed under AKG_STATS=1) and through stats().
// The warm path additionally splits where a request was served from:
// "cache.hit_memory" / "cache.hit_disk" / "cache.hit_coalesced".
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_KERNELCACHE_H
#define AKG_AKG_KERNELCACHE_H

#include "akg/Compiler.h"
#include "akg/ShapeBuckets.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace akg {

/// Canonical structural fingerprint of a module: stable under renaming
/// of tensors, compute ops and iteration variables, sensitive to
/// structure (op graph, expression trees, shapes, extents, dtypes,
/// reduction kinds, intrinsic names).
uint64_t fingerprintModule(const ir::Module &M);

/// Fingerprint of a machine model (every capacity/cost parameter).
uint64_t fingerprintMachine(const sim::MachineSpec &S);

/// Fingerprint of every option that can change the emitted kernel:
/// scheduler knobs, codegen knobs + machine models, sync strategy, manual
/// tiles, budgets, the fault-injection stage and the target.
/// RequestDeadlineMs, Cancel and AstGen.UseMemo are left out: they never
/// change the kernel a finished compile emits.
uint64_t fingerprintOptions(const AkgOptions &O);

/// Fingerprint of the module's tensor names (inputs + op outputs in
/// creation order). CCE kernels address global tensors *by name*, so a
/// cached kernel is only bindable by a module with the same names: the
/// cache key qualifies the alpha-renamed structural fingerprint with
/// this binding fingerprint. Structurally identical subgraphs from the
/// same builders (the graph-engine case) share names and still dedupe.
uint64_t bindingFingerprint(const ir::Module &M);

/// The content address of one compile.
struct CacheKey {
  uint64_t ModuleFp = 0;
  uint64_t OptionsFp = 0;
  uint64_t BindingFp = 0;
  bool operator==(const CacheKey &O) const {
    return ModuleFp == O.ModuleFp && OptionsFp == O.OptionsFp &&
           BindingFp == O.BindingFp;
  }
};

CacheKey makeCacheKey(const ir::Module &M, const AkgOptions &O);

/// Bucketed key of a dynamic-shape skeleton (DESIGN.md 4k): the ordinary
/// content address of the skeleton module salted with \p BucketKey (the
/// bucket-scheme bounds + per-symbol bucket ids from dynshape::plan), so
/// bucketed entries never alias plain concrete compiles at the same
/// shapes or entries produced under different bucket bounds.
CacheKey makeBucketedCacheKey(const ir::Module &Skeleton,
                              const AkgOptions &O,
                              const std::string &BucketKey);

/// Hash for CacheKey-keyed maps (the cache itself, the quarantine).
struct CacheKeyHash {
  size_t operator()(const CacheKey &K) const {
    return size_t((K.ModuleFp * 0x9e3779b97f4a7c15ull ^ K.OptionsFp) *
                      0xbf58476d1ce4e5b9ull ^
                  K.BindingFp);
  }
};

struct KernelCacheStats {
  int64_t Hits = 0;      // served from a completed in-memory entry
  int64_t Coalesced = 0; // waited on another thread's in-flight compile
  int64_t Misses = 0;    // not in memory: went to the disk tier / compile
  int64_t DiskHits = 0;  // memory miss served by the on-disk store
  int64_t Evictions = 0; // LRU entries dropped at capacity
  /// Single-flight leaders whose compile failed or was cancelled: their
  /// result is not cached and coalesced waiters retried under their own
  /// deadlines instead of inheriting the failure ("cache.leader_failed").
  int64_t LeaderFailed = 0;
  /// Dynamic-shape requests served through a bucket skeleton (concrete
  /// extents late-bound onto a shared cached kernel, "dynshape.bind").
  int64_t DynBinds = 0;
  /// Dynamic-shape requests that fell back to per-shape compilation
  /// (unsupported structure, out-of-range extent, shape-dependent
  /// dependence structure, or a failed skeleton compile).
  int64_t DynFallbacks = 0;

  double hitRate() const {
    int64_t Total = Hits + Coalesced + Misses;
    return Total ? double(Hits + Coalesced + DiskHits) / double(Total) : 0.0;
  }
};

class DiskKernelStore;

/// How a KernelCache is built. The defaults are a memory-only cache with
/// dynamic-shape bucketing on; akg/Environment.h fills the rest from
/// AKG_CACHE_DIR, AKG_CACHE_MAX_BYTES, AKG_DYNSHAPE and AKG_SHAPE_BUCKETS.
struct KernelCacheConfig {
  /// In-memory LRU capacity.
  size_t MaxEntries = 1024;
  /// Directory of the on-disk tier; empty = no disk tier.
  std::string DiskDir;
  /// Size cap of the disk tier in bytes; 0 = unbounded.
  int64_t DiskMaxBytes = 0;
  /// Serve modules with shape-symbol marks through bucket skeletons
  /// (DESIGN.md 4k); off compiles every shape separately.
  bool DynShape = true;
  BucketScheme Buckets;
};

class KernelCache {
public:
  KernelCache();
  explicit KernelCache(KernelCacheConfig Cfg);
  ~KernelCache();

  KernelCache(const KernelCache &) = delete;
  KernelCache &operator=(const KernelCache &) = delete;

  /// The compile function a cache miss runs; injectable for tests and
  /// the service's chaos layer. Defaults to compileWithAkg.
  using CompileFn = std::function<CompileResult(
      const ir::Module &, const AkgOptions &, const std::string &)>;

  /// The cache-through compile: returns the cached result when the
  /// content address matches, otherwise compiles with compileWithAkg and
  /// caches. The returned result carries \p Name as its kernel name
  /// regardless of which name the cached compile ran under.
  ///
  /// Failure semantics (DESIGN.md 4h): a result with a non-ok Outcome is
  /// returned to the requester but never inserted into the cache, and a
  /// single-flight leader that fails or is cancelled wakes its coalesced
  /// waiters immediately - they retry under their own deadline/token
  /// (possibly becoming the next leader) instead of inheriting the
  /// leader's failure or timing out. A waiter whose own cancel context
  /// trips while coalesced throws CancelledError.
  ///
  /// Dynamic shapes (DESIGN.md 4k): when \p M carries shape-symbol marks
  /// and the config enables DynShape, the request is canonicalized to its
  /// bucket skeleton and served under the bucketed key; the returned
  /// result then carries a ShapeBinding (DynShape) for late-bound
  /// execution. Every admission failure falls back to the plain
  /// per-shape path below, so correctness never depends on bucketing.
  CompileResult compileOrGet(const ir::Module &M, const AkgOptions &Opts,
                             const std::string &Name);
  CompileResult compileOrGet(const ir::Module &M, const AkgOptions &Opts,
                             const std::string &Name, const CompileFn &Fn);

  /// Raw lookup; null on miss. Counts a hit when found.
  std::shared_ptr<const CompileResult> lookup(const CacheKey &K);

  /// Inserts (or replaces) an entry, evicting the least recently used
  /// entry when over capacity.
  void insert(const CacheKey &K, CompileResult R);

  KernelCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return Cfg.MaxEntries; }
  void clear();

  /// The process-wide default-config cache the compile service uses
  /// unless its options name another.
  static KernelCache &global();

private:
  using KeyHash = CacheKeyHash;
  struct Entry {
    CacheKey Key;
    std::shared_ptr<const CompileResult> Result;
  };
  struct InFlight {
    std::shared_ptr<const CompileResult> Result; // set when Done
    bool Done = false;
    /// Leader failed or was cancelled: Result is not cache-worthy (null
    /// on an escaped exception); waiters consult Err and retry.
    bool Failed = false;
    Status Err;
    std::condition_variable Ready;
  };

  std::shared_ptr<const CompileResult> lookupLocked(const CacheKey &K);
  void insertLocked(const CacheKey &K,
                    std::shared_ptr<const CompileResult> R);
  /// The single-flight cache-through compile under an explicit key (the
  /// plain content address, or the bucketed skeleton key).
  CompileResult compileOrGetKeyed(const CacheKey &K, const ir::Module &M,
                                  const AkgOptions &Opts,
                                  const std::string &Name,
                                  const CompileFn &Fn);

  const KernelCacheConfig Cfg;
  const std::unique_ptr<DiskKernelStore> Disk;
  mutable std::mutex Lock;
  std::list<Entry> Lru; // front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> Map;
  std::unordered_map<CacheKey, std::shared_ptr<InFlight>, KeyHash> Pending;
  KernelCacheStats Counts;
};

} // namespace akg

#endif // AKG_AKG_KERNELCACHE_H
