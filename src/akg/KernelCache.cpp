//===- akg/KernelCache.cpp - Content-addressed kernel cache ---------------===//

#include "akg/KernelCache.h"

#include "akg/DynShape.h"
#include "akg/KernelStore.h"
#include "support/Stats.h"

#include <chrono>
#include <cstring>
#include <unordered_map>

namespace akg {

using namespace ir;

namespace {

/// A cache-served result keeps the original compile's trace but leads
/// with a synthetic event marking how this request was satisfied, so
/// AKG_TRACE dumps distinguish real compiles from cache service.
CompileResult serveCached(const CompileResult &R, const std::string &Name,
                          const char *Event,
                          const char *Tier = "kernel cache") {
  CompileResult Out = R;
  Out.Kernel.Name = Name;
  Out.Trace.Kernel = Name;
  Out.Trace.CacheHit = true;
  TraceEvent E;
  E.Pass = Event;
  E.Note = std::string("served by ") + Tier +
           "; events below are the original compile";
  Out.Trace.Events.insert(Out.Trace.Events.begin(), std::move(E));
  trace::maybeDump(Out.Trace);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprinting
//===----------------------------------------------------------------------===//

namespace {

/// splitmix64-style combiner: strong enough that every field flip lands
/// on a different 64-bit value with overwhelming probability.
inline void mix(uint64_t &H, uint64_t V) {
  V += 0x9e3779b97f4a7c15ull;
  V = (V ^ (V >> 30)) * 0xbf58476d1ce4e5b9ull;
  V = (V ^ (V >> 27)) * 0x94d049bb133111ebull;
  V ^= V >> 31;
  H = (H ^ V) * 1099511628211ull + 0x2545f4914f6cdd1dull;
}

inline uint64_t bitsOf(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof U);
  return U;
}

inline void mixString(uint64_t &H, const std::string &S) {
  mix(H, S.size());
  for (char C : S)
    mix(H, static_cast<unsigned char>(C));
}

/// Hashes expressions with alpha-renaming: tensors hash as their
/// position in the module (inputs first, then op outputs, in creation
/// order) and iteration variables hash as their position in the
/// enclosing op's axis list (or reduce-axis list). Intrinsic names are
/// semantic and hash as text.
struct ModuleHasher {
  std::unordered_map<const TensorDecl *, uint64_t> TensorId;
  std::unordered_map<std::string, uint64_t> VarId; // reset per op

  void hashExpr(uint64_t &H, const Expr &E) {
    if (!E) {
      mix(H, 0x6e756c6cull); // "null"
      return;
    }
    mix(H, static_cast<uint64_t>(E->Kind));
    mix(H, static_cast<uint64_t>(E->Type));
    switch (E->Kind) {
    case ExprKind::IntImm:
      mix(H, static_cast<uint64_t>(E->IntVal));
      break;
    case ExprKind::FloatImm:
      mix(H, bitsOf(E->FloatVal));
      break;
    case ExprKind::Var: {
      auto It = VarId.find(E->Name);
      if (It != VarId.end()) {
        mix(H, It->second);
      } else {
        // Free variable (should not happen in a well-formed module):
        // hash the raw name so distinct frees stay distinct.
        mix(H, 0x66726565ull); // "free"
        mixString(H, E->Name);
      }
      break;
    }
    case ExprKind::Call:
      mixString(H, E->Name);
      break;
    case ExprKind::TensorRead: {
      auto It = TensorId.find(E->Ref.get());
      if (It != TensorId.end()) {
        mix(H, It->second);
      } else {
        // Foreign tensor: fall back to its structure.
        mix(H, 0x666f7265ull); // "fore"
        if (E->Ref) {
          mix(H, static_cast<uint64_t>(E->Ref->Type));
          mix(H, E->Ref->Shape.size());
          for (int64_t S : E->Ref->Shape)
            mix(H, static_cast<uint64_t>(S));
        }
      }
      break;
    }
    case ExprKind::Reduce: {
      mix(H, static_cast<uint64_t>(E->RKind));
      mix(H, E->ReduceAxes.size());
      for (size_t J = 0; J < E->ReduceAxes.size(); ++J) {
        mix(H, static_cast<uint64_t>(E->ReduceAxes[J].Extent));
        VarId[E->ReduceAxes[J].Name] = 0x10000 + J;
      }
      break;
    }
    default:
      break;
    }
    mix(H, E->Operands.size());
    for (const Expr &Op : E->Operands)
      hashExpr(H, Op);
  }
};

} // namespace

uint64_t fingerprintModule(const Module &M) {
  uint64_t H = 0x616b672d6d6f64ull; // "akg-mod"
  ModuleHasher MH;
  uint64_t NextId = 1;
  mix(H, M.inputs().size());
  for (const Tensor &T : M.inputs()) {
    MH.TensorId[T.get()] = NextId++;
    mix(H, static_cast<uint64_t>(T->Type));
    mix(H, T->Shape.size());
    for (int64_t S : T->Shape)
      mix(H, static_cast<uint64_t>(S));
  }
  mix(H, M.ops().size());
  for (const auto &Op : M.ops()) {
    MH.VarId.clear();
    mix(H, Op->Axis.size());
    for (size_t I = 0; I < Op->Axis.size(); ++I) {
      mix(H, static_cast<uint64_t>(Op->Axis[I].Extent));
      mix(H, Op->Axis[I].IsReduce ? 1 : 0);
      MH.VarId[Op->Axis[I].Name] = 0x100 + I;
    }
    const Tensor &Out = Op->Output;
    MH.TensorId[Out.get()] = NextId++;
    mix(H, static_cast<uint64_t>(Out->Type));
    mix(H, Out->Shape.size());
    for (int64_t S : Out->Shape)
      mix(H, static_cast<uint64_t>(S));
    MH.hashExpr(H, Op->Body);
  }
  return H;
}

uint64_t fingerprintMachine(const sim::MachineSpec &S) {
  uint64_t H = 0x616b672d6d6163ull; // "akg-mac"
  for (int64_t V :
       {S.L1Bytes, S.UBBytes, S.L0ABytes, S.L0BBytes, S.L0CBytes,
        S.GmBandwidth, S.GmLatency, S.OnChipBandwidth, S.OnChipLatency,
        S.BurstLatency, S.CubeM, S.CubeN, S.CubeK, S.CubeStartup,
        S.VectorLanes, S.VectorIssue, S.ScalarCost, S.SyncCost})
    mix(H, static_cast<uint64_t>(V));
  return H;
}

uint64_t fingerprintSimt(const sim::SimtSpec &S) {
  uint64_t H = 0x616b672d736d74ull; // "akg-smt"
  for (int64_t V :
       {S.NumSMs, S.MaxBlocksPerSM, S.MaxThreadsPerBlock, S.WarpSize,
        S.SharedMemBytes, S.RegisterBytes, S.GlobalBandwidth,
        S.GlobalLatency, S.CoalesceBytes, S.TransactionCost,
        S.SharedLatency, S.SharedBandwidth, S.IssueCost, S.ScalarCost,
        S.BarrierCost, S.LaunchLatency})
    mix(H, static_cast<uint64_t>(V));
  return H;
}

uint64_t fingerprintOptions(const AkgOptions &O) {
  uint64_t H = 0x616b672d6f7074ull; // "akg-opt"
  const sched::SchedulerOptions &S = O.Scheduler;
  mix(H, static_cast<uint64_t>(S.Fusion));
  mix(H, S.AllowSkew ? 1 : 0);
  mix(H, S.AllowShift ? 1 : 0);
  mix(H, static_cast<uint64_t>(S.CoeffBound));
  mix(H, static_cast<uint64_t>(S.ShiftBound));
  mix(H, S.UseBoundingFunction ? 1 : 0);
  mix(H, static_cast<uint64_t>(S.IlpNodeBudget));
  mix(H, bitsOf(S.DeadlineSeconds));
  mix(H, S.ForceFallback ? 1 : 0);

  mix(H, fingerprintMachine(O.Codegen.Machine));
  mix(H, O.Codegen.EnableVectorize ? 1 : 0);
  mix(H, O.Codegen.EnableDoubleBuffer ? 1 : 0);

  mix(H, static_cast<uint64_t>(O.Sync));

  mix(H, O.ManualTiles.has_value() ? 1 : 0);
  if (O.ManualTiles) {
    mix(H, O.ManualTiles->PerStmt.size());
    for (const auto &[Id, Spec] : O.ManualTiles->PerStmt) {
      mix(H, Id);
      mix(H, Spec.Entries.size());
      for (const transforms::TileSpecEntry &E : Spec.Entries) {
        mix(H, static_cast<uint64_t>(E.Size));
        mixString(H, E.BufferName);
      }
    }
  }

  mix(H, O.EnablePostTilingFusion ? 1 : 0);
  mix(H, O.EnableIntraTile ? 1 : 0);
  mix(H, O.EnableInlining ? 1 : 0);
  mix(H, O.MaxTileRetries);
  mix(H, bitsOf(O.Budget.DeadlineSeconds));
  mix(H, static_cast<uint64_t>(O.Budget.IlpNodeBudget));
  mix(H, static_cast<uint64_t>(O.FailStage));
  // cce and simt kernels must never alias, and any SIMT machine-model
  // change invalidates simt entries (mirroring how fingerprintMachine
  // covers the CCE spec above).
  mix(H, static_cast<uint64_t>(O.Target));
  mix(H, fingerprintSimt(O.Codegen.Simt));
  // Deliberately NOT mixed: RequestDeadlineMs, Cancel and AstGen.UseMemo.
  // They change only whether or how fast a compile finishes, never what
  // kernel a finished compile emits - and results with a non-ok Outcome
  // are never inserted - so requests differing only in them must share a
  // cache line.
  return H;
}

uint64_t bindingFingerprint(const Module &M) {
  uint64_t H = 0x616b672d626e64ull; // "akg-bnd"
  for (const Tensor &T : M.allTensors())
    mixString(H, T->Name);
  return H;
}

CacheKey makeCacheKey(const Module &M, const AkgOptions &O) {
  return CacheKey{fingerprintModule(M), fingerprintOptions(O),
                  bindingFingerprint(M)};
}

CacheKey makeBucketedCacheKey(const Module &Skeleton, const AkgOptions &O,
                              const std::string &BucketKey) {
  CacheKey K = makeCacheKey(Skeleton, O);
  mixString(K.ModuleFp, BucketKey);
  return K;
}

//===----------------------------------------------------------------------===//
// KernelCache
//===----------------------------------------------------------------------===//

KernelCache::KernelCache() : KernelCache(KernelCacheConfig()) {}

KernelCache::KernelCache(KernelCacheConfig C)
    : Cfg(std::move(C)),
      Disk(Cfg.DiskDir.empty()
               ? nullptr
               : std::make_unique<DiskKernelStore>(Cfg.DiskDir,
                                                   Cfg.DiskMaxBytes)) {}

KernelCache::~KernelCache() = default;

std::shared_ptr<const CompileResult>
KernelCache::lookupLocked(const CacheKey &K) {
  auto It = Map.find(K);
  if (It == Map.end())
    return nullptr;
  // Touch: move to the front of the LRU list.
  Lru.splice(Lru.begin(), Lru, It->second);
  return It->second->Result;
}

void KernelCache::insertLocked(const CacheKey &K,
                               std::shared_ptr<const CompileResult> R) {
  auto It = Map.find(K);
  if (It != Map.end()) {
    It->second->Result = std::move(R);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.push_front(Entry{K, std::move(R)});
  Map[K] = Lru.begin();
  while (Map.size() > Cfg.MaxEntries) {
    Map.erase(Lru.back().Key);
    Lru.pop_back();
    ++Counts.Evictions;
    if (Stats::enabled())
      Stats::get().add("kernel_cache.evict");
  }
}

std::shared_ptr<const CompileResult> KernelCache::lookup(const CacheKey &K) {
  std::lock_guard<std::mutex> G(Lock);
  auto R = lookupLocked(K);
  if (R) {
    ++Counts.Hits;
    if (Stats::enabled()) {
      Stats::get().add("kernel_cache.hit");
      Stats::get().add("cache.hit_memory");
    }
  }
  return R;
}

void KernelCache::insert(const CacheKey &K, CompileResult R) {
  std::lock_guard<std::mutex> G(Lock);
  insertLocked(K, std::make_shared<const CompileResult>(std::move(R)));
}

CompileResult KernelCache::compileOrGet(const Module &M,
                                        const AkgOptions &Opts,
                                        const std::string &Name) {
  return compileOrGet(M, Opts, Name,
                      [](const Module &Mod, const AkgOptions &O,
                         const std::string &N) {
                        return compileWithAkg(Mod, O, N);
                      });
}

CompileResult KernelCache::compileOrGet(const Module &M,
                                        const AkgOptions &Opts,
                                        const std::string &Name,
                                        const CompileFn &Fn) {
  // Dynamic-shape path: canonicalize to the bucket skeleton, serve under
  // the bucketed key, and attach the late-binding metadata. Any
  // admission failure - or a failed skeleton compile - drops to the
  // plain per-shape path below, so bucketing can only add reuse, never
  // change what a request is allowed to compute.
  if (Cfg.DynShape && ir::hasDynamicDims(M)) {
    if (Stats::enabled())
      Stats::get().add("dynshape.request");
    dynshape::Plan P = dynshape::plan(M, Cfg.Buckets);
    if (P.Usable) {
      CacheKey BK = makeBucketedCacheKey(*P.Skeleton, Opts, P.BucketKey);
      CompileResult R = compileOrGetKeyed(BK, *P.Skeleton, Opts, Name, Fn);
      if (R.Outcome.isOk()) {
        R.DynShape = P.Binding;
        cce::stampExtentRegs(R.Kernel, *P.Skeleton);
        {
          std::lock_guard<std::mutex> G(Lock);
          ++Counts.DynBinds;
        }
        if (Stats::enabled())
          Stats::get().add("dynshape.bind");
        TraceEvent E;
        E.Pass = "dynshape_bind";
        E.Note = "bound to bucket skeleton (" + P.BucketKey + ")";
        R.Trace.Events.insert(R.Trace.Events.begin(), std::move(E));
        return R;
      }
      trace::debugEcho("dynshape: skeleton compile failed (" +
                       R.Outcome.str() + ") for '" + Name +
                       "'; retrying per-shape");
    } else {
      trace::debugEcho("dynshape: fallback for '" + Name + "': " +
                       P.FallbackReason);
    }
    std::lock_guard<std::mutex> G(Lock);
    ++Counts.DynFallbacks;
  }
  return compileOrGetKeyed(makeCacheKey(M, Opts), M, Opts, Name, Fn);
}

CompileResult KernelCache::compileOrGetKeyed(const CacheKey &K,
                                             const Module &M,
                                             const AkgOptions &Opts,
                                             const std::string &Name,
                                             const CompileFn &Fn) {
  // The retry loop only repeats after a failed leader: waiters woken
  // with Failed re-enter the lookup under their own deadline/token and
  // may find a completed entry, coalesce onto a new leader, or become
  // the leader themselves.
  for (;;) {
    std::shared_ptr<InFlight> Flight;
    bool Leader = false;
    {
      std::lock_guard<std::mutex> G(Lock);
      if (auto R = lookupLocked(K)) {
        ++Counts.Hits;
        if (Stats::enabled()) {
          Stats::get().add("kernel_cache.hit");
          Stats::get().add("cache.hit_memory");
        }
        return serveCached(*R, Name, "cache_hit");
      }
      auto It = Pending.find(K);
      if (It != Pending.end()) {
        Flight = It->second;
        ++Counts.Coalesced;
        if (Stats::enabled()) {
          Stats::get().add("kernel_cache.coalesced");
          Stats::get().add("cache.hit_coalesced");
        }
      } else {
        Flight = std::make_shared<InFlight>();
        Pending.emplace(K, Flight);
        Leader = true;
        ++Counts.Misses;
        if (Stats::enabled())
          Stats::get().add("kernel_cache.miss");
      }
    }
    if (!Leader) {
      // Another thread is compiling this exact content; wait for it
      // instead of duplicating the work (single-flight). The bounded
      // wait_for only paces the cancel poll - a notify still wakes the
      // waiter immediately - so a coalesced waiter honors its own
      // deadline/token even while the leader runs.
      {
        std::unique_lock<std::mutex> G(Lock);
        while (!Flight->Done) {
          Flight->Ready.wait_for(G, std::chrono::milliseconds(2));
          if (!Flight->Done && cancel::interrupted() != ErrCode::Ok) {
            G.unlock();
            cancel::checkPoint("cache_wait"); // throws
          }
        }
      }
      if (!Flight->Failed)
        return serveCached(*Flight->Result, Name, "cache_coalesced");
      trace::debugEcho("kernel_cache: leader failed (" + Flight->Err.str() +
                       ") for '" + Name + "'; waiter retrying");
      continue;
    }
    // Leader: memory missed. Consult the on-disk store first, then
    // compile - both outside the lock, so coalesced waiters share one
    // disk load exactly like they share one compile.
    std::shared_ptr<const CompileResult> R;
    bool FromDisk = false;
    if (Disk)
      if (auto D = Disk->load(K)) {
        R = std::move(D);
        FromDisk = true;
      }
    if (!R)
    try {
      R = std::make_shared<const CompileResult>(Fn(M, Opts, Name));
    } catch (...) {
      // compileWithAkg degrades internally and does not throw; injected
      // compile functions (tests, chaos) and a CancelledError from a
      // nested coalesced wait can. Waiters must never inherit the
      // exception or time out: mark the flight failed and wake them all.
      {
        std::lock_guard<std::mutex> G(Lock);
        ++Counts.LeaderFailed;
        if (Stats::enabled())
          Stats::get().add("cache.leader_failed");
        Flight->Err =
            Status::error(ErrCode::Internal, "leader compile threw");
        Flight->Failed = true;
        Flight->Done = true;
        Pending.erase(K);
      }
      Flight->Ready.notify_all();
      throw;
    }
    {
      std::lock_guard<std::mutex> G(Lock);
      if (R->Outcome.isOk()) {
        insertLocked(K, R);
        if (FromDisk) {
          ++Counts.DiskHits;
          if (Stats::enabled())
            Stats::get().add("cache.hit_disk");
        }
      } else {
        // A deadline-exceeded / cancelled / faulted compile must never
        // poison the cache (its kernel is the scalar unwind stub), and
        // its waiters retry rather than inherit this request's fate.
        ++Counts.LeaderFailed;
        if (Stats::enabled())
          Stats::get().add("cache.leader_failed");
        Flight->Err = R->Outcome;
        Flight->Failed = true;
      }
      Flight->Result = R;
      Flight->Done = true;
      Pending.erase(K);
    }
    Flight->Ready.notify_all();
    if (FromDisk)
      return serveCached(*R, Name, "cache_hit", "on-disk kernel store");
    // Persist fresh successful compiles so a restarted service (or a
    // second process sharing the directory) skips this compile forever.
    if (Disk && R->Outcome.isOk())
      Disk->store(K, *R);
    return *R;
  }
}

KernelCacheStats KernelCache::stats() const {
  std::lock_guard<std::mutex> G(Lock);
  return Counts;
}

size_t KernelCache::size() const {
  std::lock_guard<std::mutex> G(Lock);
  return Map.size();
}

void KernelCache::clear() {
  std::lock_guard<std::mutex> G(Lock);
  Lru.clear();
  Map.clear();
  Counts = KernelCacheStats();
}

KernelCache &KernelCache::global() {
  static KernelCache C;
  return C;
}

} // namespace akg
