//===- akg/KernelStore.h - On-disk content-addressed kernel store -*- C++ -*-//
//
// The persistence tier under akg/KernelCache (DESIGN.md 4i): compiled
// kernels serialized to a directory (KernelCacheConfig::DiskDir, from
// AKG_CACHE_DIR; the cache owns its store), keyed by the same
// content address the in-memory cache uses (structural module x
// options/machine x tensor-name binding). A service restart - or a
// second process sharing the directory - serves its first request for a
// known key from disk instead of recompiling.
//
// Layout and invariants:
//   * one entry file per key, "<module>-<options>-<binding>.akgk",
//     written to a temp file and atomically rename(2)d into place, so
//     concurrent readers (including other processes) never observe a
//     torn entry;
//   * every entry is self-verifying: magic, format-version salt (bumped
//     when codegen or the serialization format changes, invalidating
//     every stale entry at once), an echo of the key, payload length and
//     an FNV-1a checksum. Any mismatch - truncation, corruption, a
//     foreign file - is a clean miss, never a crash;
//   * a small mmap'd index file ("index.akgi", fixed-size slots, linear
//     probing) accelerates presence checks and records logical access
//     times for LRU eviction. The index is strictly advisory: entry
//     files are the source of truth, concurrent updates may tear, and a
//     header mismatch rebuilds it from a directory scan;
//   * a size cap (AKG_CACHE_MAX_BYTES) bounds the store; eviction drops
//     least-recently-used entries (index access time when known, file
//     mtime otherwise) until under the cap.
//
// Counters: cache.disk_hit / cache.disk_miss / cache.disk_store /
// cache.disk_corrupt / cache.disk_evict (AKG_STATS=1).
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_KERNELSTORE_H
#define AKG_AKG_KERNELSTORE_H

#include "akg/KernelCache.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace akg {

/// Format-version salt baked into every entry header and the index
/// header. Bump whenever the serialized format OR the code generator
/// changes in a way that should invalidate persisted kernels.
/// v2: target layer — cache keys mix the resolved target + SIMT spec,
/// kernels carry Target/BlockThreads/GridBlocks/MapDim fields.
constexpr uint64_t kKernelStoreVersion = 2;

/// Serializes the cache-worthy parts of a CompileResult (kernel,
/// reports, trace; not Mod, which is reconstructed lazily and unused by
/// cache consumers).
std::string serializeCompileResult(const CompileResult &R);

/// Inverse of serializeCompileResult. Returns false (leaving \p Out in
/// an unspecified state) on any malformed input.
bool deserializeCompileResult(const std::string &Bytes, CompileResult &Out);

struct KernelStoreStats {
  int64_t DiskHits = 0;
  int64_t DiskMisses = 0;
  int64_t Stores = 0;
  int64_t Corrupt = 0; // bad magic/version/key/checksum/payload => miss
  int64_t Evictions = 0;
};

class DiskKernelStore {
public:
  /// Opens (creating if needed) the store at \p Dir. MaxBytes <= 0
  /// means unbounded. The constructor never throws: an unusable
  /// directory just produces a store whose loads miss and whose stores
  /// are dropped.
  explicit DiskKernelStore(std::string Dir, int64_t MaxBytes = 0);
  ~DiskKernelStore();

  DiskKernelStore(const DiskKernelStore &) = delete;
  DiskKernelStore &operator=(const DiskKernelStore &) = delete;

  /// Loads the entry for \p K; null on miss (including every corruption
  /// mode). A hit refreshes the key's access time in the index.
  std::shared_ptr<const CompileResult> load(const CacheKey &K);

  /// Persists \p R under \p K (atomic temp-file + rename), then evicts
  /// LRU entries while the store exceeds the size cap. Results with a
  /// non-ok Outcome are never persisted.
  void store(const CacheKey &K, const CompileResult &R);

  /// Sum of entry-file sizes on disk (directory scan).
  int64_t sizeBytes() const;
  const std::string &dir() const { return Dir; }
  KernelStoreStats stats() const;

  /// Entry file name for a key: "<module>-<options>-<binding>.akgk".
  static std::string entryFileName(const CacheKey &K);

private:
  struct Index;

  std::string entryPath(const CacheKey &K) const;
  void evictOverCap();

  std::string Dir;
  int64_t MaxBytes = 0;
  bool Usable = false;
  mutable std::mutex Lock; // serializes this process; cross-process
                           // safety comes from atomic renames
  std::unique_ptr<Index> Idx;
  KernelStoreStats Counts;
};

} // namespace akg

#endif // AKG_AKG_KERNELSTORE_H
