//===- akg/ShapeBuckets.h - Shape-bucket scheme -----------------*- C++ -*-===//
//
// The extent-bucketing scheme of the dynamic-shape cache (DESIGN.md 4k).
// Extents partition into power-of-two-ish ranges [1,16], (16,64],
// (64,256], (256,1024], (1024,4096]; each bucket's REPRESENTATIVE is its
// upper bound, the extent the skeleton kernel is compiled at. Requests
// whose extent exceeds the last bound fall back to per-shape compilation.
// KernelCacheConfig::Buckets (AKG_SHAPE_BUCKETS, "16,64,256" etc. --
// strictly increasing positive integers) overrides the bounds; the bucket
// id that enters the cache key is the bound itself, so differently
// configured caches never alias entries.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_SHAPEBUCKETS_H
#define AKG_AKG_SHAPEBUCKETS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace akg {

/// One extent bucket: the half-open-below range (Lo-1, Hi], i.e. extents
/// Lo..Hi inclusive. Representative (skeleton compile extent) is Hi.
struct ShapeBucket {
  int64_t Lo = 1;
  int64_t Hi = 1;

  int64_t representative() const { return Hi; }
  bool contains(int64_t E) const { return E >= Lo && E <= Hi; }
};

/// An ordered list of bucket upper bounds.
class BucketScheme {
public:
  /// Default bounds 16, 64, 256, 1024, 4096.
  BucketScheme();
  explicit BucketScheme(std::vector<int64_t> Bounds);

  /// Scheme from comma-separated strictly increasing positive bounds
  /// ("16,64,256"); nullopt when \p Text is empty or malformed.
  static std::optional<BucketScheme> parse(const std::string &Text);

  const std::vector<int64_t> &bounds() const { return Bounds; }

  /// Bucket containing extent \p E; nullopt when E < 1 or beyond the last
  /// bound (callers fall back to per-shape compilation).
  std::optional<ShapeBucket> bucketFor(int64_t E) const;

  /// Stable id string of the bucket ("b16", "b64", ...) used inside the
  /// bucketed cache fingerprint.
  static std::string bucketId(const ShapeBucket &B);

private:
  std::vector<int64_t> Bounds;
};

} // namespace akg

#endif // AKG_AKG_SHAPEBUCKETS_H
