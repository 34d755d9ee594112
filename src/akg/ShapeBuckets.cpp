//===- akg/ShapeBuckets.cpp - Shape-bucket scheme -------------------------===//

#include "akg/ShapeBuckets.h"

#include <sstream>

namespace akg {

BucketScheme::BucketScheme() : Bounds{16, 64, 256, 1024, 4096} {}

BucketScheme::BucketScheme(std::vector<int64_t> B) : Bounds(std::move(B)) {}

std::optional<BucketScheme> BucketScheme::parse(const std::string &Text) {
  std::vector<int64_t> Bounds;
  std::istringstream IS(Text);
  std::string Tok;
  while (std::getline(IS, Tok, ',')) {
    try {
      size_t Pos = 0;
      int64_t V = std::stoll(Tok, &Pos);
      if (Pos != Tok.size() || V < 1 ||
          (!Bounds.empty() && V <= Bounds.back()))
        return std::nullopt;
      Bounds.push_back(V);
    } catch (...) {
      return std::nullopt;
    }
  }
  if (Bounds.empty())
    return std::nullopt;
  return BucketScheme(std::move(Bounds));
}

std::optional<ShapeBucket> BucketScheme::bucketFor(int64_t E) const {
  if (E < 1)
    return std::nullopt;
  int64_t Lo = 1;
  for (int64_t Hi : Bounds) {
    if (E <= Hi)
      return ShapeBucket{Lo, Hi};
    Lo = Hi + 1;
  }
  return std::nullopt; // beyond the last bound: per-shape fallback
}

std::string BucketScheme::bucketId(const ShapeBucket &B) {
  return "b" + std::to_string(B.Hi);
}

} // namespace akg
