// Seeded workload plans. Every input the benchmark feeds the runtime — the
// message-size order of each pingpong class, the collective sequence, the
// NAS kernel order — is drawn here from --seed, so the same seed replays
// the same inputs and a different seed reorders them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <vector>

#include "common/checksum.hpp"
#include "common/common.hpp"

namespace perfbench {

using nemo::KiB;
using nemo::MiB;

/// Pingpong size classes: `small` stays on the fastbox/eager cells,
/// `medium` straddles the eager -> LMT activation edge, `large` is
/// copy-bound (8 MiB is 4x a 2 MiB per-core L2).
enum class SizeClass { kSmall = 0, kMedium = 1, kLarge = 2 };
inline constexpr int kSizeClasses = 3;

inline const char* class_name(SizeClass c) {
  switch (c) {
    case SizeClass::kSmall: return "small";
    case SizeClass::kMedium: return "medium";
    case SizeClass::kLarge: return "large";
  }
  return "?";
}

/// Powers of two from `lo` to `hi` inclusive.
inline std::vector<std::size_t> pow2_sizes(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t s = lo; s <= hi; s *= 2) v.push_back(s);
  return v;
}

inline std::vector<std::size_t> class_sizes(SizeClass c) {
  switch (c) {
    case SizeClass::kSmall: return pow2_sizes(8, 1 * KiB);
    case SizeClass::kMedium: return pow2_sizes(4 * KiB, 128 * KiB);
    case SizeClass::kLarge: return pow2_sizes(512 * KiB, 8 * MiB);
  }
  return {};
}

/// Collective operations of the coll phase, in registry order.
enum class CollOp {
  kAllreduce8b = 0,
  kAllreduce1m,
  kAlltoall256k,
  kBcast1m,
  kBarrier,
};
inline constexpr int kCollOps = 5;

inline const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kAllreduce8b: return "allreduce_8b";
    case CollOp::kAllreduce1m: return "allreduce_1m";
    case CollOp::kAlltoall256k: return "alltoall_256k";
    case CollOp::kBcast1m: return "bcast_1m";
    case CollOp::kBarrier: return "barrier";
  }
  return "?";
}

/// Endless stream of rounds; each round is a fresh seeded permutation of
/// [0, n). Every round holds each item exactly once, so any number of whole
/// rounds keeps the mix exact while the order varies with the seed.
class SeededOrder {
 public:
  SeededOrder(std::uint64_t seed, std::string_view stream, std::size_t n)
      : rng_(seed ^ nemo::fnv1a(std::as_bytes(
                        std::span(stream.data(), stream.size())))),
        round_(n) {
    std::iota(round_.begin(), round_.end(), std::size_t{0});
  }

  /// The next round's permutation (Fisher-Yates over the previous one).
  const std::vector<std::size_t>& next_round() {
    for (std::size_t i = round_.size(); i > 1; --i)
      std::swap(round_[i - 1], round_[rng_.next() % i]);
    return round_;
  }

 private:
  nemo::SplitMix64 rng_;
  std::vector<std::size_t> round_;
};

/// Pattern seed for one payload: a pure function of the run seed and the
/// payload's coordinates, so both ends derive the same expected bytes.
inline std::uint64_t payload_seed(std::uint64_t seed, std::uint64_t a,
                                  std::uint64_t b = 0, std::uint64_t c = 0) {
  nemo::SplitMix64 m(seed ^ (a * 0x9e3779b97f4a7c15ull) ^
                     (b * 0xc2b2ae3d27d4eb4full) ^ (c * 0x165667b19e3779f9ull));
  return m.next();
}

}  // namespace perfbench
