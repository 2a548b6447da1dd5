// Topology presets, cache-sharing queries, and placement classification —
// the inputs to the paper's DMAmin formula.
#include <gtest/gtest.h>

#include "common/common.hpp"
#include "common/topology.hpp"

namespace nemo {
namespace {

TEST(Topology, E5345Shape) {
  Topology t = xeon_e5345();
  EXPECT_EQ(t.num_cores, 8);
  // Cores 0,1 share a die-level 4 MiB L2; 0,2 do not.
  auto shared = t.shared_cache(0, 1);
  ASSERT_TRUE(shared.has_value());
  EXPECT_EQ(shared->level, 2);
  EXPECT_EQ(shared->size_bytes, 4 * MiB);
  EXPECT_FALSE(t.shared_cache(0, 2).has_value());
  EXPECT_FALSE(t.shared_cache(0, 7).has_value());
}

TEST(Topology, E5345Placements) {
  Topology t = xeon_e5345();
  EXPECT_EQ(t.classify(0, 1), PairPlacement::kSharedCache);
  EXPECT_EQ(t.classify(0, 2), PairPlacement::kSameSocketNoShare);
  EXPECT_EQ(t.classify(0, 4), PairPlacement::kDifferentSockets);
  auto p1 = t.find_pair(PairPlacement::kSharedCache);
  auto p2 = t.find_pair(PairPlacement::kSameSocketNoShare);
  auto p3 = t.find_pair(PairPlacement::kDifferentSockets);
  ASSERT_TRUE(p1 && p2 && p3);
  EXPECT_EQ(t.classify(p1->first, p1->second), PairPlacement::kSharedCache);
  EXPECT_EQ(t.classify(p2->first, p2->second),
            PairPlacement::kSameSocketNoShare);
  EXPECT_EQ(t.classify(p3->first, p3->second),
            PairPlacement::kDifferentSockets);
}

TEST(Topology, LargestCacheAndSharers) {
  Topology t = xeon_e5345();
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(t.largest_cache(c).size_bytes, 4 * MiB);
  }
  Topology n = nehalem();
  EXPECT_EQ(n.largest_cache(0).level, 3);
}

TEST(Topology, X5460HasSixMiBPairCaches) {
  Topology t = xeon_x5460();
  auto shared = t.shared_cache(0, 1);
  ASSERT_TRUE(shared.has_value());
  EXPECT_EQ(shared->size_bytes, 6 * MiB);
  EXPECT_FALSE(t.shared_cache(1, 2).has_value());
  // Single socket: no different-sockets pair exists.
  EXPECT_FALSE(t.find_pair(PairPlacement::kDifferentSockets).has_value());
}

TEST(Topology, FlatSmpHasNoSharedCaches) {
  Topology t = flat_smp(4, 8 * MiB);
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b)
      EXPECT_FALSE(t.shared_cache(a, b).has_value());
  EXPECT_FALSE(t.find_pair(PairPlacement::kSharedCache).has_value());
}

TEST(Topology, NehalemSharesL3AcrossAllCores) {
  Topology t = nehalem();
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b) {
      auto s = t.shared_cache(a, b);
      ASSERT_TRUE(s.has_value());
      EXPECT_EQ(s->level, 3);
    }
}

TEST(Topology, DetectHostProducesValidTopology) {
  Topology t = detect_host();
  EXPECT_GE(t.num_cores, 1);
  // validate() aborts on inconsistency; reaching here means it passed.
  t.validate();
  for (int c = 0; c < t.num_cores; ++c)
    EXPECT_GT(t.largest_cache(c).size_bytes, 0u);
}

TEST(Topology, PlacementNames) {
  EXPECT_STREQ(to_string(PairPlacement::kSharedCache), "shared-cache");
  EXPECT_STREQ(to_string(PairPlacement::kDifferentSockets),
               "different-sockets");
}

}  // namespace
}  // namespace nemo
