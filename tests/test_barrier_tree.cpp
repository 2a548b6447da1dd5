// Arena-barrier scheduling (flat vs k-ary tree), the NUMA-aware node-leader
// choice and the every-root shm reduce. The barrier cross-check runs both
// schedules at 2/8/16/33 ranks against a shared phase counter (the
// strongest observable property of a barrier: nobody enters round i+1
// before everyone finished round i), plus a 16-rank storm; leader choice is
// unit-tested on synthetic NUMA maps.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "core/comm.hpp"
#include "shm/arena.hpp"

namespace nemo::core {
namespace {

// The schedule under test must beat any ambient NEMO_BARRIER_TREE (CI
// forces the knob in a smoke step, and env beats the programmatic tuning
// table): each test pins it with nemo::ScopedEnv.
using nemo::ScopedEnv;

/// A slim world: barrier tests want many ranks, not big per-pair buffers
/// (a 33-rank world has 1056 ordered pairs).
Config slim_config(int nranks) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.coll = coll::Mode::kShm;
  cfg.use_fastbox = false;
  cfg.cells_per_rank = 16;
  cfg.ring_bufs = 2;
  cfg.ring_buf_bytes = 4 * KiB;
  cfg.coll_slot_bytes = 16 * KiB;
  cfg.shared_pool_bytes = 1 * MiB;
  return cfg;
}

/// Pin the barrier schedule through the tuning table (UINT32_MAX = flat
/// always, 2 = tree always) and verify the phase-counter invariant over
/// `rounds` rounds; also assert the telemetry says the intended schedule
/// actually ran.
void barrier_cross_check(int nranks, bool tree, int rounds) {
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  ScopedEnv sched("NEMO_BARRIER_TREE", tree ? "on" : "off");
  Config cfg = slim_config(nranks);
  tune::TuningTable t = tune::formula_defaults(detect_host());
  t.barrier_tree_ranks = tree ? 2 : UINT32_MAX;
  cfg.tuning = t;
  // One counter for the whole world: rank 0 allocates and broadcasts the
  // arena *offset* — raw pointers don't survive a process boundary (each
  // forked rank maps the arena at its own base), offsets always do.
  run(cfg, [&](Comm& comm) {
    int n = comm.size();
    std::uint64_t off = 0;
    if (comm.rank() == 0) {
      auto* p = reinterpret_cast<std::uint64_t*>(
          comm.shared_alloc(sizeof(std::uint64_t)));
      shm::aref(*p).store(0);
      off = comm.world().arena().offset_of(p);
    }
    comm.bcast(&off, sizeof off, 0);
    auto* ctr = reinterpret_cast<std::uint64_t*>(comm.world().arena().at(off));
    for (int i = 0; i < rounds; ++i) {
      shm::aref(*ctr).fetch_add(1, std::memory_order_acq_rel);
      comm.barrier();
      // Everyone incremented for round i, nobody has for round i+1.
      ASSERT_EQ(shm::aref(*ctr).load(std::memory_order_acquire),
                static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(i + 1))
          << "round " << i << " nranks " << nranks << " tree " << tree;
      comm.barrier();
    }
    const tune::Counters& c = comm.engine().counters();
    if (tree) {
      EXPECT_EQ(c.coll_barrier_tree, static_cast<std::uint64_t>(2 * rounds));
      EXPECT_EQ(c.coll_barrier_flat, 0u);
    } else {
      EXPECT_EQ(c.coll_barrier_flat, static_cast<std::uint64_t>(2 * rounds));
      EXPECT_EQ(c.coll_barrier_tree, 0u);
    }
  });
}

class BarrierSchedule : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSchedule, FlatAndTreeAgreeOnPhases) {
  int nranks = GetParam();
  int rounds = nranks >= 16 ? 5 : 20;
  barrier_cross_check(nranks, /*tree=*/false, rounds);
  barrier_cross_check(nranks, /*tree=*/true, rounds);
}

INSTANTIATE_TEST_SUITE_P(Worlds, BarrierSchedule,
                         ::testing::Values(2, 8, 16, 33),
                         [](const auto& info) {
                           return std::to_string(info.param) + "ranks";
                         });

TEST(BarrierSchedule, SixteenRankStorm) {
  // Back-to-back barriers under the tree schedule: a missed arrival or a
  // stale release sequence shows up as a hang (ctest timeout) or a phase
  // violation.
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  ScopedEnv sched("NEMO_BARRIER_TREE", "on");
  Config cfg = slim_config(16);
  tune::TuningTable t = tune::formula_defaults(detect_host());
  t.barrier_tree_ranks = 2;
  t.barrier_tree_k = 3;  // Non-default fan-in: exercise an uneven last level.
  cfg.tuning = t;
  run(cfg, [&](Comm& comm) {
    std::uint64_t off = 0;
    if (comm.rank() == 0) {
      auto* p = reinterpret_cast<std::uint64_t*>(
          comm.shared_alloc(sizeof(std::uint64_t)));
      shm::aref(*p).store(0);
      off = comm.world().arena().offset_of(p);
    }
    comm.bcast(&off, sizeof off, 0);
    auto* ctr = reinterpret_cast<std::uint64_t*>(comm.world().arena().at(off));
    for (int i = 0; i < 150; ++i) {
      shm::aref(*ctr).fetch_add(1, std::memory_order_acq_rel);
      comm.barrier();
      ASSERT_EQ(shm::aref(*ctr).load(std::memory_order_acquire),
                16u * static_cast<std::uint64_t>(i + 1))
          << i;
      comm.barrier();
    }
  });
}

TEST(BarrierSchedule, AutoSelectsBySizeThreshold) {
  // With the default-ish threshold pinned at 8, a 4-rank world runs flat
  // and an 8-rank world runs the tree — observable in the counters.
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  ScopedEnv sched("NEMO_BARRIER_TREE", "8");
  for (int nranks : {4, 8}) {
    Config cfg = slim_config(nranks);
    tune::TuningTable t = tune::formula_defaults(detect_host());
    t.barrier_tree_ranks = 8;
    cfg.tuning = t;
    run(cfg, [&](Comm& comm) {
      for (int i = 0; i < 5; ++i) comm.barrier();
      const tune::Counters& c = comm.engine().counters();
      if (comm.size() >= 8) {
        EXPECT_EQ(c.coll_barrier_tree, 5u);
      } else {
        EXPECT_EQ(c.coll_barrier_flat, 5u);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// NUMA-aware leader choice (the hierarchical collectives' node leaders).
// ---------------------------------------------------------------------------

TEST(CollLeader, PluralityNodeWinsTiesToLowerNode) {
  // All one node (the single-node fallback): rank 0, as pre-v2.
  EXPECT_EQ(coll::choose_leader({0, 0, 0, 0}), 0);
  // Unknown map: rank 0.
  EXPECT_EQ(coll::choose_leader({-1, -1, -1}), 0);
  EXPECT_EQ(coll::choose_leader({}), 0);
  // Node 1 backs 3 of 4 ranks: the lowest rank on node 1 leads.
  EXPECT_EQ(coll::choose_leader({0, 1, 1, 1}), 1);
  EXPECT_EQ(coll::choose_leader({1, 0, 1, 1}), 0);
  // Tie 2-2: lower node id wins, its lowest rank leads.
  EXPECT_EQ(coll::choose_leader({1, 1, 0, 0}), 2);
  // Unknown ranks don't vote.
  EXPECT_EQ(coll::choose_leader({-1, 2, 2, 0}), 1);
}

TEST(CollReduce, EveryRootOddSizeMatchesOracle) {
  // Owner-computes reduce over an odd-sized world and an element count
  // that is neither a cacheline nor a sub-chunk multiple: every root must
  // get the exact sum, and the allreduce that follows every rank's max.
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  Config cfg;
  cfg.nranks = 3;
  cfg.coll = coll::Mode::kShm;
  cfg.coll_slot_bytes = 16 * KiB;  // Doubles: 336-elem sub-chunks.
  cfg.shared_pool_bytes = 8 * MiB;
  run(cfg, [&](Comm& comm) {
    int n = comm.size();
    const std::size_t kN = 5001;  // Several sub-chunks per block.
    std::vector<double> in(kN), out(kN, -1);
    for (std::size_t i = 0; i < kN; ++i)
      in[i] = static_cast<double>(comm.rank()) + static_cast<double>(i);
    for (int root = 0; root < n; ++root) {
      comm.reduce_f64(in.data(), out.data(), kN, Comm::ReduceOp::kSum, root);
      if (comm.rank() == root) {
        for (std::size_t i = 0; i < kN; ++i)
          ASSERT_DOUBLE_EQ(out[i], n * (n - 1) / 2.0 +
                                       static_cast<double>(n) *
                                           static_cast<double>(i))
              << "root " << root << " elem " << i;
      }
    }
    std::vector<double> mx(kN);
    comm.allreduce_f64(in.data(), mx.data(), kN, Comm::ReduceOp::kMax);
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_DOUBLE_EQ(mx[i],
                       static_cast<double>(n - 1) + static_cast<double>(i));
  });
}

}  // namespace
}  // namespace nemo::core
