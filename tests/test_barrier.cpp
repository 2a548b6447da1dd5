// The flat all-poll arena barrier and the every-root shm reduce. The
// barrier check runs 2/8/16/33 ranks against a shared phase counter (the
// strongest observable property of a barrier: nobody enters round i+1
// before everyone finished round i), plus a 16-rank storm.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "core/comm.hpp"
#include "shm/arena.hpp"

namespace nemo::core {
namespace {

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

/// Verify the phase-counter invariant over `rounds` rounds and that the
/// telemetry counts every barrier as flat.
void barrier_phase_check(int nranks, int rounds) {
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  Config cfg = slim_config(nranks);
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
          << "round " << i << " nranks " << nranks;
      comm.barrier();
    }
    const tune::Counters& c = comm.engine().counters();
    EXPECT_EQ(c.coll_barrier_flat, static_cast<std::uint64_t>(2 * rounds));
    EXPECT_EQ(c.coll_barrier_tree, 0u);
  });
}

class BarrierSchedule : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSchedule, FlatPhasesHold) {
  int nranks = GetParam();
  barrier_phase_check(nranks, nranks >= 16 ? 5 : 20);
}

INSTANTIATE_TEST_SUITE_P(Worlds, BarrierSchedule,
                         ::testing::Values(2, 8, 16, 33),
                         [](const auto& info) {
                           return std::to_string(info.param) + "ranks";
                         });

TEST(BarrierSchedule, SixteenRankStorm) {
  // Back-to-back barriers: a missed arrival or a stale arrival sequence
  // shows up as a hang (ctest timeout) or a phase violation.
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  Config cfg = slim_config(16);
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
    EXPECT_EQ(comm.engine().counters().coll_barrier_flat, 300u);
    EXPECT_EQ(comm.engine().counters().coll_barrier_tree, 0u);
  });
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
