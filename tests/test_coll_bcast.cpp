// Helped direct bcast: from knem::kCoopMin, the readers of an arena-resident
// root buffer open their arena destinations to every rank, and the root and
// early-finishing readers land chunks of other readers' copies (claimed
// through epoch-tagged cursors, src/coll/coll_arena.hpp).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "knem/knem_device.hpp"

namespace nemo::core {
namespace {
// Every size edge x root x destination residency runs under forced shm and
// is compared with the p2p oracle (per-rank digests through a MAP_SHARED
// map, so forked ranks report too). In a forked world a child's gtest
// failure is invisible to the parent, so a failed check there also throws
// and run() fails.

void require(Comm& comm, bool ok, const std::string& what) {
  EXPECT_TRUE(ok) << what;
  if (!ok && comm.world().config().mode == LaunchMode::kProcesses)
    throw std::runtime_error("rank " + std::to_string(comm.rank()) + ": " +
                             what);
}

struct HelpedParam {
  int nranks;
  LaunchMode mode;
};

enum class Dest { kArena, kPrivate, kMixed };

class CollHelpedBcast : public ::testing::TestWithParam<HelpedParam> {
 protected:
  static constexpr std::size_t kGuard = 64;
  static constexpr std::byte kGuardByte{0xA5};
  static constexpr std::size_t kMaxBytes = 8 * MiB + 13;

  static std::vector<std::size_t> sizes() {
    using knem::kCoopChunk;
    using knem::kCoopMin;
    return {kCoopMin - 1, kCoopMin, 3 * kCoopChunk - 1, 3 * kCoopChunk + 1,
            kMaxBytes};
  }

  Config config(coll::Mode mode) const {
    Config cfg;
    cfg.nranks = GetParam().nranks;
    cfg.mode = GetParam().mode;
    cfg.coll = mode;
    cfg.shared_pool_bytes =
        static_cast<std::size_t>(cfg.nranks) * (kMaxBytes + 4 * kGuard) +
        4 * MiB;
    return cfg;
  }

  /// The root's buffer is always arena-resident (the helped path needs
  /// it); a reader's destination follows `d`.
  static bool arena_dst(Dest d, int rank, int root) {
    return rank == root || d == Dest::kArena ||
           (d == Dest::kMixed && rank % 2 == 1);
  }

  /// One world over every (size, root, destination) case. The p2p pass
  /// stores each rank's digest of its buffer plus trailing guard; the shm
  /// pass compares with it. Every pass also checks the bytes against the
  /// source pattern and both guards. Shared words: [0] failed checks, [1]
  /// first failing case + 1; digests follow.
  void run_pass(coll::Mode mode, std::uint64_t* shared) {
    coll::ScopedForcedMode forced(mode);
    const int n = GetParam().nranks;
    const bool check = mode == coll::Mode::kShm;
    std::uint64_t* digest = shared + 2;
    bool ok = run(config(mode), [&](Comm& comm) {
      const int me = comm.rank();
      std::byte* arena = comm.shared_alloc(kMaxBytes + 2 * kGuard);
      std::vector<std::byte> heap(kMaxBytes + 2 * kGuard);
      std::size_t c = 0;
      for (std::size_t bytes : sizes())
        for (int root = 0; root < n; ++root)
          for (Dest d : {Dest::kArena, Dest::kPrivate, Dest::kMixed}) {
            const std::string what =
                "bytes=" + std::to_string(bytes) + " root=" +
                std::to_string(root) + " dest=" +
                std::to_string(static_cast<int>(d));
            std::byte* mem = arena_dst(d, me, root) ? arena : heap.data();
            std::byte* buf = mem + kGuard;
            std::memset(mem, static_cast<int>(kGuardByte), bytes + 2 * kGuard);
            const std::uint64_t seed = 1000 * c + 7;
            if (me == root) pattern_fill({buf, bytes}, seed);
            const std::uint64_t ops0 =
                comm.engine().counters().coll_bcast_helped_ops;
            comm.bcast(buf, bytes, root);
            const std::uint64_t ops =
                comm.engine().counters().coll_bcast_helped_ops - ops0;
            bool good = pattern_check({buf, bytes}, seed) == kPatternOk;
            require(comm, good, "payload mismatch, " + what);
            bool guards = true;
            for (std::size_t g = 0; g < kGuard; ++g)
              guards = guards && mem[g] == kGuardByte &&
                       buf[bytes + g] == kGuardByte;
            require(comm, guards, "write outside the buffer, " + what);
            std::uint64_t& dg = digest[c * static_cast<std::size_t>(n) +
                                       static_cast<std::size_t>(me)];
            const std::uint64_t h = fnv1a({buf, bytes + kGuard});
            bool same = true;
            if (!check) {
              dg = h;
            } else {
              same = dg == h;
              require(comm, same, "differs from the p2p oracle, " + what);
              require(comm, ops == (bytes >= knem::kCoopMin ? 1u : 0u),
                      "helped-op count " + std::to_string(ops) + ", " + what);
            }
            if (!(good && guards && same)) {
              std::atomic_ref<std::uint64_t>(shared[0]).fetch_add(1);
              std::uint64_t none = 0;
              std::atomic_ref<std::uint64_t>(shared[1])
                  .compare_exchange_strong(none, c + 1);
            }
            ++c;
          }
    });
    EXPECT_TRUE(ok) << "a rank failed in the " << coll::to_string(mode)
                    << " pass";
  }
};

TEST_P(CollHelpedBcast, EverySizeRootAndDestinationMatchesP2pOracle) {
  const std::size_t cases =
      sizes().size() * 3 * static_cast<std::size_t>(GetParam().nranks);
  const std::size_t total =
      (2 + cases * static_cast<std::size_t>(GetParam().nranks)) *
      sizeof(std::uint64_t);
  void* map = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  auto* shared = static_cast<std::uint64_t*>(map);
  run_pass(coll::Mode::kP2p, shared);
  run_pass(coll::Mode::kShm, shared);
  EXPECT_EQ(shared[0], 0u) << "first failing case " << shared[1] - 1;
  ::munmap(map, total);
}

TEST_P(CollHelpedBcast, RootLandsChunksWhenCoresAllow) {
  // Arena destinations everywhere: with a core of its own the root, polling
  // the readers' cursors from the moment it publishes, always claims some
  // of 8 x (n-1) x 64 chunks. Every landed byte is counted once.
  constexpr std::size_t kN = 8 * MiB;
  constexpr int kIters = 8;
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  bool ok = run(config(coll::Mode::kShm), [&](Comm& comm) {
    std::byte* buf = comm.shared_alloc(kN);
    const tune::Counters& c = comm.engine().counters();
    const std::uint64_t help0 = c.coll_bcast_help_bytes;
    for (int i = 0; i < kIters; ++i) {
      const auto seed = static_cast<std::uint64_t>(300 + i);
      if (comm.rank() == 0) pattern_fill({buf, kN}, seed);
      comm.bcast(buf, kN, 0);
      require(comm, pattern_check({buf, kN}, seed) == kPatternOk,
              "payload mismatch, iteration " + std::to_string(i));
    }
    const std::uint64_t help = c.coll_bcast_help_bytes - help0;
    require(comm,
            help <= kIters * kN * static_cast<std::size_t>(comm.size() - 1),
            "help bytes " + std::to_string(help) + " exceed the copies");
    if (comm.rank() == 0 && std::thread::hardware_concurrency() >= 2)
      require(comm, help > 0, "the root landed no chunk");
  });
  EXPECT_TRUE(ok);
}

TEST_P(CollHelpedBcast, SeededStragglerStress) {
  // 1000 helped bcasts from seeded roots with one seeded reader sleeping
  // before it enters (so before it opens its cursor), interleaved with
  // direct alltoalls (which write the slot tables around the cursors) and
  // small allreduces. A claim that is not tied to its epoch lets a helper
  // still in bcast k take a chunk of a reader already in bcast k+1: that
  // chunk then never lands (a hang) or lands stale bytes (a mismatch).
  // Payloads are memcpy'd from three references, so the fast ranks reach
  // bcast k+1 while the sleeper is still in bcast k.
  constexpr std::uint64_t kSeed = 0x5EEDB0A5;
  constexpr int kIters = 1000;
  constexpr std::size_t kA2a = 1 * KiB;
  constexpr std::size_t kLim = 3 * knem::kCoopChunk + 1;
  SCOPED_TRACE("seed " + std::to_string(kSeed));
  std::vector<std::vector<std::byte>> ref(3, std::vector<std::byte>(kLim));
  for (std::size_t i = 0; i < ref.size(); ++i) pattern_fill(ref[i], 40 + i);
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  bool ok = run(config(coll::Mode::kShm), [&](Comm& comm) {
    const int n = comm.size(), me = comm.rank();
    std::byte* buf = comm.shared_alloc(kLim);
    std::byte* a2a_in = comm.shared_alloc(kA2a * static_cast<std::size_t>(n));
    std::vector<std::byte> a2a_out(kA2a * static_cast<std::size_t>(n));
    std::mt19937_64 rng(kSeed);  // Same stream on every rank.
    for (int it = 0; it < kIters; ++it) {
      const int root = static_cast<int>(rng() % static_cast<unsigned>(n));
      const int late = static_cast<int>(rng() % static_cast<unsigned>(n));
      const auto delay_us = static_cast<unsigned>(rng() % 300);
      const std::size_t bytes =
          knem::kCoopMin + rng() % (kLim - knem::kCoopMin);
      const std::byte* want = ref[static_cast<std::size_t>(it) % 3].data();
      if (me == root) std::memcpy(buf, want, bytes);
      if (me == late && me != root) ::usleep(delay_us);
      comm.bcast(buf, bytes, root);
      if (std::memcmp(buf, want, bytes) != 0) {
        require(comm, false, "payload mismatch, iteration " +
                                 std::to_string(it));
        return;
      }
      if (it % 4 == 1) {
        for (int d = 0; d < n; ++d)
          std::memset(a2a_in + static_cast<std::size_t>(d) * kA2a,
                      (me * n + d + it) & 0xFF, kA2a);
        comm.alltoall(a2a_in, kA2a, a2a_out.data());
        for (int s = 0; s < n; ++s)
          if (a2a_out[static_cast<std::size_t>(s) * kA2a + kA2a - 1] !=
              static_cast<std::byte>((s * n + me + it) & 0xFF)) {
            require(comm, false, "alltoall mismatch, iteration " +
                                     std::to_string(it));
            return;
          }
      } else if (it % 4 == 3) {
        std::int64_t v = it + me, sum = 0;
        comm.allreduce_i64(&v, &sum, 1, Comm::ReduceOp::kSum);
        const std::int64_t want =
            static_cast<std::int64_t>(it) * n + n * (n - 1) / 2;
        if (sum != want) {
          require(comm, false, "allreduce mismatch, iteration " +
                                   std::to_string(it));
          return;
        }
      }
    }
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(
    WorldsAndModes, CollHelpedBcast,
    ::testing::Values(HelpedParam{2, LaunchMode::kThreads},
                      HelpedParam{3, LaunchMode::kThreads},
                      HelpedParam{4, LaunchMode::kThreads},
                      HelpedParam{8, LaunchMode::kThreads},
                      HelpedParam{2, LaunchMode::kProcesses},
                      HelpedParam{3, LaunchMode::kProcesses},
                      HelpedParam{4, LaunchMode::kProcesses},
                      HelpedParam{8, LaunchMode::kProcesses}),
    [](const auto& info) {
      return std::to_string(info.param.nranks) + "ranks_" +
             (info.param.mode == LaunchMode::kThreads ? "threads" : "procs");
    });

}  // namespace
}  // namespace nemo::core
