// Shm transport conformance: the messaging contract on a 4-rank world —
// eager all-pairs, rendezvous between the ranks farthest apart, ordering on
// one envelope across the eager and rendezvous paths, wildcard matching,
// and peer-death verdicts on a blocked survivor.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "resil/resil.hpp"
#include "shm/process_runner.hpp"

namespace nemo::core {
namespace {


Config four_ranks() {
  Config c;
  c.nranks = 4;
  return c;
}

TEST(TransportConformance, EagerAllPairs) {
  constexpr std::size_t kN = 256;  // Fastbox-sized: stays on the eager path.
  run(four_ranks(), [&](Comm& comm) {
    int p = comm.size();
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p)),
        in(static_cast<std::size_t>(p));
    std::vector<Request> reqs;
    for (int r = 0; r < p; ++r) {
      if (r == comm.rank()) continue;
      auto& o = out[static_cast<std::size_t>(r)];
      auto& i = in[static_cast<std::size_t>(r)];
      o.resize(kN);
      i.resize(kN);
      pattern_fill(o, static_cast<std::uint64_t>(comm.rank() * 100 + r));
      reqs.push_back(comm.isend(o.data(), kN, r, 7));
      reqs.push_back(comm.irecv(i.data(), kN, r, 7));
    }
    comm.waitall(reqs);
    for (int r = 0; r < p; ++r) {
      if (r == comm.rank()) continue;
      EXPECT_EQ(pattern_check(in[static_cast<std::size_t>(r)],
                              static_cast<std::uint64_t>(r * 100 +
                                                         comm.rank())),
                kPatternOk)
          << "rank " << comm.rank() << " from " << r;
    }
  });
}

TEST(TransportConformance, RendezvousCrossNode) {
  constexpr std::size_t kN = 2 * MiB;  // Well past every eager threshold.
  run(four_ranks(), [&](Comm& comm) {
    // 0 <-> 3: the pair farthest apart in rank order.
    std::vector<std::byte> buf(kN);
    if (comm.rank() == 0) {
      pattern_fill(buf, 11);
      comm.send(buf.data(), kN, 3, 1);
      comm.recv(buf.data(), kN, 3, 2);
      EXPECT_EQ(pattern_check(buf, 22), kPatternOk);
    } else if (comm.rank() == 3) {
      comm.recv(buf.data(), kN, 0, 1);
      EXPECT_EQ(pattern_check(buf, 11), kPatternOk);
      pattern_fill(buf, 22);
      comm.send(buf.data(), kN, 0, 2);
    }
    comm.hard_barrier();
  });
}

TEST(TransportConformance, OrderingSameEnvelope) {
  // Messages on one (src, dst, tag) envelope must arrive in send order —
  // mixing eager and rendezvous sizes so the two paths cannot reorder
  // against each other either.
  const std::size_t sizes[] = {64, 128 * KiB, 64, 256 * KiB, 64, 64};
  constexpr int kMsgs = 6;
  run(four_ranks(), [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> buf(sizes[i]);
        pattern_fill(buf, static_cast<std::uint64_t>(i));
        comm.send(buf.data(), buf.size(), 2, 5);
      }
    } else if (comm.rank() == 2) {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> buf(sizes[i]);
        RecvInfo info;
        comm.recv(buf.data(), buf.size(), 0, 5, &info);
        EXPECT_EQ(info.bytes, sizes[i]) << "message " << i << " out of order";
        EXPECT_EQ(pattern_check(buf, static_cast<std::uint64_t>(i)),
                  kPatternOk)
            << "message " << i;
      }
    }
  });
}

TEST(TransportConformance, WildcardMatching) {
  constexpr std::size_t kN = 512;
  run(four_ranks(), [&](Comm& comm) {
    if (comm.rank() != 0) {
      std::vector<std::byte> buf(kN);
      pattern_fill(buf, static_cast<std::uint64_t>(comm.rank()));
      comm.send(buf.data(), kN, 0, 10 + comm.rank());
    } else {
      std::set<int> seen;
      for (int i = 0; i < comm.size() - 1; ++i) {
        std::vector<std::byte> buf(kN);
        RecvInfo info;
        comm.recv(buf.data(), kN, kAnySource, kAnyTag, &info);
        EXPECT_EQ(info.tag, 10 + info.src);
        EXPECT_EQ(info.bytes, kN);
        EXPECT_EQ(pattern_check(buf, static_cast<std::uint64_t>(info.src)),
                  kPatternOk);
        EXPECT_TRUE(seen.insert(info.src).second)
            << "duplicate wildcard match from " << info.src;
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(comm.size() - 1));
    }
  });
}

// Peer death must surface as a PeerDeadError verdict naming the victim on
// the blocked survivor.
TEST(TransportConformance, PeerDeathVerdictPropagates) {
  static std::atomic<unsigned> serial{0};
  char shm[64];
  std::snprintf(shm, sizeof shm, "/nemo-tx-%d-%u",
                static_cast<int>(::getpid()),
                serial.fetch_add(1, std::memory_order_relaxed));
  Config c = four_ranks();
  c.mode = LaunchMode::kProcesses;
  c.shm_name = shm;
  c.peer_timeout_ms = 10000;
  const int victim = 2, receiver = 1;
  {
    World world(c);
    resil::Liveness live = world.liveness();
    ::setenv("NEMO_FAULT",
             (std::to_string(victim) + ":fastbox_put:kill").c_str(), 1);
    resil::reload_fault();
    ::unsetenv("NEMO_FAULT");
    shm::ProcessResult res = shm::run_forked_ranks(
        c.nranks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          std::byte small[64] = {};
          try {
            if (rank == victim) {
              comm.send(small, sizeof small, receiver, 5);
            } else if (rank == receiver) {
              ::usleep(300 * 1000);  // Let the victim die first.
              comm.recv(small, sizeof small, victim, 5);
              return 23;  // No verdict: the blocked survivor returned.
            }
          } catch (const resil::PeerDeadError& e) {
            return e.rank == victim ? 0 : 20;
          }
          return rank == victim ? 22 : 0;
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    for (int r = 0; r < c.nranks; ++r) {
      int want = r == victim ? 256 + SIGKILL : 0;
      EXPECT_EQ(res.exit_codes[static_cast<std::size_t>(r)], want)
          << "rank " << r;
    }
  }
  resil::reload_fault();  // Disarm the parent.
  EXPECT_NE(::access((std::string("/dev/shm") + shm).c_str(), F_OK), 0)
      << "shm segment leaked";
}

}  // namespace
}  // namespace nemo::core
