// Deterministic fault-injection matrix: SIGKILL one rank at a named
// protocol site (NEMO_FAULT) in a multi-process world and assert that
// every survivor observes a PeerDeadError verdict against the right rank
// instead of hanging, that the victim died by signal (not by exception),
// and that the shm segment never leaks. Plus the degrade-mode path:
// survivors fence the world and keep computing over the survivor set.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/comm.hpp"
#include "resil/resil.hpp"
#include "shm/process_runner.hpp"

namespace nemo::core {
namespace {

using resil::Site;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

std::string test_shm_name() {
  static std::atomic<unsigned> serial{0};
  char buf[64];
  std::snprintf(buf, sizeof buf, "/nemo-fault-%d-%u",
                static_cast<int>(::getpid()),
                serial.fetch_add(1, std::memory_order_relaxed));
  return buf;
}

// Return codes for protocol violations, so a red run names its failure.
constexpr int kWrongRank = 20;       // verdict named the wrong peer
constexpr int kWrongSite = 21;       // verdict at a site outside the set
constexpr int kVictimSurvived = 22;  // the fault point never fired
constexpr int kNoVerdict = 23;       // a blocked survivor returned normally

/// One scenario: `op` runs on every rank; the victim is SIGKILLed by the
/// armed fault point inside it. Survivors listed in `must_throw` are the
/// ranks whose op blocks on the victim — they must catch a PeerDeadError
/// naming it, at one of `sites`. Everyone else must finish op normally.
struct Scenario {
  const char* fault_site;
  std::set<Site> sites;  ///< admissible observation sites for survivors
};

int run_scenario(int nranks, int victim, const Scenario& sc,
                 lmt::LmtKind kind,
                 const std::function<void(Comm&, int)>& op,
                 const std::set<int>& must_throw) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.mode = LaunchMode::kProcesses;
  cfg.lmt = kind;
  cfg.shm_name = test_shm_name();
  cfg.peer_timeout_ms = 10000;  // Backstop; eager verdicts land in ms.
  std::string name = cfg.shm_name;
  int bad = 0;
  {
    World world(cfg);
    resil::Liveness live = world.liveness();
    // Arm AFTER World construction (reload_fault there would re-disarm);
    // forked children inherit the armed spec.
    ScopedEnv fault("NEMO_FAULT", std::to_string(victim) + ":" +
                                      sc.fault_site + ":kill");
    resil::reload_fault();
    shm::ProcessResult res = shm::run_forked_ranks(
        nranks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          try {
            op(comm, victim);
          } catch (const resil::PeerDeadError& e) {
            if (e.rank != victim) return kWrongRank;
            if (sc.sites.count(e.site) == 0) {
              std::fprintf(stderr, "rank %d: verdict at %s\n", rank,
                           resil::site_name(e.site));
              return kWrongSite;
            }
            return 0;
          }
          if (rank == victim) return kVictimSurvived;
          return must_throw.count(rank) != 0 ? kNoVerdict : 0;
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    for (int r = 0; r < nranks; ++r) {
      int want = r == victim ? 256 + SIGKILL : 0;
      if (res.exit_codes[static_cast<std::size_t>(r)] != want) {
        ADD_FAILURE() << "rank " << r << ": exit "
                      << res.exit_codes[static_cast<std::size_t>(r)]
                      << ", want " << want << " (site " << sc.fault_site
                      << ", n=" << nranks << ")";
        bad++;
      }
    }
  }
  resil::reload_fault();  // Disarm the parent from the now-clean env.
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0)
      << "shm segment leaked (site " << sc.fault_site << ")";
  return bad;
}

std::set<int> all_but(int nranks, int victim) {
  std::set<int> s;
  for (int r = 0; r < nranks; ++r)
    if (r != victim) s.insert(r);
  return s;
}

class FaultMatrix : public ::testing::TestWithParam<int> {};

TEST_P(FaultMatrix, KillAtCollDeposit) {
  int n = GetParam();
  // Every rank stages its private operand through the other owners' lanes,
  // so any non-zero rank is a depositor.
  int victim = 2;
  Scenario sc{"coll_deposit",
              {Site::kCollDoorbell, Site::kCollAck, Site::kBarrierRelease,
               Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) {
                 std::vector<double> in(32 * 1024, 1.0), out(in.size());
                 comm.allreduce_f64(in.data(), out.data(), in.size(),
                                    Comm::ReduceOp::kSum);
               },
               all_but(n, victim));
}

TEST_P(FaultMatrix, KillAtCollFold) {
  int n = GetParam();
  // Every rank owns and folds a block of the vector, so any non-zero rank
  // is a folder; every survivor reads the victim's block and must see it
  // die.
  int victim = 2;
  Scenario sc{"coll_fold",
              {Site::kCollDoorbell, Site::kCollAck, Site::kBarrierRelease,
               Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) {
                 std::vector<double> in(32 * 1024, 1.0), out(in.size());
                 comm.allreduce_f64(in.data(), out.data(), in.size(),
                                    Comm::ReduceOp::kSum);
               },
               all_but(n, victim));
}

TEST_P(FaultMatrix, KillAtBarrierArrive) {
  int n = GetParam();
  int victim = 2;
  Scenario sc{"barrier_arrive",
              {Site::kBarrierRelease, Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) { comm.barrier(); }, all_but(n, victim));
}

TEST_P(FaultMatrix, KillAtCmaRendezvous) {
  int n = GetParam();
  int victim = 2;
  int receiver = 3;
  // The victim dies right after publishing its RTS; only the posted
  // receiver depends on it. Everyone else returns untouched. Both
  // single-copy backends read the private send buffer across the process
  // boundary: the dead sender's ESRCH must surface as the same verdict.
  Scenario sc{"cma_rendezvous",
              {Site::kCmaRendezvous, Site::kEngineWait, Site::kCellAlloc,
               Site::kPendingCtrl}};
  for (lmt::LmtKind kind : {lmt::LmtKind::kCma, lmt::LmtKind::kKnem}) {
    SCOPED_TRACE(lmt::to_string(kind));
    run_scenario(n, victim, sc, kind,
                 [=](Comm& comm, int v) {
                   static std::vector<std::byte> buf(4 * MiB);
                   if (comm.rank() == v) {
                     Request r =
                         comm.isend(buf.data(), buf.size(), receiver, 9);
                     (void)r;  // The fault point fires inside start_send.
                   } else if (comm.rank() == receiver) {
                     ::usleep(300 * 1000);  // Let the victim die first.
                     comm.recv(buf.data(), buf.size(), v, 9);
                   }
                 },
                 {receiver});
  }
}

TEST_P(FaultMatrix, KillAtFastboxPut) {
  int n = GetParam();
  int victim = 2;
  int receiver = 1;
  Scenario sc{"fastbox_put",
              {Site::kEngineWait, Site::kCellAlloc, Site::kPendingCtrl}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [=](Comm& comm, int v) {
                 std::byte small[64] = {};
                 if (comm.rank() == v) {
                   comm.send(small, sizeof small, receiver, 5);
                 } else if (comm.rank() == receiver) {
                   ::usleep(300 * 1000);
                   comm.recv(small, sizeof small, v, 5);
                 }
               },
               {receiver});
}

TEST_P(FaultMatrix, KillAtLmtCoop) {
  int n = GetParam();
  int victim = 2;
  int receiver = 3;
  // The victim, blocked in send(), dies holding a claimed chunk of a split
  // copy. The receiver lands every other chunk, then waits on a byte count
  // that can never reach the total: the death must surface at its engine
  // wait, never as a completed receive. Both buffers are arena-resident,
  // so no copy touches the dead process's memory.
  Scenario sc{"lmt_coop", {Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kKnem,
               [=](Comm& comm, int v) {
                 constexpr std::size_t kN = 8 * MiB;
                 if (comm.rank() == v) {
                   std::byte* buf = comm.shared_alloc(kN);
                   comm.send(buf, kN, receiver, 9);
                 } else if (comm.rank() == receiver) {
                   std::byte* buf = comm.shared_alloc(kN);
                   ::usleep(100 * 1000);  // The victim is polling in send().
                   comm.recv(buf, kN, v, 9);
                 }
               },
               {receiver});
}

TEST_P(FaultMatrix, KillAtCollLine) {
  int n = GetParam();
  int victim = 2;
  // A one-double allreduce takes the line cells: the victim dies before
  // publishing its cell, and every survivor waits on that cell.
  Scenario sc{"coll_line", {Site::kCollProbe, Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) {
                 double in = 1.0, out = 0.0;
                 comm.allreduce_f64(&in, &out, 1, Comm::ReduceOp::kSum);
               },
               all_but(n, victim));
}

TEST_P(FaultMatrix, KillAtCollBcastHelp) {
  int n = GetParam();
  int victim = 2;
  // The victim roots a helped 2 MiB bcast whose readers all have arena
  // destinations. The readers enter late, so the root is already polling
  // their cursors when they open: it claims a chunk of some reader's copy
  // and dies before copying it. That reader's landed count never reaches
  // the total; the others finish and then wait for the victim's arrival at
  // the barrier. No survivor may return.
  Scenario sc{"coll_bcast_help",
              {Site::kCollDoorbell, Site::kCollAck, Site::kBarrierRelease,
               Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int v) {
                 constexpr std::size_t kN = 2 * MiB;
                 std::byte* buf = comm.shared_alloc(kN);
                 if (comm.rank() != v) ::usleep(100 * 1000);
                 comm.bcast(buf, kN, v);
                 comm.barrier();
               },
               all_but(n, victim));
}

INSTANTIATE_TEST_SUITE_P(Worlds, FaultMatrix, ::testing::Values(4, 8));

TEST(FaultRecovery, DegradeModeSurvivorsFenceAndContinue) {
  // NEMO_ON_PEER_DEATH=degrade: after the victim dies mid-barrier, every
  // survivor fences the world (resynchronising collective sequence
  // counters) and the shrunk world keeps doing real work: a barrier and an
  // allreduce whose result is exactly the survivor-set sum.
  constexpr int kRanks = 4;
  constexpr int kVictim = 2;
  Config cfg;
  cfg.nranks = kRanks;
  cfg.mode = LaunchMode::kProcesses;
  cfg.shm_name = test_shm_name();
  cfg.peer_timeout_ms = 10000;
  cfg.on_peer_death = resil::OnPeerDeath::kDegrade;
  // Force the arena family: the degraded world's continuation story is the
  // shm fast path (the p2p algorithms would address the dead rank).
  cfg.coll = coll::Mode::kShm;
  // 16 KiB slots over 4 ranks: 2 KiB lane sub-chunks (256 doubles).
  cfg.coll_slot_bytes = 16 * KiB;
  std::string name = cfg.shm_name;
  {
    World world(cfg);
    resil::Liveness live = world.liveness();
    ScopedEnv fault("NEMO_FAULT",
                    std::to_string(kVictim) + ":barrier_arrive:kill");
    resil::reload_fault();
    shm::ProcessResult res = shm::run_forked_ranks(
        kRanks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          try {
            comm.barrier();  // The victim dies in here.
            return kVictimSurvived;
          } catch (const resil::PeerDeadError& e) {
            if (e.rank != kVictim) return kWrongRank;
          }
          comm.fence_world();
          // The degraded world must still work, collectively: an allreduce
          // of 3 x 4096 doubles re-cut into one 16-sub-chunk block per
          // survivor. Each survivor seeds its block and folds the other
          // two survivors' slices into it — and nothing else.
          comm.barrier();
          constexpr std::size_t kBlock = 4096;
          constexpr int kSurvivors = kRanks - 1;
          std::vector<double> in(kSurvivors * kBlock), out(in.size());
          for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = static_cast<double>(rank) + static_cast<double>(i);
          const tune::Counters& c = comm.engine().counters();
          auto fold_bytes = [&] {
            std::uint64_t b = 0;
            for (std::uint64_t v : c.simd_fold_bytes) b += v;
            return b;
          };
          std::uint64_t before = fold_bytes();
          comm.allreduce_f64(in.data(), out.data(), in.size(),
                             Comm::ReduceOp::kSum);
          if (fold_bytes() - before !=
              (kSurvivors - 1) * kBlock * sizeof(double))
            return 26;  // Blocks not re-cut over the survivor set.
          // Survivor-set oracle: ranks 0, 1 and 3.
          for (std::size_t i = 0; i < out.size(); ++i)
            if (out[i] != 4.0 + kSurvivors * static_cast<double>(i))
              return 25;
          comm.barrier();
          return 0;
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    EXPECT_EQ(res.exit_codes[kVictim], 256 + SIGKILL);
    for (int r = 0; r < kRanks; ++r) {
      if (r != kVictim) {
        EXPECT_EQ(res.exit_codes[static_cast<std::size_t>(r)], 0)
            << "survivor " << r;
      }
    }
  }
  resil::reload_fault();
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0)
      << "shm segment leaked";
}

TEST(FaultRecovery, BackendVerdictLeavesProgressUsable) {
  // A verdict thrown by an LMT backend unwinds out of Engine::progress().
  // The receiver that caught it must still make progress afterwards: after
  // fence_world() it exchanges a small and a large message with another
  // survivor (a stuck progress flag would hang both).
  constexpr int kRanks = 4;
  constexpr int kVictim = 2;
  constexpr int kReceiver = 3;
  constexpr int kPeer = 1;
  Config cfg;
  cfg.nranks = kRanks;
  cfg.mode = LaunchMode::kProcesses;
  cfg.lmt = lmt::LmtKind::kKnem;
  cfg.shm_name = test_shm_name();
  cfg.peer_timeout_ms = 10000;
  cfg.on_peer_death = resil::OnPeerDeath::kDegrade;
  cfg.coll = coll::Mode::kShm;
  std::string name = cfg.shm_name;
  {
    World world(cfg);
    resil::Liveness live = world.liveness();
    ScopedEnv fault("NEMO_FAULT",
                    std::to_string(kVictim) + ":cma_rendezvous:kill");
    resil::reload_fault();
    shm::ProcessResult res = shm::run_forked_ranks(
        kRanks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          ::alarm(120);  // A hang fails the test instead of the suite.
          static std::vector<std::byte> big(4 * MiB);
          try {
            if (rank == kVictim) {
              Request r = comm.isend(big.data(), big.size(), kReceiver, 9);
              (void)r;
              return kVictimSurvived;
            }
            if (rank == kReceiver) {
              ::usleep(300 * 1000);  // Let the victim die first.
              comm.recv(big.data(), big.size(), kVictim, 9);
            } else {
              comm.barrier();  // Blocks on the victim's arrival.
            }
            return kNoVerdict;
          } catch (const resil::PeerDeadError& e) {
            if (e.rank != kVictim) return kWrongRank;
            // The receiver's verdict must be the backend's own.
            if (rank == kReceiver && e.site != Site::kCmaRendezvous)
              return kWrongSite;
          }
          comm.fence_world();
          if (rank == kReceiver || rank == kPeer) {
            int other = rank == kReceiver ? kPeer : kReceiver;
            std::uint64_t token = 0x5EED0000u + static_cast<unsigned>(rank);
            std::uint64_t got = 0;
            Request s = comm.isend(&token, sizeof token, other, 11);
            comm.recv(&got, sizeof got, other, 11);
            comm.wait(s);
            if (got != 0x5EED0000u + static_cast<unsigned>(other)) return 24;
            if (rank == kPeer) {
              std::fill(big.begin(), big.end(), std::byte{0x3C});
              comm.send(big.data(), big.size(), kReceiver, 12);
            } else {
              comm.recv(big.data(), big.size(), kPeer, 12);
              for (std::byte b : big)
                if (b != std::byte{0x3C}) return 25;
            }
          }
          comm.barrier();
          return 0;
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    EXPECT_EQ(res.exit_codes[kVictim], 256 + SIGKILL);
    for (int r = 0; r < kRanks; ++r) {
      if (r != kVictim) {
        EXPECT_EQ(res.exit_codes[static_cast<std::size_t>(r)], 0)
            << "survivor " << r;
      }
    }
  }
  resil::reload_fault();
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0)
      << "shm segment leaked";
}

TEST(FaultRecovery, AbortModePoisonsLaterWaits) {
  // Default abort mode: after the first verdict the world stays poisoned —
  // a survivor that swallows the error and tries another collective gets
  // an immediate second verdict instead of a hang.
  constexpr int kRanks = 4;
  constexpr int kVictim = 1;
  Config cfg;
  cfg.nranks = kRanks;
  cfg.mode = LaunchMode::kProcesses;
  cfg.shm_name = test_shm_name();
  cfg.peer_timeout_ms = 10000;
  std::string name = cfg.shm_name;
  {
    World world(cfg);
    resil::Liveness live = world.liveness();
    ScopedEnv fault("NEMO_FAULT",
                    std::to_string(kVictim) + ":barrier_arrive:kill");
    resil::reload_fault();
    shm::ProcessResult res = shm::run_forked_ranks(
        kRanks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          try {
            comm.barrier();
            return kVictimSurvived;
          } catch (const resil::PeerDeadError& e) {
            if (e.rank != kVictim) return kWrongRank;
          }
          try {
            comm.barrier();  // Poisoned: must fail fast, not hang.
            return kNoVerdict;
          } catch (const resil::PeerDeadError& e) {
            return e.rank == kVictim ? 0 : kWrongRank;
          }
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    EXPECT_EQ(res.exit_codes[kVictim], 256 + SIGKILL);
    for (int r = 0; r < kRanks; ++r) {
      if (r != kVictim) {
        EXPECT_EQ(res.exit_codes[static_cast<std::size_t>(r)], 0)
            << "survivor " << r;
      }
    }
  }
  resil::reload_fault();
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0);
}

}  // namespace
}  // namespace nemo::core
