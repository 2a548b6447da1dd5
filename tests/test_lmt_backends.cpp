// Backend-level behaviours beyond plain delivery: rendezvous protocol shape
// (CTS/FIN requirements), cookie release on FIN, per-pair serialization,
// noncontiguous rendezvous on every backend, engine statistics, and the
// cooperative single-copy split of large KNEM/CMA messages.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "lmt/backends.hpp"
#include "shm/remote_mem.hpp"

namespace nemo::core {
namespace {

Config cfg_with(lmt::LmtKind kind, lmt::KnemMode mode = lmt::KnemMode::kSyncCopy) {
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = kind;
  cfg.knem_mode = mode;
  return cfg;
}

TEST(LmtProtocol, BackendHandshakeRequirements) {
  run(cfg_with(lmt::LmtKind::kKnem), [&](Comm& comm) {
    Engine& eng = comm.engine();
    // Protocol shape documented in §3: ring and pipe backends gate the data
    // phase on CTS; single-copy backends release resources on FIN.
    struct Expect {
      lmt::LmtKind kind;
      bool cts, fin;
    };
    for (auto [kind, cts, fin] :
         {Expect{lmt::LmtKind::kDefaultShm, true, false},
          Expect{lmt::LmtKind::kVmsplice, true, true},
          Expect{lmt::LmtKind::kVmspliceWritev, true, false},
          Expect{lmt::LmtKind::kKnem, false, true}}) {
      auto backend = lmt::make_backend(kind, eng);
      EXPECT_EQ(backend->needs_cts(), cts) << to_string(kind);
      EXPECT_EQ(backend->needs_fin(), fin) << to_string(kind);
    }
  });
}

TEST(LmtProtocol, KnemCookiesReleasedAfterTraffic) {
  run(cfg_with(lmt::LmtKind::kKnem), [&](Comm& comm) {
    constexpr std::size_t kN = 256 * KiB;
    std::vector<std::byte> buf(kN);
    for (int i = 0; i < 20; ++i) {
      if (comm.rank() == 0) {
        pattern_fill(buf, static_cast<std::uint64_t>(i));
        comm.send(buf.data(), kN, 1, i);
      } else {
        comm.recv(buf.data(), kN, 0, i);
      }
    }
    comm.barrier();
    // Every cookie was released by FIN: the shared table must be empty.
    EXPECT_EQ(comm.engine().knem_device().slots_in_use(), 0u);
    auto st = comm.engine().knem_device().stats();
    if (comm.rank() == 0) {
      EXPECT_GE(st.send_cmds, 20u);
      EXPECT_GE(st.recv_cmds, 20u);
      EXPECT_EQ(st.bytes_copied, 20u * kN);
    }
  });
}

TEST(LmtProtocol, StatsClassifyEagerVsRndv) {
  Config cfg = cfg_with(lmt::LmtKind::kKnem);
  cfg.policy.knem_activation = 8 * KiB;
  run(cfg, [&](Comm& comm) {
    std::vector<std::byte> small(1 * KiB), big(1 * MiB);
    if (comm.rank() == 0) {
      comm.send(small.data(), small.size(), 1, 1);
      comm.send(big.data(), big.size(), 1, 2);
      EXPECT_EQ(comm.engine().stats().eager_msgs_sent, 1u);
      EXPECT_EQ(comm.engine().stats().rndv_sent, 1u);
      EXPECT_EQ(comm.engine().stats().rndv_by_kind[static_cast<std::size_t>(
                    lmt::LmtKind::kKnem)],
                1u);
    } else {
      comm.recv(small.data(), small.size(), 0, 1);
      comm.recv(big.data(), big.size(), 0, 2);
      EXPECT_EQ(comm.engine().stats().bytes_recv, small.size() + big.size());
    }
  });
}

class NoncontigRndv : public ::testing::TestWithParam<lmt::LmtKind> {};

TEST_P(NoncontigRndv, StridedBothSides) {
  run(cfg_with(GetParam()), [&](Comm& comm) {
    // 96 blocks of 4 KiB at 12 KiB stride: 384 KiB payload, segment list
    // longer than KNEM's inline capacity on both sides.
    const Datatype dt = Datatype::vector(96, 4 * KiB, 12 * KiB);
    std::vector<std::byte> mem(dt.extent());
    if (comm.rank() == 0) {
      std::vector<std::byte> packed(dt.size());
      pattern_fill(packed, 11);
      dt.unpack(packed.data(), 1, mem.data());
      comm.send_typed(mem.data(), dt, 1, 1, 0);
    } else {
      comm.recv_typed(mem.data(), dt, 1, 0, 0);
      std::vector<std::byte> packed(dt.size());
      dt.pack(mem.data(), 1, packed.data());
      EXPECT_EQ(pattern_check(packed, 11), kPatternOk);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllKinds, NoncontigRndv,
                         ::testing::Values(lmt::LmtKind::kDefaultShm,
                                           lmt::LmtKind::kVmsplice,
                                           lmt::LmtKind::kVmspliceWritev,
                                           lmt::LmtKind::kKnem),
                         [](const auto& info) {
                           std::string s = lmt::to_string(info.param);
                           for (auto& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(LmtProtocol, InterleavedRndvBothDirectionsSamePair) {
  // Stress the per-pair serialization: many overlapping rendezvous in both
  // directions with the ring backend (single shared ring per direction).
  run(cfg_with(lmt::LmtKind::kDefaultShm), [&](Comm& comm) {
    constexpr int kMsgs = 8;
    constexpr std::size_t kN = 200 * KiB;
    std::vector<std::vector<std::byte>> out(kMsgs), in(kMsgs);
    std::vector<Request> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      auto iz = static_cast<std::size_t>(i);
      out[iz].resize(kN);
      in[iz].resize(kN);
      pattern_fill(out[iz], static_cast<std::uint64_t>(comm.rank()) * 100 +
                                static_cast<std::uint64_t>(i));
      reqs.push_back(comm.isend(out[iz].data(), kN, 1 - comm.rank(), i));
      reqs.push_back(comm.irecv(in[iz].data(), kN, 1 - comm.rank(), i));
    }
    comm.waitall(reqs);
    for (int i = 0; i < kMsgs; ++i)
      EXPECT_EQ(
          pattern_check(in[static_cast<std::size_t>(i)],
                        static_cast<std::uint64_t>(1 - comm.rank()) * 100 +
                            static_cast<std::uint64_t>(i)),
          kPatternOk);
  });
}

TEST(LmtProtocol, ResolveKindHonoursConfigAndPolicy) {
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = lmt::LmtKind::kAuto;
  cfg.topo = xeon_e5345();
  cfg.core_binding = {0, 1};
  run(cfg, [&](Comm& comm) {
    // Auto + KNEM available resolves to KNEM regardless of placement.
    EXPECT_EQ(comm.engine().resolve_kind(1 * MiB, 1 - comm.rank(), false),
              lmt::LmtKind::kKnem);
  });

  Config cfg2 = cfg;
  cfg2.policy.knem_available = false;
  cfg2.core_binding = {0, 7};  // No shared cache on the modelled topology.
  run(cfg2, [&](Comm& comm) {
    // No KNEM: CMA stands in where the host allows it (the World's probe
    // gates the policy), else the chain continues to vmsplice.
    lmt::LmtKind want = comm.world().cma_ok() ? lmt::LmtKind::kCma
                                              : lmt::LmtKind::kVmsplice;
    EXPECT_EQ(comm.engine().resolve_kind(1 * MiB, 1 - comm.rank(), false),
              want);
  });

  Config cfg3 = cfg2;
  cfg3.policy.cma_available = false;
  run(cfg3, [&](Comm& comm) {
    EXPECT_EQ(comm.engine().resolve_kind(1 * MiB, 1 - comm.rank(), false),
              lmt::LmtKind::kVmsplice);
  });
}

/// In a forked world a child's gtest failure is invisible to the parent, so
/// a failed check there also throws: the rank exits nonzero and run() fails.
void require(Comm& comm, bool ok, const std::string& what) {
  EXPECT_TRUE(ok) << what;
  if (!ok && comm.world().config().mode == LaunchMode::kProcesses)
    throw std::runtime_error("rank " + std::to_string(comm.rank()) + ": " +
                             what);
}

TEST(LmtProtocol, EagerThresholdBoundary) {
  // NEMO_LMT beats cfg.lmt, and auto's own activation would send both
  // messages by rendezvous: pin the backend the boundary is defined for.
  ScopedEnv pin("NEMO_LMT", "knem");
  Config cfg = cfg_with(lmt::LmtKind::kKnem);
  cfg.eager_threshold = 64 * KiB;
  bool ok = run(cfg, [&](Comm& comm) {
    // Exactly at the threshold: eager. One past: rendezvous. Both deliver.
    for (std::size_t n : {64 * KiB, 64 * KiB + 1}) {
      std::vector<std::byte> buf(n);
      if (comm.rank() == 0) {
        pattern_fill(buf, n);
        comm.send(buf.data(), n, 1, 5);
      } else {
        comm.recv(buf.data(), n, 0, 5);
        require(comm, pattern_check(buf, n) == kPatternOk,
                "payload mismatch, n=" + std::to_string(n));
      }
    }
    if (comm.rank() == 0) {
      const auto& st = comm.engine().stats();
      require(comm, st.eager_msgs_sent == 1u,
              "eager_msgs_sent " + std::to_string(st.eager_msgs_sent));
      require(comm, st.rndv_sent == 1u,
              "rndv_sent " + std::to_string(st.rndv_sent));
    }
  });
  EXPECT_TRUE(ok);
}

// --- Cooperative single-copy rendezvous --------------------------------------
//
// Every case compares the landed bytes with the source (memcmp) and checks
// that the receiver's gaps between destination segments stay untouched.
// Failed checks go through require(), so forked ranks fail run() too.

class CoopCopy : public ::testing::TestWithParam<lmt::LmtKind> {};

constexpr std::byte kGapByte{0xA5};
constexpr std::size_t kGap = 64;

/// `n` message bytes in `nsegs` uneven pieces separated by kGap-byte gaps,
/// carved from `mem` (which must hold layout_bytes(n, nsegs)).
SegmentList layout(std::byte* mem, std::size_t n, std::size_t nsegs) {
  SegmentList segs;
  std::size_t left = n;
  for (std::size_t i = 0; i < nsegs && left > 0; ++i) {
    // Pieces grow 1:2:3...; the last takes the remainder.
    std::size_t len =
        i + 1 == nsegs ? left
                       : std::max<std::size_t>(
                             1, 2 * n * (i + 1) / (nsegs * (nsegs + 1)));
    len = std::min(len, left);
    segs.push_back({mem, len});
    mem += len + kGap;
    left -= len;
  }
  return segs;
}

std::size_t layout_bytes(std::size_t n, std::size_t nsegs) {
  return n + nsegs * kGap;
}

/// Does `kind` run on a single-copy backend here? A forced CMA falls back
/// to the copy ring when the host or NEMO_CMA vetoes it.
bool single_copy(Comm& comm, lmt::LmtKind kind) {
  return kind == lmt::LmtKind::kKnem || comm.world().cma_ok();
}

/// Would the receiver offer this transfer a split? The test's own oracle of
/// the coop_offer rule, so a silently declined path fails loudly.
bool expect_offer(Comm& comm, lmt::LmtKind kind, std::size_t n,
                  std::size_t dst_segs, bool arena_dst) {
  const World& w = comm.world();
  bool cma_write = w.cma_ok() && !w.config().cma_sim_fail;
  if (kind == lmt::LmtKind::kCma && !cma_write) return false;
  if (n < knem::kCoopMin || dst_segs > knem::kInlineSegs) return false;
  return w.config().mode == LaunchMode::kThreads || arena_dst || cma_write;
}

/// One rank-0 -> rank-1 transfer of `n` bytes with the given segment
/// counts, checked against the expected offer/decline decision.
void coop_case(Comm& comm, lmt::LmtKind kind, std::size_t n,
               std::size_t src_segs, std::size_t dst_segs) {
  const std::string what = "n=" + std::to_string(n) +
                           " src_segs=" + std::to_string(src_segs) +
                           " dst_segs=" + std::to_string(dst_segs);
  std::vector<std::byte> ref(n);
  pattern_fill(ref, n ^ (src_segs << 8) ^ (dst_segs << 16));
  knem::Device& dev = comm.engine().knem_device();
  comm.barrier();
  const knem::DeviceStats before = dev.stats();
  const std::uint64_t declined_before =
      comm.engine().counters().lmt_coop_declined;
  if (comm.rank() == 0) {
    std::vector<std::byte> mem(layout_bytes(n, src_segs));
    SegmentList segs = layout(mem.data(), n, src_segs);
    std::size_t off = 0;
    for (const Segment& s : segs) {
      std::memcpy(s.base, ref.data() + off, s.len);
      off += s.len;
    }
    comm.wait(comm.isendv(nemo::as_const(segs), 1, 3));
  } else {
    std::vector<std::byte> mem(layout_bytes(n, dst_segs), kGapByte);
    SegmentList segs = layout(mem.data(), n, dst_segs);
    comm.wait(comm.irecvv(segs, 0, 3));
    std::vector<std::byte> got;
    got.reserve(n);
    for (const Segment& s : segs) got.insert(got.end(), s.base, s.base + s.len);
    require(comm, got.size() == n && std::memcmp(got.data(), ref.data(), n) == 0,
            "payload mismatch, " + what);
    bool gaps_ok = true;
    for (std::size_t i = 0; i + 1 < segs.size(); ++i)
      for (std::size_t g = 0; g < kGap; ++g)
        gaps_ok = gaps_ok && segs[i].base[segs[i].len + g] == kGapByte;
    require(comm, gaps_ok, "write outside the destination, " + what);
    bool declined = single_copy(comm, kind) &&
                    !expect_offer(comm, kind, n, dst_segs, false);
    require(comm,
            comm.engine().counters().lmt_coop_declined - declined_before ==
                (declined ? 1u : 0u),
            "declined count, " + what);
  }
  comm.barrier();
  const knem::DeviceStats after = dev.stats();
  const std::uint64_t offers = after.coop_offers - before.coop_offers;
  const std::uint64_t moved =
      (after.coop_sender_bytes - before.coop_sender_bytes) +
      (after.coop_receiver_bytes - before.coop_receiver_bytes);
  bool offered = expect_offer(comm, kind, n, dst_segs, false);
  require(comm, offers == (offered ? 1u : 0u), "offer count, " + what);
  require(comm, moved == (offered ? n : 0u), "co-copied bytes, " + what);
}

TEST_P(CoopCopy, SizesAndLayoutsMatchSource) {
  const lmt::LmtKind kind = GetParam();
  bool ok = run(cfg_with(kind), [&](Comm& comm) {
    using knem::kCoopChunk;
    using knem::kCoopMin;
    for (std::size_t n : {kCoopMin - 1, kCoopMin, kCoopMin + 1,
                          3 * kCoopChunk - 1, 3 * kCoopChunk + 1,
                          8 * MiB + 13})
      for (auto [src_segs, dst_segs] :
           {std::pair<std::size_t, std::size_t>{1, 1}, {7, 1}, {1, 5},
            {9, knem::kInlineSegs}})
        coop_case(comm, kind, n, src_segs, dst_segs);
  });
  EXPECT_TRUE(ok);
}

TEST_P(CoopCopy, FragmentedDestinationDeclines) {
  // One segment past the slot's inline capacity: the receiver copies alone.
  const lmt::LmtKind kind = GetParam();
  bool ok = run(cfg_with(kind), [&](Comm& comm) {
    coop_case(comm, kind, 1 * MiB + 5, 3, knem::kInlineSegs + 1);
  });
  EXPECT_TRUE(ok);
}

TEST_P(CoopCopy, BusySenderLeavesEveryChunkToReceiver) {
  // The sender posts isend and makes no progress until the receive has
  // completed: dynamic claiming hands the receiver every chunk.
  const lmt::LmtKind kind = GetParam();
  bool ok = run(cfg_with(kind), [&](Comm& comm) {
    // The copy-ring fallback needs the sender's progress: nothing to test.
    if (!single_copy(comm, kind)) return;
    constexpr std::size_t kN = 8 * MiB + 13;
    std::vector<std::byte> buf(kN);
    knem::Device& dev = comm.engine().knem_device();
    comm.barrier();
    const knem::DeviceStats before = dev.stats();
    if (comm.rank() == 0) {
      pattern_fill(buf, 77);
      Request r = comm.isend(buf.data(), kN, 1, 4);
      comm.hard_barrier();  // RTS is out; the receiver may start.
      comm.hard_barrier();  // The receive has completed.
      comm.wait(r);
      require(comm, comm.engine().counters().lmt_coop_sender_bytes == 0,
              "busy sender copied bytes");
    } else {
      comm.hard_barrier();
      comm.recv(buf.data(), kN, 0, 4);
      require(comm, pattern_check(buf, 77) == kPatternOk, "payload mismatch");
      const knem::DeviceStats now = dev.stats();
      if (expect_offer(comm, kind, kN, 1, false)) {
        require(comm, now.coop_offers - before.coop_offers == 1, "no offer");
        require(comm,
                now.coop_receiver_bytes - before.coop_receiver_bytes == kN,
                "receiver did not copy every byte");
      }
      comm.hard_barrier();
    }
    comm.barrier();
    require(comm, dev.stats().coop_sender_bytes == before.coop_sender_bytes,
            "sender share not zero");
  });
  EXPECT_TRUE(ok);
}

TEST_P(CoopCopy, PingpongSplitsCopyBetweenBothCores) {
  // Arena-resident buffers, so the split is offered in forked worlds too
  // (the sender rebases the destination like resolve() rebases the source).
  const lmt::LmtKind kind = GetParam();
  Config cfg = cfg_with(kind);
  cfg.shared_pool_bytes = 40 * MiB;
  bool ok = run(cfg, [&](Comm& comm) {
    constexpr std::size_t kN = 8 * MiB;
    constexpr int kIters = 8;
    std::byte* buf = comm.shared_alloc(kN);
    std::byte ack[8] = {};
    knem::Device& dev = comm.engine().knem_device();
    comm.barrier();
    const knem::DeviceStats before = dev.stats();
    for (int i = 0; i < kIters; ++i) {
      auto seed = static_cast<std::uint64_t>(100 + i);
      if (comm.rank() == 0) {
        pattern_fill({buf, kN}, seed);
        comm.send(buf, kN, 1, 5);
        comm.recv(ack, sizeof ack, 1, 6);
      } else {
        comm.recv(buf, kN, 0, 5);
        require(comm, pattern_check({buf, kN}, seed) == kPatternOk,
                "payload mismatch, iteration " + std::to_string(i));
        comm.send(ack, sizeof ack, 0, 6);
      }
    }
    comm.barrier();
    if (!expect_offer(comm, kind, kN, 1, /*arena_dst=*/true)) return;
    const knem::DeviceStats after = dev.stats();
    const std::uint64_t sender =
        after.coop_sender_bytes - before.coop_sender_bytes;
    const std::uint64_t receiver =
        after.coop_receiver_bytes - before.coop_receiver_bytes;
    require(comm, after.coop_offers - before.coop_offers == kIters,
            "offers " + std::to_string(after.coop_offers - before.coop_offers));
    require(comm, sender + receiver == kIters * kN,
            "sender " + std::to_string(sender) + " + receiver " +
                std::to_string(receiver) + " != total");
    if (comm.rank() == 0)
      require(comm, comm.engine().counters().lmt_coop_sender_bytes == sender,
              "rank 0 counter disagrees with the device");
    // A blocked sender polls the slot; with a core of its own it always
    // lands some chunks of 8 x 64 claims.
    if (std::thread::hardware_concurrency() >= 2)
      require(comm, sender > 0, "sender copied nothing");
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(SingleCopy, CoopCopy,
                         ::testing::Values(lmt::LmtKind::kKnem,
                                           lmt::LmtKind::kCma),
                         [](const auto& info) {
                           return std::string(lmt::to_string(info.param));
                         });

// Under NEMO_CMA=nosyscall every CMA transfer stages through the arena,
// which can never free. More staged 1 MiB transfers than the whole arena
// could hold must all complete, and after the first one the arena must stop
// shrinking: each cookie slot reuses its stage buffer.
TEST(LmtProtocol, CmaStageBuffersAreReused) {
  if (!shm::cma_available()) GTEST_SKIP() << "no cross-memory attach here";
  // Env beats Config: pin both knobs so an ambient NEMO_LMT or NEMO_CMA
  // cannot move the transfers off the staged CMA path.
  ScopedEnv lmt("NEMO_LMT", "cma");
  ScopedEnv cma("NEMO_CMA", "nosyscall");
  bool ok = run(cfg_with(lmt::LmtKind::kCma), [&](Comm& comm) {
    constexpr std::size_t kN = 1 * MiB;
    const shm::Arena& arena = comm.world().arena();
    const int transfers = static_cast<int>(arena.size() / kN) + 4;
    const std::uint64_t staged0 =
        comm.engine().knem_device().stats().cma_stage_fallbacks;
    std::vector<std::byte> buf(kN);
    std::size_t free_after_first = 0;
    for (int i = 0; i < transfers; ++i) {
      if (comm.rank() == 0) {
        pattern_fill(buf, static_cast<std::uint64_t>(i));
        comm.send(buf.data(), kN, 1, i);
      } else {
        comm.recv(buf.data(), kN, 0, i);
        require(comm,
                pattern_check(buf, static_cast<std::uint64_t>(i)) ==
                    kPatternOk,
                "payload mismatch in transfer " + std::to_string(i));
      }
      if (i == 0) {
        comm.barrier();
        free_after_first = arena.remaining();
      }
    }
    comm.barrier();
    require(comm, arena.remaining() == free_after_first,
            "arena shrank after the first staged transfer: " +
                std::to_string(free_after_first) + " -> " +
                std::to_string(arena.remaining()) + " bytes free");
    const std::uint64_t staged =
        comm.engine().knem_device().stats().cma_stage_fallbacks - staged0;
    require(comm, staged == static_cast<std::uint64_t>(transfers),
            "staged " + std::to_string(staged) + " of " +
                std::to_string(transfers) + " transfers");
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace nemo::core
