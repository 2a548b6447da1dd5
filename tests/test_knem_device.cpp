// KNEM pseudo-device: cookie lifecycle, vectorial buffers with extension
// blocks, sync/async/DMA receive commands, error results, pinning stats,
// and the cooperative-copy offer and chunk claiming.
#include <gtest/gtest.h>

#include <unistd.h>

#include <optional>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "knem/knem_device.hpp"

namespace nemo::knem {
namespace {

struct KnemFixture : ::testing::Test {
  KnemFixture()
      : arena(shm::Arena::create_anonymous(16 * MiB)),
        dev_off(Device::create(arena, 32, 16)),
        dev(arena, dev_off, /*rank=*/0, ::getpid()) {}
  shm::Arena arena;
  std::uint64_t dev_off;
  Device dev;
};

TEST_F(KnemFixture, SendRecvSyncCopy) {
  std::vector<std::byte> src(300 * KiB), dst(300 * KiB);
  pattern_fill(src, 1);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  ASSERT_NE(cookie, 0u);
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 1), kPatternOk);
  dev.release(cookie);
  EXPECT_EQ(dev.slots_in_use(), 0u);
}

TEST_F(KnemFixture, ResolveReportsOwnerAndSegments) {
  std::vector<std::byte> a(100), b(200);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{a.data(), 100}, {b.data(), 200}});
  auto r = dev.resolve(cookie);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pid, ::getpid());
  EXPECT_EQ(r->owner_rank, 0u);
  EXPECT_EQ(r->total, 300u);
  ASSERT_EQ(r->segs.size(), 2u);
  EXPECT_EQ(r->segs[0].addr, reinterpret_cast<std::uint64_t>(a.data()));
  EXPECT_EQ(r->segs[1].len, 200u);
  EXPECT_EQ(r->mode, shm::RemoteMode::kDirect);  // Same pid.
  dev.release(cookie);
}

TEST_F(KnemFixture, VectorialCookieSpillsIntoSegBlocks) {
  // More segments than fit inline: exercises the extension-block chain.
  constexpr std::size_t kSegs = kInlineSegs + 2 * kBlockSegs + 5;
  constexpr std::size_t kSegLen = 256;
  std::vector<std::byte> src(kSegs * kSegLen), dst(kSegs * kSegLen);
  pattern_fill(src, 2);
  ConstSegmentList segs;
  for (std::size_t i = 0; i < kSegs; ++i)
    segs.push_back({src.data() + i * kSegLen, kSegLen});
  std::uint64_t cookie = dev.submit_send(segs);
  auto r = dev.resolve(cookie);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->segs.size(), kSegs);
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 2), kPatternOk);
  dev.release(cookie);
  // Blocks returned to the pool: a second jumbo cookie must succeed.
  std::uint64_t cookie2 = dev.submit_send(segs);
  EXPECT_NE(cookie2, 0u);
  dev.release(cookie2);
}

TEST_F(KnemFixture, BadCookieAndStaleCookieRejected) {
  std::vector<std::byte> dst(64);
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(0, local, 0, nullptr), KnemResult::kBadCookie);
  EXPECT_EQ(dev.recv_sync(0xdeadbeef, local, 0, nullptr),
            KnemResult::kBadCookie);
  std::vector<std::byte> src(64);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), 64}});
  dev.release(cookie);
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kBadCookie);
}

TEST_F(KnemFixture, TruncatedReceiveRejected) {
  std::vector<std::byte> src(1000), dst(999);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kTruncated);
  dev.release(cookie);
}

TEST_F(KnemFixture, RecvSyncWithDmaEngine) {
  shm::DmaEngine engine;
  std::vector<std::byte> src(2 * MiB), dst(2 * MiB);
  pattern_fill(src, 3);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(cookie, local, kFlagDma, &engine), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 3), kPatternOk);
  dev.release(cookie);
  EXPECT_GE(dev.stats().dma_recv_cmds, 1u);
}

TEST_F(KnemFixture, RecvAsyncStatusByte) {
  shm::DmaEngine engine;
  std::vector<std::byte> src(1 * MiB), dst(1 * MiB);
  pattern_fill(src, 4);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  volatile std::uint8_t status = 0;
  EXPECT_EQ(dev.recv_async(cookie, {{dst.data(), dst.size()}},
                           kFlagDma | kFlagAsync, engine, &status),
            KnemResult::kOk);
  while (status != static_cast<std::uint8_t>(shm::DmaStatus::kSuccess)) {
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  EXPECT_EQ(pattern_check(dst, 4), kPatternOk);
  dev.release(cookie);
  EXPECT_GE(dev.stats().async_recv_cmds, 1u);
}

TEST_F(KnemFixture, ScatterRecvIntoMultipleSegments) {
  std::vector<std::byte> src(10000), dst(10000);
  pattern_fill(src, 5);
  std::uint64_t cookie = dev.submit_send(
      ConstSegmentList{{src.data(), 4000}, {src.data() + 4000, 6000}});
  SegmentList local{{dst.data(), 1000},
                    {dst.data() + 1000, 8000},
                    {dst.data() + 9000, 1000}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 5), kPatternOk);
  dev.release(cookie);
}

TEST_F(KnemFixture, PinningAccounted) {
  std::vector<std::byte> src(1 * MiB);
  auto before = dev.stats().pages_pinned;
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  auto after = dev.stats().pages_pinned;
  // 1 MiB touches 256 or 257 pages depending on alignment.
  EXPECT_GE(after - before, 256u);
  EXPECT_LE(after - before, 257u);
  dev.release(cookie);
}

TEST_F(KnemFixture, ZeroLengthSegmentsSkipped) {
  std::vector<std::byte> src(100), dst(100);
  pattern_fill(src, 6);
  std::uint64_t cookie = dev.submit_send(ConstSegmentList{
      {src.data(), 0}, {src.data(), 50}, {src.data() + 50, 0},
      {src.data() + 50, 50}});
  auto r = dev.resolve(cookie);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->segs.size(), 2u);
  EXPECT_EQ(r->total, 100u);
  SegmentList local{{dst.data(), 100}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 6), kPatternOk);
  dev.release(cookie);
}

TEST_F(KnemFixture, ManyConcurrentCookies) {
  std::vector<std::vector<std::byte>> bufs;
  std::vector<std::uint64_t> cookies;
  for (int i = 0; i < 32; ++i) {
    bufs.emplace_back(1024);
    pattern_fill(bufs.back(), static_cast<std::uint64_t>(i));
    cookies.push_back(
        dev.submit_send(ConstSegmentList{{bufs.back().data(), 1024}}));
  }
  EXPECT_EQ(dev.slots_in_use(), 32u);
  // Receive them out of order.
  for (int i = 31; i >= 0; --i) {
    std::vector<std::byte> dst(1024);
    SegmentList local{{dst.data(), 1024}};
    ASSERT_EQ(dev.recv_sync(cookies[static_cast<std::size_t>(i)], local, 0,
                            nullptr),
              KnemResult::kOk);
    EXPECT_EQ(pattern_check(dst, static_cast<std::uint64_t>(i)), kPatternOk);
    dev.release(cookies[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(dev.slots_in_use(), 0u);
}

TEST_F(KnemFixture, CoopOfferRules) {
  std::vector<std::byte> src(2 * kCoopMin), dst(2 * kCoopMin + 64);
  auto offer = [&](std::size_t n, const SegmentList& local) {
    std::uint64_t cookie = dev.submit_send(ConstSegmentList{{src.data(), n}});
    // Undecided: the sender must keep polling.
    EXPECT_FALSE(dev.coop_send(cookie, ConstSegmentList{{src.data(), n}}));
    auto r = dev.resolve(cookie);
    bool offered = dev.coop_offer(cookie, *r, local, /*cma_write=*/false);
    // Declined: the sender is released at once, with nothing copied.
    if (!offered) {
      EXPECT_EQ(dev.coop_send(cookie, ConstSegmentList{{src.data(), n}}),
                std::optional<std::uint64_t>(0));
    }
    dev.release(cookie);
    return offered;
  };
  SegmentList one{{dst.data(), dst.size()}};
  EXPECT_FALSE(offer(kCoopMin - 1, one));
  EXPECT_TRUE(offer(kCoopMin, one));
  // 17 destination segments of kCoopMin/16 bytes: a kCoopMin message ends
  // in the 16th (the rest is trimmed), one byte more needs all 17.
  constexpr std::size_t kSeg = kCoopMin / kInlineSegs;
  SegmentList many;
  for (std::size_t i = 0; i <= kInlineSegs; ++i)
    many.push_back({dst.data() + i * (kSeg + 8), kSeg});
  EXPECT_TRUE(offer(kCoopMin, many));
  EXPECT_FALSE(offer(kCoopMin + 1, many));
  EXPECT_EQ(dev.stats().coop_offers, 2u);
}

TEST_F(KnemFixture, CoopBothSidesLandEveryByteOnce) {
  // A sender thread and this (receiver) thread claim chunks concurrently.
  constexpr std::size_t kN = 40 * kCoopChunk + 7;
  std::vector<std::byte> src(kN), dst(kN);
  pattern_fill(src, 5);
  const ConstSegmentList from{{src.data(), kN}};
  std::uint64_t cookie = dev.submit_send(from);
  std::uint64_t sent = 0;
  std::thread sender([&] {
    std::optional<std::uint64_t> moved;
    while (!(moved = dev.coop_send(cookie, from))) std::this_thread::yield();
    sent = *moved;
  });
  auto r = dev.resolve(cookie);
  SegmentList local{{dst.data(), kN}};
  ASSERT_TRUE(dev.coop_offer(cookie, *r, local, /*cma_write=*/false));
  std::uint64_t received = dev.coop_copy(cookie, *r, local);
  sender.join();
  EXPECT_TRUE(dev.coop_complete(cookie));
  EXPECT_EQ(sent + received, kN);
  EXPECT_EQ(dev.stats().coop_sender_bytes, sent);
  EXPECT_EQ(dev.stats().coop_receiver_bytes, received);
  EXPECT_EQ(pattern_check(dst, 5), kPatternOk);
  dev.release(cookie);
}

TEST_F(KnemFixture, ReleaseStaleCountsLeak) {
  auto before = dev.stats().cookie_leaks;
  dev.release(0x12345);
  EXPECT_EQ(dev.stats().cookie_leaks, before + 1);
}

}  // namespace
}  // namespace nemo::knem
