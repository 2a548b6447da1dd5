// Software DMA channel: in-order execution, the trailing-status-write
// completion protocol, scatter jobs, drain semantics, and stats.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <vector>

#include "common/checksum.hpp"
#include "shm/dma_engine.hpp"

namespace nemo::shm {
namespace {

RemoteMemPort self_port() { return {RemoteMode::kDirect, ::getpid()}; }

RemoteSegmentList rseg(const void* p, std::size_t n) {
  return {{reinterpret_cast<std::uint64_t>(p), n}};
}

TEST(DmaEngine, CopyWithTrailingStatus) {
  DmaEngine eng;
  std::vector<std::byte> src(256 * KiB), dst(256 * KiB);
  pattern_fill(src, 1);
  std::uint8_t status = static_cast<std::uint8_t>(DmaStatus::kPending);
  eng.submit_copy_with_status(self_port(), rseg(src.data(), src.size()),
                              {{dst.data(), dst.size()}}, &status);
  while (load_status(status) == DmaStatus::kPending) {
  }
  EXPECT_EQ(load_status(status), DmaStatus::kSuccess);
  EXPECT_EQ(pattern_check(dst, 1), kPatternOk);
}

TEST(DmaEngine, InOrderCompletionAcrossJobs) {
  DmaEngine eng;
  constexpr int kJobs = 20;
  std::vector<std::vector<std::byte>> srcs, dsts;
  std::vector<std::uint8_t> statuses(kJobs, 0);
  for (int i = 0; i < kJobs; ++i) {
    srcs.emplace_back(64 * KiB);
    dsts.emplace_back(64 * KiB);
    pattern_fill(srcs.back(), static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < kJobs; ++i) {
    auto idx = static_cast<std::size_t>(i);
    eng.submit_copy(self_port(), rseg(srcs[idx].data(), srcs[idx].size()),
                    {{dsts[idx].data(), dsts[idx].size()}});
    eng.submit_status_write(&statuses[idx], DmaStatus::kSuccess);
  }
  // In-order FIFO: when status k is observed set, payloads 0..k must be
  // complete. Poll each status with an atomic view (race-free).
  for (int i = 0; i < kJobs; ++i) {
    auto idx = static_cast<std::size_t>(i);
    while (std::atomic_ref<std::uint8_t>(statuses[idx])
               .load(std::memory_order_acquire) !=
           static_cast<std::uint8_t>(DmaStatus::kSuccess)) {
    }
    for (int j = 0; j <= i; ++j)
      EXPECT_EQ(pattern_check(dsts[static_cast<std::size_t>(j)],
                              static_cast<std::uint64_t>(j)),
                kPatternOk);
  }
}

TEST(DmaEngine, ScatterGatherJob) {
  DmaEngine eng;
  std::vector<std::byte> src(10000), dst(10000);
  pattern_fill(src, 7);
  RemoteSegmentList remote{
      {reinterpret_cast<std::uint64_t>(src.data()), 3000},
      {reinterpret_cast<std::uint64_t>(src.data() + 3000), 7000}};
  SegmentList local{{dst.data(), 500},
                    {dst.data() + 500, 4500},
                    {dst.data() + 5000, 5000}};
  eng.submit_copy(self_port(), std::move(remote), std::move(local));
  eng.drain();
  EXPECT_EQ(pattern_check(dst, 7), kPatternOk);
}

TEST(DmaEngine, DrainWaitsForQueue) {
  DmaEngine eng;
  std::vector<std::byte> src(4 * MiB), dst(4 * MiB);
  pattern_fill(src, 2);
  for (int i = 0; i < 4; ++i)
    eng.submit_copy(self_port(), rseg(src.data(), src.size()),
                    {{dst.data(), dst.size()}});
  eng.drain();
  DmaStats st = eng.stats();
  EXPECT_EQ(st.jobs, 4u);
  EXPECT_EQ(st.bytes, 4ull * 4 * MiB);
  EXPECT_EQ(pattern_check(dst, 2), kPatternOk);
}

TEST(DmaEngine, NtAndCachedConfigsBothCorrect) {
  for (bool nt : {true, false}) {
    DmaEngine::Config cfg;
    cfg.use_nt = nt;
    DmaEngine eng(cfg);
    std::vector<std::byte> src(1 * MiB + 13), dst(1 * MiB + 13);
    pattern_fill(src, nt ? 3u : 4u);
    eng.submit_copy(self_port(), rseg(src.data(), src.size()),
                    {{dst.data(), dst.size()}});
    eng.drain();
    EXPECT_EQ(pattern_check(dst, nt ? 3u : 4u), kPatternOk);
  }
}

TEST(DmaEngine, PinnedWorkerStillFunctions) {
  DmaEngine::Config cfg;
  cfg.use_nt = false;
  cfg.pin_core = 0;  // The §3.4 kernel-thread model.
  DmaEngine eng(cfg);
  std::vector<std::byte> src(128 * KiB), dst(128 * KiB);
  pattern_fill(src, 5);
  std::uint8_t status = 0;
  eng.submit_copy_with_status(self_port(), rseg(src.data(), src.size()),
                              {{dst.data(), dst.size()}}, &status);
  while (load_status(status) == DmaStatus::kPending) {
  }
  EXPECT_EQ(pattern_check(dst, 5), kPatternOk);
  EXPECT_EQ(eng.stats().status_writes, 1u);
}

}  // namespace
}  // namespace nemo::shm
