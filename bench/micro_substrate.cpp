// google-benchmark micro-benchmarks of the substrate primitives: Nemesis
// queue enqueue/dequeue, copy-ring push/pop, NT vs cached copy, KNEM command
// issue, CMA vs direct read — plus one end-to-end eager pingpong through
// World's standard bring-up. Shared geometry (queue cells, ring buffers)
// comes from the Config defaults the World applies, so the rows reflect
// shipped defaults rather than hardcoded seed values.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "core/comm.hpp"
#include "knem/knem_device.hpp"
#include "shm/arena.hpp"
#include "shm/copy_ring.hpp"
#include "shm/nemesis_queue.hpp"
#include "shm/nt_copy.hpp"
#include "shm/remote_mem.hpp"

namespace {

using namespace nemo;
using namespace nemo::shm;

void BM_QueueEnqueueDequeue(benchmark::State& state) {
  Arena arena = Arena::create_anonymous(16 * MiB);
  RankQueues rq = make_rank_queues(arena, 0, core::Config{}.cells_per_rank);
  QueueView freeq(arena, rq.free_q), recvq(arena, rq.recv_q);
  for (auto _ : state) {
    std::uint64_t off = freeq.dequeue();
    recvq.enqueue(off);
    std::uint64_t got = recvq.dequeue();
    freeq.enqueue(got);
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_QueueEnqueueDequeue);

void BM_RingPushPop(benchmark::State& state) {
  auto chunk = static_cast<std::size_t>(state.range(0));
  Arena arena = Arena::create_anonymous(16 * MiB);
  std::uint64_t off = CopyRing::create(
      arena, core::Config{}.ring_bufs, static_cast<std::uint32_t>(chunk));
  CopyRing ring(arena, off);
  std::vector<std::byte> src(chunk), dst(chunk);
  std::uint64_t sc = 0, rc = 0;
  for (auto _ : state) {
    ring.try_push(sc, src.data(), chunk, false);
    bool last;
    ring.try_pop(rc, dst.data(), last);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk));
}
BENCHMARK(BM_RingPushPop)->Arg(8 << 10)->Arg(32 << 10)->Arg(128 << 10);

void BM_CachedCopy(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(n), dst(n);
  for (auto _ : state) {
    cached_memcpy(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CachedCopy)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);

void BM_NtCopy(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(n), dst(n);
  for (auto _ : state) {
    nt_memcpy(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NtCopy)->Arg(64 << 10)->Arg(1 << 20)->Arg(4 << 20);

void BM_KnemCommandRoundTrip(benchmark::State& state) {
  Arena arena = Arena::create_anonymous(16 * MiB);
  std::uint64_t dev_off = knem::Device::create(arena);
  knem::Device dev(arena, dev_off, 0, ::getpid());
  std::vector<std::byte> buf(4096);
  for (auto _ : state) {
    std::uint64_t cookie =
        dev.submit_send(ConstSegmentList{{buf.data(), buf.size()}});
    dev.release(cookie);
    benchmark::DoNotOptimize(cookie);
  }
}
BENCHMARK(BM_KnemCommandRoundTrip);

void BM_DirectVsCmaRead(benchmark::State& state) {
  bool cma = state.range(0) != 0;
  if (cma && !cma_available()) {
    state.SkipWithError("CMA unavailable");
    return;
  }
  auto n = static_cast<std::size_t>(state.range(1));
  std::vector<std::byte> src(n), dst(n);
  RemoteMemPort port(cma ? RemoteMode::kCma : RemoteMode::kDirect,
                     ::getpid());
  RemoteSegmentList remote{{reinterpret_cast<std::uint64_t>(src.data()), n}};
  SegmentList local{{dst.data(), n}};
  for (auto _ : state) {
    port.read(remote, local);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DirectVsCmaRead)
    ->Args({0, 1 << 20})
    ->Args({1, 1 << 20})
    ->Args({0, 4 << 20})
    ->Args({1, 4 << 20});

void BM_WorldEagerPingpong(benchmark::State& state) {
  // End-to-end eager round trip through World's standard bring-up: one
  // 2-rank world per benchmark run, the measured loop inside it, so the
  // fastbox geometry, drain budget and poll order are exactly what a
  // shipped World applies (not the seed constants the raw-primitive rows
  // above would otherwise bake in).
  auto bytes = static_cast<std::size_t>(state.range(0));
  core::Config cfg;
  cfg.nranks = 2;
  double rtt_ns = 0;
  core::run(cfg, [&](core::Comm& comm) {
    std::vector<std::byte> buf(bytes);
    int peer = 1 - comm.rank();
    std::uint64_t iters = 0, t0 = 0;
    if (comm.rank() == 0) t0 = now_ns();
    // Rank 1 mirrors rank 0's iteration count: benchmark::State paces rank
    // 0 only; a sentinel zero-byte message ends the partner loop.
    if (comm.rank() == 0) {
      for (auto _ : state) {
        comm.send(buf.data(), bytes, peer, 1);
        comm.recv(buf.data(), bytes, peer, 2);
        ++iters;
      }
      comm.send(buf.data(), 0, peer, 3);  // Stop marker.
      rtt_ns = iters > 0
                   ? static_cast<double>(now_ns() - t0) /
                         static_cast<double>(iters)
                   : 0;
    } else {
      core::RecvInfo info;
      for (;;) {
        comm.recv(buf.data(), bytes, peer, core::kAnyTag, &info);
        if (info.tag == 3) break;
        comm.send(buf.data(), bytes, peer, 2);
      }
    }
  });
  state.counters["rtt_ns"] =
      benchmark::Counter(rtt_ns, benchmark::Counter::kAvgThreads);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WorldEagerPingpong)->Arg(64)->Arg(1 << 10)->Arg(16 << 10);

}  // namespace

// Accept `--json <file>` / `--json=<file>` like the figure benches and
// translate it to google-benchmark's native JSON reporter flags.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string a = args[i];
    std::string path;
    if (a.rfind("--json=", 0) == 0) {
      path = a.substr(7);
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (a == "--json" && i + 1 < args.size()) {
      path = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else {
      continue;
    }
    out_flag = "--benchmark_out=" + path;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
    break;
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
