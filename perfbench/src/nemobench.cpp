// nemobench: the repository benchmark. One invocation runs one workload —
// an LMT configuration — through every phase, with every output checked:
//
//   setup     repeated 4-rank world bring-ups (setup_s);
//   pingpong  2 ranks, one message in flight, three seeded size classes
//             (small 8 B-1 KiB, medium 4-128 KiB, large 512 KiB-8 MiB);
//   coll      4 ranks, a seeded mix of allreduce_f64 (8 B, 1 MiB),
//             alltoall (256 KiB per pair), bcast (1 MiB) and barrier over
//             arena-resident buffers;
//   nas       4 ranks, NAS IS and FT class small in a seeded order.
//
// All loops are closed: a rank issues its next operation only after the
// previous one completed. Worlds run in threads mode, one rank per core.
// A run is cut into blocks of about a second, each on fresh worlds, and
// the end-to-end figures are medians over blocks (NAS: over calls).
// --trace 0 prints the end-to-end metrics; --trace 1 reruns the phases with
// spans around every public call the benchmark makes, adds the layer
// probes and the simulator's exact counts, and prints the per-layer
// metrics. The last stdout line is one JSON object; exit status is 1 when
// any check failed, 2 on a usage or environment error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "nas/nas_common.hpp"
#include "paths.hpp"
#include "plan.hpp"
#include "resil/resil.hpp"
#include "shm/nt_copy.hpp"
#include "shm/process_runner.hpp"
#include "sim/lmt_models.hpp"
#include "simd/simd.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tune/counters.hpp"

extern char** environ;

namespace {

using namespace perfbench;
namespace core = nemo::core;
namespace lmt = nemo::lmt;
namespace nas = nemo::nas;
namespace sim = nemo::sim;
namespace simd = nemo::simd;
using nemo::tune::Counters;

constexpr int kCollRanks = 4;
/// World bring-ups timed per block (setup_s).
constexpr int kSetupWorlds = 3;

// --------------------------------------------------------------------------
// Command line and environment
// --------------------------------------------------------------------------

struct Workload {
  const char* name;
  lmt::LmtKind lmt;
};
// auto: the runtime's own per-message path selection. ring: every
// rendezvous pinned to the two-copy shm ring, the path users get when no
// single-copy backend is available.
constexpr std::array<Workload, 2> kWorkloads = {
    {{"auto", lmt::LmtKind::kAuto}, {"ring", lmt::LmtKind::kDefaultShm}}};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "nemobench: %s\nusage: nemobench --workload auto|ring --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + key);
    std::string val = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (val == w.name) a.workload = &w;
      if (a.workload == nullptr) usage_error("unknown workload " + val);
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (!(a.seconds > 0 && a.seconds <= 600))
        usage_error("--seconds must be in (0, 600]");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage_error("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      usage_error("unknown argument " + key);
    }
    if (end != nullptr && (*end != '\0' || errno != 0))
      usage_error("bad number for " + key + ": " + val);
  }
  if (a.workload == nullptr || !have_seed || a.seconds <= 0)
    usage_error("--workload, --seed and --seconds are required");
  return a;
}

/// Ambient NEMO_* knobs would silently change the measured paths; only the
/// benchmark-owned tuning-cache location may be set.
void require_clean_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv = *e;
    if (kv.rfind("NEMO_", 0) == 0 && kv.rfind("NEMO_TUNE_CACHE=", 0) != 0) {
      std::fprintf(stderr, "nemobench: refusing to run with %s set\n",
                   kv.c_str());
      std::exit(2);
    }
  }
}

// --------------------------------------------------------------------------
// Counter deltas
// --------------------------------------------------------------------------

enum Field {
  kFbHits,
  kFbFallbacks,
  kRingStalls,
  kDrainExhausted,
  kProgressPasses,
  kUmHits,
  kUmMisses,
  kCollShm,
  kCollP2p,
  kCollFallbacks,
  kCollEpochStalls,
  kBarrierFlat,
  kBarrierTree,
  kFoldOps,
  kFoldBytes,
  kPeerDeaths,
  kTimeoutAborts,
  kFields
};

/// The engine counters this benchmark reads, as one subtractable value.
struct Tally {
  PathHist paths{};
  std::array<std::uint64_t, kFields> f{};

  static Tally of(const Counters& c) {
    Tally t;
    t.paths = c.path_hist;
    t.f[kFbHits] = c.fastbox_hits;
    t.f[kFbFallbacks] = c.fastbox_fallbacks;
    t.f[kRingStalls] = c.ring_stalls;
    t.f[kDrainExhausted] = c.drain_exhausted;
    t.f[kProgressPasses] = c.progress_passes;
    t.f[kUmHits] = c.um_pool_hits;
    t.f[kUmMisses] = c.um_pool_misses;
    t.f[kCollShm] = c.coll_shm_ops;
    t.f[kCollP2p] = c.coll_p2p_ops;
    t.f[kCollFallbacks] = c.coll_fallbacks;
    t.f[kCollEpochStalls] = c.coll_epoch_stalls;
    t.f[kBarrierFlat] = c.coll_barrier_flat;
    t.f[kBarrierTree] = c.coll_barrier_tree;
    for (int k = 0; k < Counters::kSimdKernels; ++k) {
      t.f[kFoldOps] += c.simd_fold_ops[static_cast<std::size_t>(k)];
      t.f[kFoldBytes] += c.simd_fold_bytes[static_cast<std::size_t>(k)];
    }
    t.f[kPeerDeaths] = c.peer_deaths;
    t.f[kTimeoutAborts] = c.timeout_aborts;
    return t;
  }
  static Tally of(core::Comm& c) { return of(c.engine().counters()); }

  Tally& operator+=(const Tally& o) {
    for (std::size_t i = 0; i < paths.size(); ++i) paths[i] += o.paths[i];
    for (std::size_t i = 0; i < f.size(); ++i) f[i] += o.f[i];
    return *this;
  }
  Tally operator-(const Tally& o) const {
    Tally t;
    for (std::size_t i = 0; i < paths.size(); ++i)
      t.paths[i] = paths[i] - o.paths[i];
    for (std::size_t i = 0; i < f.size(); ++i) t.f[i] = f[i] - o.f[i];
    return t;
  }
  [[nodiscard]] std::uint64_t msgs() const {
    return std::accumulate(paths.begin(), paths.end(), std::uint64_t{0});
  }
  [[nodiscard]] std::array<std::uint64_t, kPathLabels> by_label() const {
    return path_counts(PathHist{}, paths);
  }
};

/// num / den for counter totals; 0 when nothing was counted.
double frac(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

struct Sched {
  long vcsw = 0, ivcsw = 0;
  static Sched now() {
    rusage u{};
    getrusage(RUSAGE_THREAD, &u);
    return {u.ru_nvcsw, u.ru_nivcsw};
  }
  Sched operator-(const Sched& o) const {
    return {vcsw - o.vcsw, ivcsw - o.ivcsw};
  }
  Sched& operator+=(const Sched& o) {
    vcsw += o.vcsw;
    ivcsw += o.ivcsw;
    return *this;
  }
};

// --------------------------------------------------------------------------
// Run-wide state
// --------------------------------------------------------------------------

/// Failure accounting shared by every rank thread.
struct Checks {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> noted{false};

  void record(bool ok, const char* what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (ok) return;
    failed.fetch_add(1, std::memory_order_relaxed);
    if (!noted.exchange(true))
      std::fprintf(stderr, "nemobench: check failed: %s\n", what);
  }
};

/// Spans of one phase segment, one recorder per rank.
struct Segment {
  std::string name;
  std::vector<SpanRecorder> ranks;
};

struct RunState {
  Args args;
  int block = 0;  ///< Current block: salts each phase's seeded order.
  Checks checks;
  std::vector<double> setup_s;
  std::vector<double> core_ghz;  ///< Traced runs: one clock probe per block.
  Tally all;          ///< Every measured phase, summed over ranks.
  Sched sched;        ///< Context switches of every rank thread.
  std::uint64_t ops = 0;  ///< Timed operations (sched normalisation).
  std::vector<std::unique_ptr<Segment>> segments;

  /// A recorder set for a traced segment, nullptr when untraced.
  Segment* segment(const std::string& name, int nranks) {
    if (!args.trace) return nullptr;
    auto s = std::make_unique<Segment>();
    s->name = name;
    s->ranks.resize(static_cast<std::size_t>(nranks));
    segments.push_back(std::move(s));
    return segments.back().get();
  }
};

SpanRecorder* recorder(Segment* seg, int rank) {
  return seg == nullptr ? nullptr
                        : &seg->ranks[static_cast<std::size_t>(rank)];
}

/// Traced runs record the spans of odd iterations only, up to
/// kTracedIters per segment: a full small-message segment is millions of
/// spans, and the untraced even iterations between them give the
/// same-time baseline for bench.trace_overhead_ratio.
constexpr std::uint32_t kTracedIters = 128;

SpanRecorder* sampled(SpanRecorder* rec, std::uint32_t iter) {
  if (rec == nullptr || iter % 2 == 0 || iter / 2 >= kTracedIters)
    return nullptr;
  rec->set_iter(iter);
  return rec;
}

core::Config world_config(const RunState& st, int nranks) {
  core::Config cfg;
  cfg.nranks = nranks;
  cfg.mode = core::LaunchMode::kThreads;
  cfg.lmt = st.args.workload->lmt;
  cfg.shared_pool_bytes = 40 * MiB;
  for (int r = 0; r < nranks; ++r) cfg.core_binding.push_back(r);
  return cfg;
}

/// Run `body` on a fresh world and return its bring-up time: from
/// core::run entry until the last rank is inside its body.
double run_world(const core::Config& cfg,
                 const std::function<void(core::Comm&)>& body) {
  std::vector<std::int64_t> entered(static_cast<std::size_t>(cfg.nranks));
  std::int64_t t0 = now_ns();
  core::run(cfg, [&](core::Comm& c) {
    entered[static_cast<std::size_t>(c.rank())] = now_ns();
    body(c);
  });
  std::int64_t last = *std::max_element(entered.begin(), entered.end());
  return static_cast<double>(last - t0) * 1e-9;
}

/// Rank 0 decides when a phase is over; every rank follows after one
/// shm barrier per batch. The flag only ever goes false -> true, and no
/// rank can reach the next vote before every rank has read this one, so a
/// single barrier per batch suffices.
class StopVote {
 public:
  bool done(core::Comm& c, bool rank0_wants_stop) {
    if (c.rank() == 0 && rank0_wants_stop)
      stop_.store(true, std::memory_order_release);
    c.hard_barrier();
    return stop_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> stop_{false};
};

/// Per-rank results of one phase, merged after the world is torn down.
struct RankOut {
  Tally tally;
  Sched sched;
};

/// Catch a peer-death verdict inside a rank body: it counts as a failed
/// operation instead of aborting the process.
template <class F>
void guarded(RunState& st, const char* phase, F&& fn) {
  try {
    fn();
  } catch (const nemo::resil::PeerDeadError& e) {
    st.checks.record(false, phase);
    std::fprintf(stderr, "nemobench: %s: %s\n", phase, e.what());
  }
}

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

// --------------------------------------------------------------------------
// Phase: setup
// --------------------------------------------------------------------------

void phase_setup(RunState& st) {
  core::Config cfg = world_config(st, kCollRanks);
  for (int i = 0; i < kSetupWorlds; ++i)
    st.setup_s.push_back(run_world(cfg, [](core::Comm&) {}));
}

// --------------------------------------------------------------------------
// Phase: pingpong
// --------------------------------------------------------------------------

struct AlignedBuf {
  explicit AlignedBuf(std::size_t n)
      : p(static_cast<std::byte*>(std::aligned_alloc(4096, round(n)))) {
    if (p == nullptr) throw std::bad_alloc();
    std::memset(p, 0, round(n));
  }
  ~AlignedBuf() { std::free(p); }
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;
  static std::size_t round(std::size_t n) { return (n + 4095) / 4096 * 4096; }
  std::byte* p;
};

struct PingpongClass {
  StopVote vote;
  std::vector<std::pair<std::size_t, double>> rtt_ns;  ///< Rank 0: (size, RTT).
  /// Traced runs, rank 0: RTTs of the traced iterations and of the
  /// untraced ones interleaved with them.
  std::vector<double> traced_rtt_ns, baseline_rtt_ns;
  std::map<std::size_t, std::string> path_of_size;  ///< Rank 0 first sends.
  std::array<RankOut, 2> ranks;

  [[nodiscard]] Tally tally() const {
    Tally t = ranks[0].tally;
    t += ranks[1].tally;
    return t;
  }
  [[nodiscard]] std::vector<double> rtts() const {
    std::vector<double> v;
    v.reserve(rtt_ns.size());
    for (const auto& [n, t] : rtt_ns) v.push_back(t);
    return v;
  }
};

struct PingpongOut {
  std::array<PingpongClass, kSizeClasses> cls;
};

/// One size class between the two ranks of a 2-rank world. Payloads
/// alternate between two reference patterns, so a reply that left the
/// previous message in place fails its check. Checks run outside the
/// timed send+recv window.
void pingpong_class(RunState& st, core::Comm& c, SizeClass cls,
                    double budget_s,
                    const std::array<const AlignedBuf*, 2>& ref,
                    AlignedBuf& rbuf, SpanRecorder* trace, PingpongClass& out) {
  const std::vector<std::size_t> sizes = class_sizes(cls);
  SeededOrder order(st.args.seed,
                    std::string(class_name(cls)) + "#" +
                        std::to_string(st.block),
                    sizes.size());
  // Rounds between stop votes: roughly a millisecond of traffic each.
  const int rounds_per_batch =
      cls == SizeClass::kSmall ? 64 : cls == SizeClass::kMedium ? 16 : 1;
  const int peer = 1 - c.rank();
  const int tag = 10 + static_cast<int>(cls);

  std::uint32_t iter = 0;      // Every iteration: selects the payload.
  std::uint32_t measured = 0;  // Iterations after the warm-up batch.
  bool warm = true;
  Tally t0;
  Sched s0;
  std::int64_t deadline = 0;
  for (;;) {
    for (int r = 0; r < rounds_per_batch; ++r) {
      for (std::size_t idx : order.next_round()) {
        const std::size_t n = sizes[idx];
        const std::byte* want = ref[iter & 1]->p;
        SpanRecorder* rec = warm ? nullptr : sampled(trace, measured);
        ScopedSpan it(rec, "bench.iter");
        if (c.rank() == 0) {
          PathHist before = c.engine().counters().path_hist;
          std::int64_t ta = now_ns();
          {
            ScopedSpan s(rec, "core.send");
            c.send(want, n, peer, tag);
          }
          if (warm && out.path_of_size.count(n) == 0)
            out.path_of_size[n] = path_label_of(
                path_counts(before, c.engine().counters().path_hist));
          {
            ScopedSpan s(rec, "core.recv");
            c.recv(rbuf.p, n, peer, tag);
          }
          std::int64_t tb = now_ns();
          if (!warm) {
            out.rtt_ns.emplace_back(n, static_cast<double>(tb - ta));
            if (rec != nullptr)
              out.traced_rtt_ns.push_back(static_cast<double>(tb - ta));
            else if (trace != nullptr && measured < 2 * kTracedIters)
              out.baseline_rtt_ns.push_back(static_cast<double>(tb - ta));
          }
        } else {
          {
            ScopedSpan s(rec, "core.recv");
            c.recv(rbuf.p, n, peer, tag);
          }
          ScopedSpan s(rec, "core.send");
          c.send(rbuf.p, n, peer, tag);
        }
        ScopedSpan chk(rec, "bench.check");
        st.checks.record(std::memcmp(rbuf.p, want, n) == 0,
                         "pingpong payload");
        ++iter;
        if (!warm) ++measured;
      }
    }
    bool over = !warm && now_ns() >= deadline;
    if (out.vote.done(c, over)) break;
    if (warm) {  // The first batch warms caches and lazy set-up: unmeasured.
      warm = false;
      t0 = Tally::of(c);
      s0 = Sched::now();
      deadline = deadline_after(budget_s);
    }
  }
  RankOut& ro = out.ranks[static_cast<std::size_t>(c.rank())];
  ro.tally = Tally::of(c) - t0;
  ro.sched = Sched::now() - s0;
}

/// Effective clock of the calling core: a dependent 64-bit multiply-add
/// chain retires one step per 4 cycles (imul 3 + add 1) on x86 cores, so
/// its rate tracks the turbo state that a shared host moves under us.
double core_ghz_probe() {
  constexpr long kSteps = 2'000'000;
  std::uint64_t x = 1;
  std::int64_t t0 = now_ns();
  for (long i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return 4.0 * kSteps / static_cast<double>(now_ns() - t0);
}

void phase_pingpong(RunState& st, double budget_s, PingpongOut& out) {
  const std::size_t max_n = class_sizes(SizeClass::kLarge).back();
  AlignedBuf ref0(max_n), ref1(max_n);
  nemo::pattern_fill({ref0.p, max_n}, payload_seed(st.args.seed, 1, 0));
  nemo::pattern_fill({ref1.p, max_n}, payload_seed(st.args.seed, 1, 1));
  const std::array<const AlignedBuf*, 2> ref = {&ref0, &ref1};

  std::array<Segment*, kSizeClasses> seg{};
  for (int k = 0; k < kSizeClasses; ++k)
    seg[static_cast<std::size_t>(k)] = st.segment(
        std::string("pingpong.") + class_name(static_cast<SizeClass>(k)), 2);
  // Large messages are few per second, so they get the larger share.
  const std::array<double, kSizeClasses> share = {0.25, 0.25, 0.5};

  run_world(world_config(st, 2), [&](core::Comm& c) {
    if (st.args.trace && c.rank() == 0) st.core_ghz.push_back(core_ghz_probe());
    guarded(st, "pingpong", [&] {
      AlignedBuf rbuf(max_n);
      for (std::size_t k = 0; k < kSizeClasses; ++k)
        pingpong_class(st, c, static_cast<SizeClass>(k), budget_s * share[k],
                       ref, rbuf, recorder(seg[k], c.rank()), out.cls[k]);
    });
  });
  for (PingpongClass* k :
       {&out.cls[0], &out.cls[1], &out.cls[2]}) {
    for (const RankOut& ro : k->ranks) {
      st.all += ro.tally;
      st.sched += ro.sched;
    }
    st.ops += k->rtt_ns.size();
  }
}

// --------------------------------------------------------------------------
// Phase: coll
// --------------------------------------------------------------------------

constexpr std::size_t kA2aBlock = 256 * KiB;
constexpr std::size_t kBig = 1 * MiB;
constexpr std::size_t kBigDoubles = kBig / sizeof(double);
constexpr int kBurst = 16;

/// Integer-valued operand, so the allreduce sum is exact in any order.
double operand(int rank, std::size_t i, int parity) {
  return static_cast<double>(
      (static_cast<std::size_t>(rank) * 7 + i * 13 +
       static_cast<std::size_t>(parity)) %
      1024);
}

struct CollOut {
  StopVote vote;
  std::atomic<std::uint64_t> barrier_arrivals{0};
  /// [op][rank] -> per-instance times; instance j is the same collective
  /// call on every rank.
  std::array<std::array<std::vector<double>, kCollRanks>, kCollOps> ns;
  std::array<std::uint64_t, kCollOps> shm_ops{};  ///< Rank 0 deltas.
  std::array<std::uint64_t, kCollOps> coll_ops{};
  std::array<RankOut, kCollRanks> ranks;
  simd::Kernel kernel = simd::Kernel::kScalar;

  /// Instance times: the slowest rank's, per call.
  [[nodiscard]] std::vector<double> op_ns(int op) const {
    const auto& r = ns[static_cast<std::size_t>(op)];
    std::size_t n = r[0].size();
    for (const auto& per_rank : r) n = std::min(n, per_rank.size());
    std::vector<double> v(n);
    for (std::size_t j = 0; j < v.size(); ++j)
      for (const auto& per_rank : r) v[j] = std::max(v[j], per_rank[j]);
    return v;
  }
  [[nodiscard]] Tally tally() const {
    Tally t;
    for (const RankOut& ro : ranks) t += ro.tally;
    return t;
  }
};

struct CollBuffers {
  std::array<double*, 2> ar8_in{}, ar1m_in{};
  double* ar8_out = nullptr;
  double* ar1m_out = nullptr;
  std::array<std::byte*, 2> a2a_send{};
  std::byte* a2a_recv = nullptr;
  std::byte* bcast = nullptr;
};

void phase_coll(RunState& st, double budget_s, CollOut& out) {
  // Shared read-only references: alltoall blocks [parity][src][dst] and
  // the two bcast payloads.
  const std::size_t nblk = 2 * kCollRanks * kCollRanks;
  AlignedBuf a2a_ref(nblk * kA2aBlock), bc_ref(2 * kBig);
  auto a2a_block = [&](int p, int s, int d) {
    return a2a_ref.p +
           (static_cast<std::size_t>((p * kCollRanks + s) * kCollRanks + d)) *
               kA2aBlock;
  };
  for (int p = 0; p < 2; ++p) {
    for (int s = 0; s < kCollRanks; ++s)
      for (int d = 0; d < kCollRanks; ++d)
        nemo::pattern_fill(
            {a2a_block(p, s, d), kA2aBlock},
            payload_seed(st.args.seed, 2, s * kCollRanks + d, p));
    nemo::pattern_fill({bc_ref.p + static_cast<std::size_t>(p) * kBig, kBig},
                       payload_seed(st.args.seed, 3, 0, p));
  }
  Segment* seg = st.segment("coll", kCollRanks);

  run_world(world_config(st, kCollRanks), [&](core::Comm& c) {
    const int me = c.rank();
    SpanRecorder* trace = recorder(seg, me);
    if (me == 0) out.kernel = c.engine().simd_kernel();
    // Arena-resident operands (MPI_Alloc_mem style), filled once.
    CollBuffers b;
    std::array<std::vector<double>, 2> ar1m_want, ar8_want;
    for (int p = 0; p < 2; ++p) {
      b.ar8_in[static_cast<std::size_t>(p)] =
          reinterpret_cast<double*>(c.shared_alloc(sizeof(double)));
      b.ar1m_in[static_cast<std::size_t>(p)] =
          reinterpret_cast<double*>(c.shared_alloc(kBig));
      b.a2a_send[static_cast<std::size_t>(p)] =
          c.shared_alloc(kCollRanks * kA2aBlock);
      b.ar8_in[static_cast<std::size_t>(p)][0] = operand(me, 0, p);
      ar8_want[static_cast<std::size_t>(p)].assign(1, 0.0);
      ar1m_want[static_cast<std::size_t>(p)].assign(kBigDoubles, 0.0);
      for (std::size_t i = 0; i < kBigDoubles; ++i) {
        b.ar1m_in[static_cast<std::size_t>(p)][i] = operand(me, i, p);
        for (int r = 0; r < kCollRanks; ++r)
          ar1m_want[static_cast<std::size_t>(p)][i] += operand(r, i, p);
      }
      for (int r = 0; r < kCollRanks; ++r)
        ar8_want[static_cast<std::size_t>(p)][0] += operand(r, 0, p);
      for (int d = 0; d < kCollRanks; ++d)
        std::memcpy(b.a2a_send[static_cast<std::size_t>(p)] +
                        static_cast<std::size_t>(d) * kA2aBlock,
                    a2a_block(p, me, d), kA2aBlock);
    }
    b.ar8_out = reinterpret_cast<double*>(c.shared_alloc(sizeof(double)));
    b.ar1m_out = reinterpret_cast<double*>(c.shared_alloc(kBig));
    b.a2a_recv = c.shared_alloc(kCollRanks * kA2aBlock);
    b.bcast = c.shared_alloc(kBig);

    guarded(st, "coll", [&] {
      SeededOrder order(st.args.seed, "coll#" + std::to_string(st.block),
                        kCollOps);
      std::array<std::uint64_t, kCollOps> count{};
      std::uint64_t barriers = 0;
      std::uint32_t iter = 0;
      bool warm = true;
      Tally t0;
      Sched s0;
      std::int64_t deadline = 0;
      for (;;) {
        for (int r = 0; r < 4; ++r) {
          for (std::size_t opi : order.next_round()) {
            const auto op = static_cast<CollOp>(opi);
            // The two latency-bound calls are timed as a burst of kBurst
            // back-to-back calls (IMB style), so the start skew the shm
            // barrier leaves between ranks is amortised over the burst.
            const bool burst =
                op == CollOp::kAllreduce8b || op == CollOp::kBarrier;
            const int calls = burst ? kBurst : 1;
            std::array<double, kBurst> seen{};  // Per-call results to check.
            const int p0 = static_cast<int>(count[opi] & 1);
            const auto p0i = static_cast<std::size_t>(p0);
            SpanRecorder* rec = warm ? nullptr : sampled(trace, iter++);
            ScopedSpan it(rec, "bench.iter");
            if (op == CollOp::kBcast1m && me == 0)
              std::memcpy(b.bcast, bc_ref.p + p0i * kBig, kBig);
            // Start every timed call together, so its time is the
            // collective's own and not the previous call's rank skew.
            c.hard_barrier();
            Tally before = me == 0 ? Tally::of(c) : Tally{};
            std::int64_t ta = now_ns();
            for (int k = 0; k < calls; ++k) {
              const auto pi = static_cast<std::size_t>((count[opi] + k) & 1);
              switch (op) {
                case CollOp::kAllreduce8b: {
                  ScopedSpan s(rec, "coll.allreduce_f64");
                  c.allreduce_f64(b.ar8_in[pi], b.ar8_out, 1,
                                  core::Comm::ReduceOp::kSum);
                  seen[static_cast<std::size_t>(k)] = b.ar8_out[0];
                  break;
                }
                case CollOp::kAllreduce1m: {
                  ScopedSpan s(rec, "coll.allreduce_f64");
                  c.allreduce_f64(b.ar1m_in[pi], b.ar1m_out, kBigDoubles,
                                  core::Comm::ReduceOp::kSum);
                  break;
                }
                case CollOp::kAlltoall256k: {
                  ScopedSpan s(rec, "coll.alltoall");
                  c.alltoall(b.a2a_send[pi], kA2aBlock, b.a2a_recv);
                  break;
                }
                case CollOp::kBcast1m: {
                  ScopedSpan s(rec, "coll.bcast");
                  c.bcast(b.bcast, kBig, 0);
                  break;
                }
                case CollOp::kBarrier: {
                  ScopedSpan s(rec, "coll.barrier");
                  out.barrier_arrivals.fetch_add(1, std::memory_order_acq_rel);
                  c.barrier();
                  seen[static_cast<std::size_t>(k)] = static_cast<double>(
                      out.barrier_arrivals.load(std::memory_order_acquire));
                  break;
                }
              }
            }
            std::int64_t tb = now_ns();
            count[opi] += static_cast<std::uint64_t>(calls);
            if (!warm) {
              out.ns[opi][static_cast<std::size_t>(me)].push_back(
                  static_cast<double>(tb - ta) / calls);
              if (me == 0) {
                Tally d = Tally::of(c) - before;
                out.shm_ops[opi] += d.f[kCollShm];
                out.coll_ops[opi] += d.f[kCollShm] + d.f[kCollP2p];
              }
            }
            ScopedSpan chk(rec, "bench.check");
            bool ok = true;
            switch (op) {
              case CollOp::kAllreduce8b:
                for (int k = 0; k < calls; ++k) {
                  const auto want = static_cast<std::size_t>((p0 + k) & 1);
                  ok = seen[static_cast<std::size_t>(k)] == ar8_want[want][0];
                  if (k + 1 < calls) st.checks.record(ok, "allreduce_8b");
                }
                break;
              case CollOp::kAllreduce1m:
                ok = std::memcmp(b.ar1m_out, ar1m_want[p0i].data(), kBig) == 0;
                break;
              case CollOp::kAlltoall256k:
                for (int s = 0; s < kCollRanks; ++s)
                  ok = ok && std::memcmp(b.a2a_recv +
                                             static_cast<std::size_t>(s) *
                                                 kA2aBlock,
                                         a2a_block(p0, s, me), kA2aBlock) == 0;
                break;
              case CollOp::kBcast1m:
                ok = std::memcmp(b.bcast, bc_ref.p + p0i * kBig, kBig) == 0;
                break;
              case CollOp::kBarrier:
                // Nobody leaves barrier k before every rank arrived at it.
                for (int k = 0; k < calls; ++k) {
                  ok = seen[static_cast<std::size_t>(k)] >=
                       static_cast<double>(kCollRanks * ++barriers);
                  if (k + 1 < calls) st.checks.record(ok, "barrier");
                }
                break;
            }
            st.checks.record(ok, coll_op_name(op));
          }
        }
        bool over = !warm && now_ns() >= deadline;
        if (out.vote.done(c, over)) break;
        if (warm) {
          warm = false;
          t0 = Tally::of(c);
          s0 = Sched::now();
          deadline = deadline_after(budget_s);
        }
      }
      RankOut& ro = out.ranks[static_cast<std::size_t>(me)];
      ro.tally = Tally::of(c) - t0;
      ro.sched = Sched::now() - s0;
    });
  });
  for (const RankOut& ro : out.ranks) {
    st.all += ro.tally;
    st.sched += ro.sched;
  }
  for (int op = 0; op < kCollOps; ++op) st.ops += out.op_ns(op).size();
}

// --------------------------------------------------------------------------
// Phase: nas
// --------------------------------------------------------------------------

enum Kernel { kIs = 0, kFt = 1, kKernels };
constexpr std::array<const char*, kKernels> kKernelNames = {"is", "ft"};

struct NasOut {
  std::array<std::vector<double>, kKernels> seconds;  ///< Rank 0 results.
  /// [kernel][rank] counter deltas across that kernel's calls.
  std::array<std::array<RankOut, kCollRanks>, kKernels> ranks;

  [[nodiscard]] Tally tally(int k) const {
    Tally t;
    for (const RankOut& ro : ranks[static_cast<std::size_t>(k)]) t += ro.tally;
    return t;
  }
};

// FT runs ~15x shorter than IS; three FT calls per IS call keep both
// medians fed.
constexpr std::array<Kernel, 4> kNasRound = {kIs, kFt, kFt, kFt};

/// One round of kernels, in `order` (indices into kNasRound), on a fresh
/// world; `out` accumulates across rounds.
void phase_nas(RunState& st, const std::vector<std::size_t>& order,
               NasOut& out) {
  Segment* seg = st.segment("nas", kCollRanks);
  const nas::IsParams isp = nas::is_params(nas::NasClass::kSmall);
  const nas::FtParams ftp = nas::ft_params(nas::NasClass::kSmall);
  std::array<std::array<RankOut, kCollRanks>, kKernels> round{};

  run_world(world_config(st, kCollRanks), [&](core::Comm& c) {
    const int me = c.rank();
    SpanRecorder* rec = recorder(seg, me);
    guarded(st, "nas", [&] {
      std::uint32_t iter = 0;
      for (std::size_t idx : order) {
        const Kernel k = kNasRound[idx];
        if (rec != nullptr) rec->set_iter(iter++);
        ScopedSpan it(rec, "bench.iter");
        Tally t0 = Tally::of(c);
        Sched s0 = Sched::now();
        nas::NasResult r;
        if (k == kIs) {
          ScopedSpan s(rec, "nas.run_is");
          r = nas::run_is(c, isp);
        } else {
          ScopedSpan s(rec, "nas.run_ft");
          r = nas::run_ft(c, ftp);
        }
        RankOut& ro = round[k][static_cast<std::size_t>(me)];
        ro.tally += Tally::of(c) - t0;
        ro.sched += Sched::now() - s0;
        ScopedSpan chk(rec, "bench.check");
        st.checks.record(r.verified, kKernelNames[k]);
        if (me == 0) out.seconds[k].push_back(r.seconds);
      }
    });
  });
  for (std::size_t k = 0; k < kKernels; ++k)
    for (std::size_t r = 0; r < kCollRanks; ++r) {
      out.ranks[k][r].tally += round[k][r].tally;
      st.all += round[k][r].tally;
      st.sched += round[k][r].sched;
    }
  st.ops += order.size();
}

// --------------------------------------------------------------------------
// Layer probes and simulator counts (traced run)
// --------------------------------------------------------------------------

/// Median GiB/s of `fn` moving `bytes` per call, over `reps` timed calls.
double probe_gibs(std::size_t bytes, int reps,
                  const std::function<void()>& fn) {
  fn();  // Warm: page faults and first-touch.
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    std::int64_t t0 = now_ns();
    fn();
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return static_cast<double>(bytes) / static_cast<double>(nemo::GiB) /
         median(s);
}

struct Probes {
  double memcpy_gibs = 0, nt_memcpy_gibs = 0, fold_gibs = 0;
};

constexpr int kCopyReps = 21;
constexpr int kFoldReps = 41;

/// Copy and fold probes on core 0, run after every world is torn down.
Probes run_probes(simd::Kernel kernel) {
  nemo::shm::pin_self_to_core(0);
  Probes p;
  constexpr std::size_t kCopy = 8 * MiB;
  AlignedBuf src(kCopy), dst(kCopy);
  nemo::pattern_fill({src.p, kCopy}, 7);
  p.memcpy_gibs = probe_gibs(kCopy, kCopyReps, [&] {
    nemo::shm::cached_memcpy(dst.p, src.p, kCopy);
  });
  p.nt_memcpy_gibs = probe_gibs(kCopy, kCopyReps, [&] {
    nemo::shm::nt_memcpy(dst.p, src.p, kCopy);
  });
  std::vector<double> acc(kBigDoubles, 0.0), add(kBigDoubles, 1.0);
  p.fold_gibs = probe_gibs(kBig, kFoldReps, [&] {
    simd::fold(kernel, simd::Op::kSum, acc.data(), add.data(), kBigDoubles);
  });
  return p;
}

/// The simulator strategy modelling a counter-reported path label.
sim::Strategy strategy_for(const std::string& label) {
  if (label == "vmsplice") return sim::Strategy::kVmsplice;
  // CMA is a receiver-side single kernel copy, which is what KNEM's
  // synchronous mode models.
  if (label == "knem" || label == "cma") return sim::Strategy::kKnem;
  return sim::Strategy::kDefault;  // fastbox / eager / default: two copies.
}

struct SimCounts {
  std::uint64_t pp_l2_64k = 0, pp_l2_8m = 0, a2a_copy = 0, a2a_l2 = 0,
                bcast_copy = 0, ar_copy = 0;
  bool operator==(const SimCounts&) const = default;
};

SimCounts sim_counts(const std::string& path_64k, const std::string& path_8m,
                     bool a2a_shm, bool bcast_shm, bool ar_shm) {
  const std::vector<int> cores = {0, 1, 2, 3};
  auto fresh = [] { return sim::LmtModels(sim::e5345_machine()); };
  SimCounts s;
  // Pingpong between cores that share no cache, as in Table 2.
  s.pp_l2_64k = fresh().pingpong_l2_misses(strategy_for(path_64k), 0, 7,
                                           64 * KiB);
  s.pp_l2_8m = fresh().pingpong_l2_misses(strategy_for(path_8m), 0, 7,
                                          8 * MiB, 2);
  auto a2a = fresh().alltoall_coll(a2a_shm, cores, kA2aBlock, 2);
  s.a2a_copy = a2a.copy_bytes;
  s.a2a_l2 = a2a.l2_misses;
  s.bcast_copy = fresh().bcast_coll(bcast_shm, cores, kBig, 2).copy_bytes;
  s.ar_copy = fresh().allreduce_coll(ar_shm, cores, kBig, 2).copy_bytes;
  return s;
}

// --------------------------------------------------------------------------
// Reporting
// --------------------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric " + name + " is not finite");
    rows_.push_back({name, value, unit, samples});
  }

  /// Human-readable rows, then the one-line JSON result.
  void print(const Checks& checks) const {
    const std::uint64_t attempted = checks.attempted.load();
    const std::uint64_t failed = checks.failed.load();
    for (const Row& r : rows_)
      std::printf("metric %-36s %16.6f %-10s n=%zu\n", r.name.c_str(), r.value,
                  r.unit, r.samples);
    std::printf("metric %-36s %16.6f %-10s n=%llu\n", "fail_ratio",
                frac(failed, attempted), "ratio",
                static_cast<unsigned long long>(attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    std::size_t samples;
  };
  std::vector<Row> rows_;
};

double ns_to_us(double ns) { return ns * 1e-3; }

/// One-way MiB/s over a class: per-size median RTT halves, summed — a
/// median-based figure that a few scheduler outliers cannot move.
double oneway_mibs(const PingpongClass& k) {
  std::map<std::size_t, std::vector<double>> by_size;
  for (const auto& [n, t] : k.rtt_ns) by_size[n].push_back(t);
  double bytes = 0, secs = 0;
  for (auto& [n, v] : by_size) {
    bytes += static_cast<double>(n);
    secs += median(v) * 0.5e-9;
  }
  return bytes / secs / static_cast<double>(MiB);
}

/// Every phase output of a run, one entry per block.
struct Blocks {
  std::vector<std::unique_ptr<PingpongOut>> pp;
  std::vector<std::unique_ptr<CollOut>> co;
  NasOut nas;
};

/// Median over blocks of a per-block figure.
template <class T, class F>
double block_median(const std::vector<std::unique_ptr<T>>& blocks, F&& fn) {
  std::vector<double> v;
  for (const auto& b : blocks) v.push_back(fn(*b));
  return median(v);
}

void report_end_to_end(const RunState& st, const Blocks& b, Report& rep) {
  rep.add("setup_s", median(st.setup_s), "s", st.setup_s.size());
  std::size_t n[kSizeClasses] = {};
  for (const auto& pp : b.pp)
    for (int k = 0; k < kSizeClasses; ++k)
      n[k] += pp->cls[static_cast<std::size_t>(k)].rtt_ns.size();
  rep.add("small_rtt_us_p50", block_median(b.pp, [](const PingpongOut& pp) {
            return ns_to_us(median(pp.cls[0].rtts()));
          }), "us", n[0]);
  rep.add("small_rtt_us_p99", block_median(b.pp, [](const PingpongOut& pp) {
            std::vector<double> v = pp.cls[0].rtts();
            if (!percentile_supported(v.size(), 0.99))
              throw std::runtime_error("too few small samples for a p99");
            return ns_to_us(quantile(v, 0.99));
          }), "us", n[0]);
  rep.add("medium_rtt_us_p50", block_median(b.pp, [](const PingpongOut& pp) {
            return ns_to_us(median(pp.cls[1].rtts()));
          }), "us", n[1]);
  rep.add("large_mibs", block_median(b.pp, [](const PingpongOut& pp) {
            return oneway_mibs(pp.cls[2]);
          }), "MiB/s", n[2]);
  for (int op = 0; op < kCollOps; ++op) {
    std::size_t count = 0;
    for (const auto& co : b.co) count += co->op_ns(op).size();
    rep.add(std::string(coll_op_name(static_cast<CollOp>(op))) + "_us",
            block_median(b.co, [op](const CollOut& co) {
              return ns_to_us(median(co.op_ns(op)));
            }), "us", count);
  }
  for (int k = 0; k < kKernels; ++k) {
    const auto& v = b.nas.seconds[static_cast<std::size_t>(k)];
    rep.add(std::string(kKernelNames[static_cast<std::size_t>(k)]) + "_s",
            median(v), "s", v.size());
  }
}

/// Durations of spans named `name` in every segment named `segment`.
std::vector<double> span_ns(const RunState& st, const std::string& segment,
                            const char* name) {
  std::vector<double> v;
  for (const auto& seg : st.segments) {
    if (seg->name != segment) continue;
    for (const SpanRecorder& r : seg->ranks)
      for (const Span& s : r.spans())
        if (std::strcmp(s.name, name) == 0)
          v.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return v;
}

void report_per_layer(RunState& st, const Blocks& b, Report& rep) {
  // Pool every block: per-class tallies, collective instances, NAS calls.
  std::array<Tally, kSizeClasses> cls_tally;
  Tally pt, ct;
  std::array<std::vector<double>, kCollOps> op_ns;
  std::array<std::uint64_t, kCollOps> shm_ops{}, coll_ops{};
  std::vector<double> small_traced, small_baseline;
  for (const auto& pp : b.pp) {
    for (std::size_t k = 0; k < kSizeClasses; ++k) {
      cls_tally[k] += pp->cls[k].tally();
      pt += pp->cls[k].tally();
    }
    for (double t : pp->cls[0].traced_rtt_ns) small_traced.push_back(t);
    for (double t : pp->cls[0].baseline_rtt_ns) small_baseline.push_back(t);
  }
  for (const auto& co : b.co) {
    ct += co->tally();
    for (std::size_t op = 0; op < kCollOps; ++op) {
      for (double t : co->op_ns(static_cast<int>(op))) op_ns[op].push_back(t);
      shm_ops[op] += co->shm_ops[op];
      coll_ops[op] += co->coll_ops[op];
    }
  }

  auto count = [&](const std::string& name, std::uint64_t v, const char* unit,
                   std::size_t n) {
    rep.add(name, static_cast<double>(v), unit, n);
  };
  auto share = [&](const std::string& name, std::uint64_t num,
                   std::uint64_t den, const char* unit = "ratio") {
    rep.add(name, frac(num, den), unit, den);
  };
  // One "<prefix><path><suffix>" share per path label.
  auto path_rows = [&](const std::string& prefix, const std::string& suffix,
                       const Tally& t) {
    const auto counts = t.by_label();
    for (std::size_t l = 0; l < kPathLabels; ++l)
      share(prefix + kPathNames[l] + suffix, counts[l], t.msgs());
  };

  // core: blocking send/recv time per class, progress efficiency.
  for (const char* call : {"send", "recv"})
    for (int k = 0; k < kSizeClasses; ++k) {
      const char* cls = class_name(static_cast<SizeClass>(k));
      std::vector<double> v = span_ns(st, std::string("pingpong.") + cls,
                                      (std::string("core.") + call).c_str());
      rep.add(std::string("core.") + call + "_ns_p50." + cls, median(v), "ns",
              v.size());
    }
  share("core.progress_passes_per_msg", pt.f[kProgressPasses], pt.msgs(),
        "passes/msg");
  share("core.um_pool_hit_ratio", pt.f[kUmHits],
        pt.f[kUmHits] + pt.f[kUmMisses]);
  count("core.drain_exhausted", st.all.f[kDrainExhausted], "count",
        st.all.msgs());

  // shm: fastbox efficiency, ring back-pressure, copy probes.
  share("shm.fastbox_hit_ratio", pt.f[kFbHits],
        pt.f[kFbHits] + pt.f[kFbFallbacks]);
  share("shm.ring_stalls_per_msg", pt.f[kRingStalls], pt.msgs(),
        "stalls/msg");
  Probes pr = run_probes(b.co[0]->kernel);
  rep.add("shm.memcpy_gibs_8m", pr.memcpy_gibs, "GiB/s", kCopyReps);
  rep.add("shm.nt_memcpy_gibs_8m", pr.nt_memcpy_gibs, "GiB/s", kCopyReps);

  // lmt: the path each class's messages actually took.
  for (int k = 0; k < kSizeClasses; ++k)
    path_rows("lmt.path_share.",
              std::string(".") + class_name(static_cast<SizeClass>(k)),
              cls_tally[static_cast<std::size_t>(k)]);

  // coll: arena usage, fallbacks, waits, tails.
  const std::uint64_t cops = ct.f[kCollShm] + ct.f[kCollP2p];
  share("coll.shm_op_ratio", ct.f[kCollShm], cops);
  count("coll.fallbacks", ct.f[kCollFallbacks], "count", cops);
  share("coll.epoch_stalls_per_op", ct.f[kCollEpochStalls], cops, "stalls/op");
  share("coll.barrier_tree_ratio", ct.f[kBarrierTree],
        ct.f[kBarrierFlat] + ct.f[kBarrierTree]);
  for (int op = 0; op < kCollOps; ++op) {
    const std::string name = coll_op_name(static_cast<CollOp>(op));
    const std::vector<double>& v = op_ns[static_cast<std::size_t>(op)];
    if (!percentile_supported(v.size(), 0.99))
      throw std::runtime_error("too few samples for a p99 of " + name +
                               " (n=" + std::to_string(v.size()) +
                               "); use a longer --seconds");
    rep.add("coll." + name + "_us_p99", ns_to_us(quantile(v, 0.99)), "us",
            v.size());
  }

  // simd: fold probe with the resolved kernel; bytes folded per call.
  rep.add("simd.fold_gibs_1m", pr.fold_gibs, "GiB/s", kFoldReps);
  share("simd.fold_bytes_per_op", ct.f[kFoldBytes], ct.f[kFoldOps], "B/op");

  // sim: exact counts for the paths the counters reported, computed twice.
  auto path_at = [&](SizeClass cls, std::size_t n) -> std::string {
    const auto& m = b.pp[0]->cls[static_cast<std::size_t>(cls)].path_of_size;
    auto it = m.find(n);
    return it == m.end() ? "none" : it->second;
  };
  auto on_shm = [&](CollOp op) {
    auto i = static_cast<std::size_t>(op);
    return coll_ops[i] > 0 && shm_ops[i] * 2 > coll_ops[i];
  };
  auto counts = [&] {
    return sim_counts(path_at(SizeClass::kMedium, 64 * KiB),
                      path_at(SizeClass::kLarge, 8 * MiB),
                      on_shm(CollOp::kAlltoall256k), on_shm(CollOp::kBcast1m),
                      on_shm(CollOp::kAllreduce1m));
  };
  const SimCounts sc = counts();
  st.checks.record(sc == counts(), "sim counts repeat exactly");
  count("sim.pingpong_l2_misses.64k", sc.pp_l2_64k, "count", 1);
  count("sim.pingpong_l2_misses.8m", sc.pp_l2_8m, "count", 1);
  count("sim.alltoall_256k_copy_bytes", sc.a2a_copy, "B", 1);
  count("sim.alltoall_256k_l2_misses", sc.a2a_l2, "count", 1);
  count("sim.bcast_1m_copy_bytes", sc.bcast_copy, "B", 1);
  count("sim.allreduce_1m_copy_bytes", sc.ar_copy, "B", 1);

  // nas: what each kernel's traffic took.
  for (int k = 0; k < kKernels; ++k) {
    const Tally t = b.nas.tally(k);
    const std::string pre =
        std::string("nas.") + kKernelNames[static_cast<std::size_t>(k)];
    path_rows(pre + ".path_share.", "", t);
    share(pre + ".coll_shm_op_ratio", t.f[kCollShm],
          t.f[kCollShm] + t.f[kCollP2p]);
  }

  // resil, scheduler noise, host clock, trace cost, per-layer self time.
  count("resil.peer_deaths", st.all.f[kPeerDeaths], "count", 1);
  count("resil.timeout_aborts", st.all.f[kTimeoutAborts], "count", 1);
  const double kops = static_cast<double>(st.ops) / 1000.0;
  rep.add("sched.vcsw_per_kop", static_cast<double>(st.sched.vcsw) / kops,
          "1/kop", st.ops);
  rep.add("sched.ivcsw_per_kop", static_cast<double>(st.sched.ivcsw) / kops,
          "1/kop", st.ops);
  rep.add("bench.core_ghz", median(st.core_ghz), "GHz", st.core_ghz.size());
  const double traced = median(small_traced);
  const double untraced = median(small_baseline);
  rep.add("bench.trace_overhead_ratio", (traced - untraced) / untraced, "ratio",
          small_traced.size());
  std::map<std::string, std::int64_t> self;
  std::int64_t total = 0;
  for (const auto& seg : st.segments)
    for (const SpanRecorder& r : seg->ranks) {
      for (const auto& [layer, ns] : self_by_layer(r.spans()))
        self[layer] += ns;
      for (const Span& sp : r.spans())
        if (sp.parent < 0) total += sp.end_ns - sp.start_ns;
    }
  for (const char* layer : {"bench", "core", "coll", "nas"})
    rep.add(std::string("trace.self_share.") + layer,
            static_cast<double>(self[layer]) / static_cast<double>(total),
            "ratio", st.ops);
}

/// Tab-separated span dump: segment, rank, index, parent, iter, name,
/// start and end (ns, steady clock).

bool write_spans(const RunState& st, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "segment\trank\tid\tparent\titer\tname\tstart_ns\tend_ns\n");
  for (const auto& seg : st.segments)
    for (std::size_t r = 0; r < seg->ranks.size(); ++r) {
      const auto& spans = seg->ranks[r].spans();
      for (std::size_t i = 0; i < spans.size(); ++i)
        std::fprintf(f, "%s\t%zu\t%zu\t%d\t%u\t%s\t%lld\t%lld\n",
                     seg->name.c_str(), r, i, spans[i].parent, spans[i].iter,
                     spans[i].name, static_cast<long long>(spans[i].start_ns),
                     static_cast<long long>(spans[i].end_ns));
    }
  return std::fclose(f) == 0;
}

void print_header(const RunState& st) {
  std::printf("# nemobench workload=%s seed=%llu seconds=%g trace=%d\n",
              st.args.workload->name,
              static_cast<unsigned long long>(st.args.seed), st.args.seconds,
              st.args.trace ? 1 : 0);
  std::printf("# host nproc=%d l2_bytes=%ld l3_bytes=%ld\n",
              nemo::shm::available_cores(), sysconf(_SC_LEVEL2_CACHE_SIZE),
              sysconf(_SC_LEVEL3_CACHE_SIZE));
}

void print_paths(const PingpongOut& pp) {
  for (int k = 0; k < kSizeClasses; ++k) {
    std::printf("# paths %s:", class_name(static_cast<SizeClass>(k)));
    for (const auto& [n, label] :
         pp.cls[static_cast<std::size_t>(k)].path_of_size)
      std::printf(" %zu=%s", n, label.c_str());
    std::printf("\n");
  }
}

/// Blocks per run: one per second of run time. Each block builds fresh
/// worlds and the end-to-end figures are medians over blocks, so host
/// state that shifts over seconds (vCPU placement, neighbours' memory
/// traffic, arena page backing) is sampled many times inside one run.
int block_count(double seconds) {
  return std::clamp(static_cast<int>(seconds + 0.5), 3, 60);
}

/// NAS rounds per run: IS and FT take seconds, not milliseconds, so they
/// get a fixed share of the run instead of a slot in every block.
int nas_rounds(double seconds) {
  return std::max(2, static_cast<int>(seconds * 0.4 / 1.6 + 0.5));
}

int run(RunState& st) {
  print_header(st);
  {
    // Also absorbs one-time host probes before any bring-up is timed.
    core::Config cfg = world_config(st, kCollRanks);
    run_world(cfg, [&](core::Comm& c) {
      if (c.rank() != 0) return;
      const auto& t = c.world().tuning();
      std::printf("# tune fingerprint=%s source=%s simd=%s\n",
                  t.fingerprint.c_str(), t.source.c_str(),
                  simd::kernel_name(c.engine().simd_kernel()));
    });
  }
  const int nblocks = block_count(st.args.seconds);
  const int nrounds = nas_rounds(st.args.seconds);
  // About 55% of the run is timed pingpong and coll traffic, 40% NAS.
  const double per_block = st.args.seconds * 0.55 / nblocks;
  Blocks b;
  SeededOrder nas_order(st.args.seed, "nas", kNasRound.size());
  int rounds_done = 0;
  for (st.block = 0; st.block < nblocks; ++st.block) {
    phase_setup(st);
    phase_pingpong(st, per_block * 0.55,
                   *b.pp.emplace_back(std::make_unique<PingpongOut>()));
    phase_coll(st, per_block * 0.45,
               *b.co.emplace_back(std::make_unique<CollOut>()));
    // Spread the NAS rounds evenly between the blocks.
    for (; rounds_done < (st.block + 1) * nrounds / nblocks; ++rounds_done)
      phase_nas(st, nas_order.next_round(), b.nas);
  }
  print_paths(*b.pp[0]);

  // A peer-death verdict or timeout abort anywhere fails the run.
  st.checks.record(st.all.f[kPeerDeaths] + st.all.f[kTimeoutAborts] == 0,
                   "resil counters are zero");
  Report rep;
  if (st.args.trace) {
    report_per_layer(st, b, rep);
    std::string path =
        st.args.out_dir + "/spans-" + st.args.workload->name + ".tsv";
    if (!write_spans(st, path))
      std::fprintf(stderr, "nemobench: cannot write %s\n", path.c_str());
  } else {
    report_end_to_end(st, b, rep);
  }
  std::fflush(stdout);
  rep.print(st.checks);
  return st.checks.failed.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunState st;
  st.args = parse_args(argc, argv);
  require_clean_env();
  const int cores = nemo::shm::available_cores();
  if (cores < kCollRanks) {
    std::fprintf(stderr,
                 "nemobench: %d ranks need %d cores, this host allows %d\n",
                 kCollRanks, kCollRanks, cores);
    return 2;
  }
  try {
    return run(st);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nemobench: %s\n", e.what());
    return 2;
  }
}
