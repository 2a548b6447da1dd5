// One-hop line-cell reductions and the all-poll flat barrier.
//
//  - Bit identity: {sum, prod, min, max} x {f64, f32, i64, i32} x every
//    count whose operand fits one line cell's 56 B payload, plus the first
//    count above it (which must keep the old path), for allreduce and every
//    reduce root, in place and not, under the resolved and the scalar fold
//    kernel — memcmp'd against the p2p oracle.
//  - Parity stress: back-to-back small reductions interleaved with
//    auto-mode alltoallv count probes (the same cell sequence stream), with
//    one seeded random straggler per round.
//  - All-poll barrier: nobody leaves round i before every rank arrived.
//
// Every test runs in both world modes; results travel through a MAP_SHARED
// mapping so forked ranks report to the parent's gtest.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "coll/coll.hpp"
#include "coll/coll_arena.hpp"
#include "common/checksum.hpp"
#include "core/comm.hpp"

namespace nemo::core {
namespace {

using coll::kLinePayload;

/// Anonymous MAP_SHARED words that threads and forked ranks both see.
class SharedMap {
 public:
  explicit SharedMap(std::size_t bytes) : bytes_(bytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    base_ = p == MAP_FAILED ? nullptr : static_cast<std::byte*>(p);
  }
  ~SharedMap() {
    if (base_ != nullptr) ::munmap(base_, bytes_);
  }
  SharedMap(const SharedMap&) = delete;
  SharedMap& operator=(const SharedMap&) = delete;

  [[nodiscard]] bool ok() const { return base_ != nullptr; }
  [[nodiscard]] std::byte* data() const { return base_; }
  [[nodiscard]] std::uint64_t& word(std::size_t i) const {
    return reinterpret_cast<std::uint64_t*>(base_)[i];
  }
  /// Count one failure and remember the first failing case id.
  void fail(std::size_t count_word, std::uint64_t id) const {
    std::atomic_ref<std::uint64_t>(word(count_word)).fetch_add(1);
    std::uint64_t none = 0;
    std::atomic_ref<std::uint64_t>(word(count_word + 1))
        .compare_exchange_strong(none, id + 1);
  }

 private:
  std::size_t bytes_;
  std::byte* base_ = nullptr;
};

struct ModeParam {
  int nranks;
  LaunchMode mode;
};

std::string param_name(const ::testing::TestParamInfo<ModeParam>& info) {
  return std::to_string(info.param.nranks) + "ranks_" +
         (info.param.mode == LaunchMode::kThreads ? "threads" : "procs");
}

void PrintTo(const ModeParam& p, std::ostream* os) {
  *os << p.nranks << " ranks, "
      << (p.mode == LaunchMode::kThreads ? "threads" : "procs");
}

/// Busy-wait a few microseconds: a straggler that keeps its core.
void straggle(std::uint64_t us) {
  auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// ---------------------------------------------------------------------------
// Bit identity against the p2p oracle
// ---------------------------------------------------------------------------

constexpr std::size_t kTypeBytes[] = {8, 4, 8, 4};

struct LineCase {
  int type;  ///< 0 f64, 1 f32, 2 i64, 3 i32.
  Comm::ReduceOp op;
  std::size_t n;
  int root;             ///< -1 = allreduce.
  std::size_t off = 0;  ///< Oracle bytes in the shared map.
};

std::string describe(const LineCase& c, bool in_place) {
  static const char* kTypes[] = {"f64", "f32", "i64", "i32"};
  static const char* kOps[] = {"sum", "prod", "min", "max"};
  return std::string(kTypes[c.type]) + " " + kOps[static_cast<int>(c.op)] +
         " n=" + std::to_string(c.n) +
         (c.root < 0 ? " allreduce" : " reduce root=" + std::to_string(c.root)) +
         (in_place ? " in-place" : "");
}

/// Operands whose float folds are order-sensitive (mixed exponents) and
/// whose integer folds cannot overflow over 8 ranks.
template <typename T>
T operand(Comm::ReduceOp op, int rank, std::size_t i) {
  std::uint64_t h =
      (i + 3) * 2654435761u + static_cast<std::uint64_t>(rank) * 40503u;
  if constexpr (std::is_floating_point_v<T>) {
    if (op == Comm::ReduceOp::kProd)
      return static_cast<T>(1.0 + static_cast<double>(h % 997) * 1e-4);
    double mant = static_cast<double>(h % 1000003) / 1000003.0 - 0.5;
    return static_cast<T>(std::ldexp(mant, static_cast<int>(h % 48) - 24));
  } else {
    if (op == Comm::ReduceOp::kProd)
      return static_cast<T>(h % 5 == 0 ? -1 : 1 + static_cast<int>(h % 3));
    return static_cast<T>(static_cast<std::int64_t>(h % 200001) - 100000);
  }
}

/// Every count up to the line payload plus the first one above it, for
/// allreduce and every reduce root.
std::vector<LineCase> line_cases(int p) {
  const Comm::ReduceOp ops[] = {Comm::ReduceOp::kSum, Comm::ReduceOp::kProd,
                                Comm::ReduceOp::kMin, Comm::ReduceOp::kMax};
  std::vector<LineCase> v;
  std::size_t off = 0;
  for (int type = 0; type < 4; ++type)
    for (Comm::ReduceOp op : ops)
      for (std::size_t n = 1; n <= kLinePayload / kTypeBytes[type] + 1; ++n)
        for (int root = -1; root < p; ++root) {
          v.push_back({type, op, n, root, off});
          off += round_up(n * kTypeBytes[type], kCacheLine);
        }
  return v;
}

enum class Pass { kOracle, kLine, kLineScalar };

// Shared words: [0..1] mismatches, [2..3] wrong path taken, [4..5] a
// non-root's `out` was written, [6] scalar kernel not engaged. Oracle
// bytes follow the first line.
constexpr std::size_t kMismatch = 0, kWrongPath = 2, kStrayWrite = 4,
                      kNotScalar = 6;

class CollLineOracle : public ::testing::TestWithParam<ModeParam> {
 protected:
  void run_pass(Pass pass, const std::vector<LineCase>& cs,
                const SharedMap& sm) {
    std::optional<ScopedEnv> scalar;
    if (pass == Pass::kLineScalar) scalar.emplace("NEMO_SIMD", "scalar");
    const coll::Mode mode =
        pass == Pass::kOracle ? coll::Mode::kP2p : coll::Mode::kAuto;
    coll::ScopedForcedMode forced(mode);
    Config cfg;
    cfg.nranks = GetParam().nranks;
    cfg.mode = GetParam().mode;
    cfg.coll = mode;
    const bool check = pass != Pass::kOracle;
    std::byte* oracle = sm.data() + kCacheLine;
    bool ok = run(cfg, [&](Comm& comm) {
      const int me = comm.rank();
      const tune::Counters& c = comm.engine().counters();
      if (pass == Pass::kLineScalar &&
          comm.engine().simd_kernel() != simd::Kernel::kScalar)
        sm.fail(kNotScalar, 0);
      // One line of operand plus a guard line the call must never touch.
      alignas(kCacheLine) std::byte in[2 * kCacheLine];
      alignas(kCacheLine) std::byte out[2 * kCacheLine];
      for (std::size_t i = 0; i < cs.size(); ++i) {
        const LineCase& lc = cs[i];
        const std::size_t bytes = lc.n * kTypeBytes[lc.type];
        for (bool in_place : {false, true}) {
          if (in_place && !check) continue;  // One oracle per case.
          const std::uint64_t id = 2 * i + (in_place ? 1 : 0);
          std::byte* src = in_place ? out : in;
          std::memset(out, 0xA5, sizeof out);
          const std::uint64_t line0 = c.coll_line_ops;
          auto go = [&](auto* typed) {
            using T = std::remove_pointer_t<decltype(typed)>;
            for (std::size_t e = 0; e < lc.n; ++e)
              typed[e] = operand<T>(lc.op, me, e);
            T* o = reinterpret_cast<T*>(out);
            if constexpr (std::is_same_v<T, double>) {
              if (lc.root < 0) comm.allreduce_f64(typed, o, lc.n, lc.op);
              else comm.reduce_f64(typed, o, lc.n, lc.op, lc.root);
            } else if constexpr (std::is_same_v<T, float>) {
              if (lc.root < 0) comm.allreduce_f32(typed, o, lc.n, lc.op);
              else comm.reduce_f32(typed, o, lc.n, lc.op, lc.root);
            } else if constexpr (std::is_same_v<T, std::int64_t>) {
              if (lc.root < 0) comm.allreduce_i64(typed, o, lc.n, lc.op);
              else comm.reduce_i64(typed, o, lc.n, lc.op, lc.root);
            } else {
              if (lc.root < 0) comm.allreduce_i32(typed, o, lc.n, lc.op);
              else comm.reduce_i32(typed, o, lc.n, lc.op, lc.root);
            }
          };
          switch (lc.type) {
            case 0: go(reinterpret_cast<double*>(src)); break;
            case 1: go(reinterpret_cast<float*>(src)); break;
            case 2: go(reinterpret_cast<std::int64_t*>(src)); break;
            default: go(reinterpret_cast<std::int32_t*>(src)); break;
          }
          if (!check) {
            if (me == (lc.root < 0 ? 0 : lc.root))
              std::memcpy(oracle + lc.off, out, bytes);
            continue;
          }
          const bool line = bytes <= kLinePayload;
          if (c.coll_line_ops - line0 != (line ? 1u : 0u))
            sm.fail(kWrongPath, id);
          for (std::size_t b = bytes; b < sizeof out; ++b)
            if (out[b] != std::byte{0xA5}) {
              sm.fail(kStrayWrite, id);
              break;
            }
          if (lc.root >= 0 && lc.root != me) {
            // Only the root's `out` matters; the line path must not write
            // anyone else's.
            if (!in_place && out[0] != std::byte{0xA5})
              sm.fail(kStrayWrite, id);
            continue;
          }
          if (std::memcmp(oracle + lc.off, out, bytes) != 0)
            sm.fail(kMismatch, id);
        }
      }
    });
    ASSERT_TRUE(ok) << "a rank failed in pass " << static_cast<int>(pass);
  }
};

TEST_P(CollLineOracle, BitIdenticalToP2pOracle) {
  const std::vector<LineCase> cs = line_cases(GetParam().nranks);
  std::size_t total = kCacheLine;
  for (const LineCase& c : cs)
    total += round_up(c.n * kTypeBytes[c.type], kCacheLine);
  SharedMap sm(total);
  ASSERT_TRUE(sm.ok());
  auto first = [&](std::size_t w) {
    std::uint64_t id = sm.word(w + 1);
    return id == 0 ? std::string("-")
                   : describe(cs[(id - 1) / 2], (id - 1) % 2 == 1);
  };
  run_pass(Pass::kOracle, cs, sm);
  run_pass(Pass::kLine, cs, sm);
  EXPECT_EQ(sm.word(kMismatch), 0u) << "first mismatch: " << first(kMismatch);
  EXPECT_EQ(sm.word(kWrongPath), 0u) << "first: " << first(kWrongPath);
  EXPECT_EQ(sm.word(kStrayWrite), 0u) << "first: " << first(kStrayWrite);
  run_pass(Pass::kLineScalar, cs, sm);
  EXPECT_EQ(sm.word(kMismatch), 0u)
      << "scalar kernel, first mismatch: " << first(kMismatch);
  EXPECT_EQ(sm.word(kNotScalar), 0u) << "NEMO_SIMD=scalar not engaged";
}

INSTANTIATE_TEST_SUITE_P(
    WorldsAndModes, CollLineOracle,
    ::testing::Values(ModeParam{2, LaunchMode::kThreads},
                      ModeParam{3, LaunchMode::kThreads},
                      ModeParam{4, LaunchMode::kThreads},
                      ModeParam{8, LaunchMode::kThreads},
                      ModeParam{2, LaunchMode::kProcesses},
                      ModeParam{3, LaunchMode::kProcesses},
                      ModeParam{4, LaunchMode::kProcesses},
                      ModeParam{8, LaunchMode::kProcesses}),
    param_name);

// ---------------------------------------------------------------------------
// Parity stress: the line cells are double-buffered by sequence parity and
// shared with alltoallv's count probe. A writer may run one instance ahead
// of the slowest reader; a stale or overwritten cell shows up as a wrong
// sum or a hang.
// ---------------------------------------------------------------------------

class CollLineStress : public ::testing::TestWithParam<ModeParam> {};

TEST_P(CollLineStress, ParityWithAlltoallvProbesAndStraggler) {
  coll::ScopedForcedMode forced(coll::Mode::kAuto);
  constexpr int kIters = 1000;
  constexpr std::uint64_t kSeed = 0x11AE5EEDu;
  Config cfg;
  cfg.nranks = GetParam().nranks;
  cfg.mode = GetParam().mode;
  cfg.coll = coll::Mode::kAuto;
  // Formula crossover: the tiny alltoallv rows must stay below it.
  cfg.tuning = tune::formula_defaults(detect_host());
  SharedMap sm(kCacheLine);
  ASSERT_TRUE(sm.ok());
  // Words: [0..1] wrong results (first iteration), [2..3] wrong path.
  bool ok = run(cfg, [&](Comm& comm) {
    const int n = comm.size(), me = comm.rank();
    const auto nsz = static_cast<std::size_t>(n);
    const tune::Counters& c = comm.engine().counters();
    std::mt19937_64 rng(kSeed);  // Same stream on every rank.
    std::uint64_t lines = 0, probes = 0;
    const std::uint64_t line0 = c.coll_line_ops, p2p0 = c.coll_p2p_ops;
    for (int it = 0; it < kIters; ++it) {
      const int straggler = static_cast<int>(rng() % nsz);
      const std::uint64_t delay = rng() % 40;
      if (me == straggler) straggle(delay);
      // Allreduce of 1..7 i64s: exact sums, no rounding to hide a stale cell.
      const std::size_t k = 1 + static_cast<std::size_t>(it) % 7;
      std::int64_t in[7], out[7];
      for (std::size_t e = 0; e < k; ++e)
        in[e] = me * 1000 + it + static_cast<std::int64_t>(e);
      comm.allreduce_i64(in, out, k, Comm::ReduceOp::kSum);
      ++lines;
      for (std::size_t e = 0; e < k; ++e)
        if (out[e] != n * (it + static_cast<std::int64_t>(e)) +
                          1000 * n * (n - 1) / 2) {
          sm.fail(0, static_cast<std::uint64_t>(it));
          break;
        }
      if (it % 5 == 0) {
        // A reduce whose non-roots read every cell but fold nothing.
        const int root = it % n;
        std::int32_t v = me + it, r = -1;
        comm.reduce_i32(&v, &r, 1, Comm::ReduceOp::kMax, root);
        ++lines;
        if (me == root && r != n - 1 + it)
          sm.fail(0, static_cast<std::uint64_t>(it));
      }
      if (it % 2 == 0) {
        // Tiny rows: the count probe runs, then the op goes pt2pt.
        const std::size_t row = 8 * (1 + static_cast<std::size_t>(it) % 3);
        std::vector<std::size_t> cnt(nsz, row), displ(nsz);
        std::iota(displ.begin(), displ.end(), std::size_t{0});
        for (std::size_t& d : displ) d *= row;
        std::vector<std::byte> send(row * nsz), recv(row * nsz);
        for (int d = 0; d < n; ++d)
          pattern_fill(std::span<std::byte>(
                           send.data() + static_cast<std::size_t>(d) * row,
                           row),
                       static_cast<std::uint64_t>(me * 131 + d + it));
        comm.alltoallv(send.data(), cnt.data(), displ.data(), recv.data(),
                       cnt.data(), displ.data());
        ++probes;
        for (int s = 0; s < n; ++s)
          if (pattern_check(std::span<const std::byte>(
                                recv.data() + static_cast<std::size_t>(s) * row,
                                row),
                            static_cast<std::uint64_t>(s * 131 + me + it)) !=
              kPatternOk) {
            sm.fail(0, static_cast<std::uint64_t>(it));
            break;
          }
      }
    }
    if (c.coll_line_ops - line0 != lines || c.coll_p2p_ops - p2p0 != probes)
      sm.fail(2, 0);
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(sm.word(0), 0u) << "first bad iteration: "
                            << static_cast<std::int64_t>(sm.word(1)) - 1;
  EXPECT_EQ(sm.word(2), 0u) << "reductions or probes took the wrong path";
}

INSTANTIATE_TEST_SUITE_P(Modes, CollLineStress,
                         ::testing::Values(ModeParam{4, LaunchMode::kThreads},
                                           ModeParam{4, LaunchMode::kProcesses}),
                         param_name);

// ---------------------------------------------------------------------------
// All-poll flat barrier: every rank waits for every arrival itself, with no
// coordinator. The phase counter is the strongest observable property —
// nobody leaves round i before everyone incremented for it.
// ---------------------------------------------------------------------------

class FlatBarrierAllPoll : public ::testing::TestWithParam<ModeParam> {};

TEST_P(FlatBarrierAllPoll, NoRankLeavesEarly) {
  coll::ScopedForcedMode forced(coll::Mode::kShm);
  ScopedEnv sched("NEMO_BARRIER_TREE", "off");
  constexpr int kRounds = 200;
  Config cfg;
  cfg.nranks = GetParam().nranks;
  cfg.mode = GetParam().mode;
  cfg.coll = coll::Mode::kShm;
  tune::TuningTable t = tune::formula_defaults(detect_host());
  t.barrier_tree_ranks = UINT32_MAX;
  cfg.tuning = t;
  SharedMap sm(kCacheLine);
  ASSERT_TRUE(sm.ok());
  // Words: [0..1] early exits (first round), [2..3] wrong schedule, [4]
  // the phase counter.
  bool ok = run(cfg, [&](Comm& comm) {
    const int n = comm.size(), me = comm.rank();
    std::atomic_ref<std::uint64_t> ctr(sm.word(4));
    std::mt19937_64 rng(0xBA44u + static_cast<unsigned>(n));
    for (int i = 0; i < kRounds; ++i) {
      const int straggler = static_cast<int>(rng() % static_cast<unsigned>(n));
      const std::uint64_t delay = rng() % 50;
      if (me == straggler) straggle(delay);
      ctr.fetch_add(1, std::memory_order_acq_rel);
      comm.barrier();
      if (ctr.load(std::memory_order_acquire) !=
          static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(i + 1))
        sm.fail(0, static_cast<std::uint64_t>(i));
      comm.barrier();
    }
    const tune::Counters& c = comm.engine().counters();
    if (c.coll_barrier_flat != 2u * kRounds || c.coll_barrier_tree != 0)
      sm.fail(2, 0);
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(sm.word(0), 0u) << "first early exit in round "
                            << static_cast<std::int64_t>(sm.word(1)) - 1;
  EXPECT_EQ(sm.word(2), 0u) << "the flat schedule did not run";
}

INSTANTIATE_TEST_SUITE_P(
    WorldsAndModes, FlatBarrierAllPoll,
    ::testing::Values(ModeParam{2, LaunchMode::kThreads},
                      ModeParam{3, LaunchMode::kThreads},
                      ModeParam{4, LaunchMode::kThreads},
                      ModeParam{5, LaunchMode::kThreads},
                      ModeParam{6, LaunchMode::kThreads},
                      ModeParam{7, LaunchMode::kThreads},
                      ModeParam{2, LaunchMode::kProcesses},
                      ModeParam{3, LaunchMode::kProcesses},
                      ModeParam{4, LaunchMode::kProcesses},
                      ModeParam{5, LaunchMode::kProcesses},
                      ModeParam{6, LaunchMode::kProcesses},
                      ModeParam{7, LaunchMode::kProcesses}),
    param_name);

}  // namespace
}  // namespace nemo::core
