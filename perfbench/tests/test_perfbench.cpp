// Unit tests for the benchmark's own helpers: statistics, seeded plans,
// path labelling and span self time. Run: python3 perfbench/run.py --test
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "paths.hpp"
#include "plan.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_stats() {
  using namespace perfbench;
  CHECK(near(median({3, 1, 2}), 2));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
  CHECK(near(median({7}), 7));
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  CHECK(near(quantile(ten, 0.25), 2.75));
  CHECK(near(quantile(ten, 0.5), 5.5));
  CHECK(near(quantile(ten, 0.75), 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: positions
  // past the ends extrapolate from the end samples.
  CHECK(near(quantile({2, 1}, 0.25), 0.75));
  CHECK(near(quantile({2, 1}, 0.75), 2.25));
  // statistics.quantiles([1, 5, 6, 20, 21], n=100): [98] == 21.94 and
  // [0] == -2.76, both extrapolated.
  CHECK(std::fabs(quantile({1, 5, 6, 20, 21}, 0.99) - 21.94) < 1e-9);
  CHECK(std::fabs(quantile({21, 20, 6, 5, 1}, 0.01) + 2.76) < 1e-9);
  CHECK(near(quantile({1, 5, 6, 20, 21}, 0.5), 6));
  // The percentile rule: at least ten samples beyond the percentile.
  CHECK(percentile_supported(1000, 0.99));
  CHECK(!percentile_supported(999, 0.99));
  CHECK(percentile_supported(100, 0.90));
  CHECK(!percentile_supported(99, 0.90));
  CHECK(percentile_supported(20, 0.5));
  CHECK(!percentile_supported(19, 0.5));
}

std::vector<std::vector<std::size_t>> rounds(std::uint64_t seed,
                                             const char* stream, int n) {
  perfbench::SeededOrder o(seed, stream, 8);
  std::vector<std::vector<std::size_t>> out;
  for (int i = 0; i < n; ++i) out.push_back(o.next_round());
  return out;
}

void test_seeds() {
  using namespace perfbench;
  // Same seed, same sequence; another seed or stream, another sequence.
  CHECK(rounds(5, "small#0", 16) == rounds(5, "small#0", 16));
  CHECK(rounds(5, "small#0", 16) != rounds(6, "small#0", 16));
  CHECK(rounds(5, "small#0", 16) != rounds(5, "small#1", 16));
  // Every round holds each item exactly once, so the mix stays exact.
  for (const auto& r : rounds(9, "coll#0", 32)) {
    std::set<std::size_t> items(r.begin(), r.end());
    CHECK(items.size() == 8 && *items.rbegin() == 7);
  }
  // Successive rounds are reshuffled, not repeated.
  auto rs = rounds(9, "coll#0", 8);
  CHECK(std::set<std::vector<std::size_t>>(rs.begin(), rs.end()).size() > 1);
  CHECK(payload_seed(1, 2, 3, 0) == payload_seed(1, 2, 3, 0));
  CHECK(payload_seed(1, 2, 3, 0) != payload_seed(1, 2, 3, 1));
  CHECK(payload_seed(1, 2, 3, 0) != payload_seed(2, 2, 3, 0));
  // Size classes cover the documented ranges.
  CHECK(class_sizes(SizeClass::kSmall).front() == 8);
  CHECK(class_sizes(SizeClass::kSmall).back() == 1024);
  CHECK(class_sizes(SizeClass::kMedium).front() == 4 * KiB);
  CHECK(class_sizes(SizeClass::kMedium).back() == 128 * KiB);
  CHECK(class_sizes(SizeClass::kLarge).front() == 512 * KiB);
  CHECK(class_sizes(SizeClass::kLarge).back() == 8 * MiB);
}

void test_paths() {
  using namespace perfbench;
  using C = nemo::tune::Counters;
  PathHist before{}, after{};
  before[C::kPathFastbox] = 10;
  after[C::kPathFastbox] = 13;  // 3 fastbox messages
  after[2] = 2;                 // 2 vmsplice_writev -> "vmsplice"
  after[3] = 1;                 // 1 knem
  before[C::kPathEager] = after[C::kPathEager] = 40;  // unchanged
  auto counts = path_counts(before, after);
  CHECK(counts[0] == 3);  // fastbox
  CHECK(counts[1] == 0);  // eager: only deltas count
  CHECK(counts[3] == 2);  // vmsplice
  CHECK(counts[4] == 1);  // knem
  CHECK(path_label_of(counts) == "fastbox+vmsplice+knem");
  CHECK(path_label_of(path_counts(after, after)) == "none");
  PathHist cma{};
  cma[4] = 1;
  CHECK(path_label_of(path_counts(PathHist{}, cma)) == "cma");
  PathHist ring{};
  ring[0] = 5;
  CHECK(path_label_of(path_counts(PathHist{}, ring)) == "default");
}

void test_spans() {
  using namespace perfbench;
  // Root [0, 100] with children [10, 30] and [40, 90]; the second child
  // has a grandchild [50, 60]. Self: root 30, children 20 and 40, leaf 10.
  std::vector<Span> spans = {{"bench.iter", -1, 0, 0, 100},
                             {"core.send", 0, 0, 10, 30},
                             {"core.recv", 0, 0, 40, 90},
                             {"core.progress", 2, 0, 50, 60}};
  auto self = self_times(spans);
  CHECK(self[0] == 30 && self[1] == 20 && self[2] == 40 && self[3] == 10);
  auto by = self_by_layer(spans);
  CHECK(by["bench"] == 30 && by["core"] == 70);

  SpanRecorder rec;
  rec.set_iter(7);
  {
    ScopedSpan outer(&rec, "bench.iter");
    ScopedSpan inner(&rec, "core.send");
  }
  ScopedSpan untraced(nullptr, "core.recv");  // Records nothing.
  CHECK(rec.spans().size() == 2);
  CHECK(rec.spans()[1].parent == 0 && rec.spans()[0].parent == -1);
  CHECK(rec.spans()[0].iter == 7 && rec.spans()[1].iter == 7);
  CHECK(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
}

}  // namespace

int main() {
  test_stats();
  test_seeds();
  test_paths();
  test_spans();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench unit tests: ok\n");
  return 0;
}
