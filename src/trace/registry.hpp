// Metrics registry: log-bucketed latency histograms and gauge snapshots
// behind one process-wide `trace::Registry`, with a stable text and JSON
// serialization. The registry is also the single JSON writer for
// tune::Counters — `--telemetry` dumps and the trace exporters share it.
//
// Histograms are multi-writer (every rank records concurrently) so the
// buckets are relaxed atomics; reads are post-run. Callers on hot paths
// cache the `Histogram&` once — `hist()` never invalidates references
// (`reset()` zeroes in place).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "tune/json.hpp"

namespace nemo::tune {
struct Counters;
}  // namespace nemo::tune

namespace nemo::trace {

/// Power-of-two bucketed histogram: bucket b counts values in
/// [2^b, 2^(b+1)-1] (bucket 0 also takes 0). Quantiles interpolate
/// linearly inside the landing bucket, so extraction error is bounded by
/// the bucket width (a factor of two).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::uint64_t v) {
    counts_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_min(v);
    update_max(v);
  }

  [[nodiscard]] std::uint64_t count() const {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const;
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(int b) const {
    return counts_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

  /// q in (0, 1]; 0.5 = p50, 0.99 = p99, 0.999 = p999. Returns 0 when
  /// empty.
  [[nodiscard]] double quantile(double q) const;

  static int bucket_of(std::uint64_t v);
  static std::uint64_t bucket_lo(int b);
  static std::uint64_t bucket_hi(int b);

  [[nodiscard]] tune::Json to_json() const;
  void reset();

 private:
  void update_min(std::uint64_t v);
  void update_max(std::uint64_t v);

  std::atomic<std::uint64_t> counts_[kBuckets]{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

class Registry {
 public:
  /// Find-or-create by name. The returned reference stays valid for the
  /// registry's lifetime (hot paths cache it once).
  Histogram& hist(const std::string& name);
  void set_gauge(const std::string& name, double v);

  /// {"schema":"nemo-registry/1","histograms":{...},"gauges":{...}}
  [[nodiscard]] tune::Json to_json() const;
  /// Aligned human-readable table (nemo-trace stat shares the layout).
  [[nodiscard]] std::string text() const;
  /// Zero every histogram in place and drop gauges; references survive.
  void reset();

  // -------------------------------------------------------------------
  // tune::Counters serialization — the one JSON writer for telemetry.
  // -------------------------------------------------------------------
  static tune::Json counters_json(const tune::Counters& c, int rank);
  /// Name of a Counters::path_hist slot ("rndv-knem", "eager-queue", ...),
  /// the key the telemetry "paths" object and the bench row labels use.
  static const char* path_name(int slot);
  /// {"schema":"nemo-telemetry/1","label":...,"ranks":[...],"total":{...}}
  static tune::Json telemetry_json(const std::string& label,
                                   const tune::Counters* per_rank,
                                   int nranks);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Histogram>> hists_;
  std::map<std::string, double> gauges_;
};

/// The process-wide registry instance.
Registry& registry();

}  // namespace nemo::trace
