// In-memory span recorder for the traced run. Each rank owns one recorder
// (single-threaded use); spans nest through an open-span stack, carry the
// iteration id of the loop pass that caused them, and are written out only
// after the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< Static string: "<layer>.<call>".
  std::int32_t parent = -1;    ///< Index in the same recorder, -1 = root.
  std::uint32_t iter = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  void set_iter(std::uint32_t iter) { iter_ = iter; }

  std::int32_t open(const char* name) {
    auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), iter_,
                      now_ns(), 0});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t iter_ = 0;
};

/// RAII span; a null recorder (untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), idx_(rec != nullptr ? rec->open(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t idx_;
};

/// Self time of every span: its duration minus its direct children's.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

/// Layer of a span name: the text before the first '.'.
inline std::string span_layer(const char* name) {
  std::string n(name);
  return n.substr(0, n.find('.'));
}

/// Self nanoseconds summed per layer over one recorder.
inline std::map<std::string, std::int64_t> self_by_layer(
    const std::vector<Span>& spans) {
  std::map<std::string, std::int64_t> out;
  std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[span_layer(spans[i].name)] += self[i];
  return out;
}

}  // namespace perfbench
