// Small shared pieces of the benchmark: clock, percentiles, the metric
// record, and the span recorder of the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; NaN when empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// In-memory spans of the traced replay: name, start, end, parent span and
/// request id.  Written out once the run ends.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root
    std::uint32_t rid;    ///< request (or measurement) id
  };

  /// RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint32_t rid,
          std::int32_t parent = -1)
        : rec_(rec), idx_(rec.open(name, rid, parent)) {}
    ~Scope() { rec_.spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int32_t index() const { return idx_; }

   private:
    SpanRecorder& rec_;
    std::int32_t idx_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_us(std::int32_t idx) const {
    const Span& s = spans_[static_cast<std::size_t>(idx)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }

  /// Self time of every span (its duration minus the time its direct
  /// children cover), summed per layer — the name's prefix up to '.'.
  [[nodiscard]] std::map<std::string, double> self_us_by_layer() const;

  /// Writes the spans as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::int32_t open(const char* name, std::uint32_t rid,
                    std::int32_t parent) {
    spans_.push_back(Span{name, now_ns(), 0, parent, rid});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::vector<Span> spans_;
};

}  // namespace perfbench
