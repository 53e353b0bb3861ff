#include "gmf/demand.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <unordered_map>

namespace gmfnet::gmf {

namespace {
std::uint64_t next_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

DemandCurve::DemandCurve(const FlowLinkParams& p)
    : uid_(next_uid()), tsum_(p.tsum()), csum_(p.csum()), nsum_(p.nsum()) {
  const std::size_t n = p.frame_count();

  // Enumerate every window (phase k1 in [0,n), length k2 in [1,n]) and
  // dedupe equal spans as they are produced, keeping the per-span maxima.
  // Real traces repeat separations heavily (a constant-rate MPEG cycle has
  // only n distinct spans out of n^2 windows), so deduping first shrinks the
  // sort from O(n^2 log n) to O(u log u) over the u unique spans.
  struct Best {
    gmfnet::Time::rep cost;
    std::int64_t count;
  };
  std::unordered_map<gmfnet::Time::rep, Best> by_span;
  // Reserve for the common dedupe-heavy shape (constant-rate traces have
  // ~n unique spans); irregular traces grow geometrically from there
  // instead of committing a worst-case n^2 bucket array up front.
  by_span.reserve(2 * n);
  for (std::size_t k1 = 0; k1 < n; ++k1) {
    for (std::size_t k2 = 1; k2 <= n; ++k2) {
      const gmfnet::Time::rep span = p.tsum_window(k1, k2).ps();
      const gmfnet::Time::rep cost = p.csum_window(k1, k2).ps();
      const std::int64_t count = p.nsum_window(k1, k2);
      auto [it, inserted] = by_span.try_emplace(span, Best{cost, count});
      if (!inserted) {
        it->second.cost = std::max(it->second.cost, cost);
        it->second.count = std::max(it->second.count, count);
      }
    }
  }

  steps_.reserve(by_span.size());
  for (const auto& [span, best] : by_span) {
    steps_.push_back(Step{span, best.cost, best.count});
  }
  std::sort(steps_.begin(), steps_.end(),
            [](const Step& a, const Step& b) { return a.span < b.span; });

  // Turn per-span maxima into a staircase: running prefix maxima, dropping
  // steps dominated by a shorter span (keeps queries branch-light and the
  // envelope arrays minimal).
  gmfnet::Time::rep best_cost = 0;
  std::int64_t best_count = 0;
  std::size_t out = 0;
  for (const Step& s : steps_) {
    best_cost = std::max(best_cost, s.max_cost);
    best_count = std::max(best_count, s.max_count);
    if (out > 0 && steps_[out - 1].max_cost == best_cost &&
        steps_[out - 1].max_count == best_count) {
      continue;  // dominated: adds span without raising either maximum
    }
    steps_[out++] = Step{s.span, best_cost, best_count};
  }
  steps_.resize(out);
}

namespace {
/// Index of the last step with span <= t, or -1.
template <typename Steps>
std::ptrdiff_t last_leq(const Steps& steps, gmfnet::Time::rep t) {
  auto it = std::upper_bound(
      steps.begin(), steps.end(), t,
      [](gmfnet::Time::rep v, const auto& s) { return v < s.span; });
  return it - steps.begin() - 1;
}
}  // namespace

gmfnet::Time DemandCurve::mxs(gmfnet::Time t) const {
  if (t < gmfnet::Time::zero()) return gmfnet::Time::zero();
  const std::ptrdiff_t i = last_leq(steps_, t.ps());
  // Span-0 (single-frame) windows qualify at any t >= 0, so i >= 0 here.
  assert(i >= 0);
  return gmfnet::Time(steps_[static_cast<std::size_t>(i)].max_cost);
}

EnvelopeSums DemandCurve::at(gmfnet::Time t) const {
  if (t < gmfnet::Time::zero()) return {};
  assert(tsum_ > gmfnet::Time::zero());
  const auto q = t.floor_div(tsum_);
  const std::ptrdiff_t i = last_leq(steps_, t.mod(tsum_).ps());
  assert(i >= 0);
  const Step& s = steps_[static_cast<std::size_t>(i)];
  return EnvelopeSums{(q * csum_).ps() + s.max_cost, q * nsum_ + s.max_count};
}

gmfnet::Time DemandCurve::mx(gmfnet::Time t) const {
  return gmfnet::Time(at(t).cost);
}

std::int64_t DemandCurve::nxs(gmfnet::Time t) const {
  if (t < gmfnet::Time::zero()) return 0;
  const std::ptrdiff_t i = last_leq(steps_, t.ps());
  assert(i >= 0);
  return steps_[static_cast<std::size_t>(i)].max_count;
}

std::int64_t DemandCurve::nx(gmfnet::Time t) const { return at(t).count; }

bool DemandCurve::same_shape(const DemandCurve& other) const {
  if (uid_ == other.uid_) return true;
  // Step is three int64 fields with no padding, so one memcmp compares the
  // staircases exactly.
  static_assert(sizeof(Step) == 3 * sizeof(std::int64_t));
  return tsum_ == other.tsum_ && csum_ == other.csum_ &&
         nsum_ == other.nsum_ && steps_.size() == other.steps_.size() &&
         std::memcmp(steps_.data(), other.steps_.data(),
                     steps_.size() * sizeof(Step)) == 0;
}

}  // namespace gmfnet::gmf
