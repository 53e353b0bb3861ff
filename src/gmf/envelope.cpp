#include "gmf/envelope.hpp"

namespace gmfnet::gmf {

bool LevelEnvelope::ensure(const EnvelopeSpec* specs, std::size_t n) {
  // Fingerprint: same curves (by process-unique uid), same shifts, same
  // multiplicities, same order.  Matching means every merged value is
  // already correct.
  if (entries_.size() == n) {
    bool same = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (tails_[i].curve_uid != specs[i].curve->uid() ||
          entries_[i].shift != specs[i].shift.ps() ||
          entries_[i].mult != specs[i].mult) {
        same = false;
        break;
      }
    }
    if (same) return true;
  }

  entries_.clear();
  tails_.clear();
  steps_.clear();
  entries_.reserve(n);
  tails_.reserve(n);
  std::size_t total_steps = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_steps += specs[i].curve->steps().size();
  }
  steps_.reserve(total_steps);

  for (std::size_t i = 0; i < n; ++i) {
    const DemandCurve& c = *specs[i].curve;
    Entry e;
    e.shift = specs[i].shift.ps();
    e.tsum = c.tsum().ps();
    e.mult = specs[i].mult;
    assert(e.mult >= 1);
    e.begin = static_cast<std::uint32_t>(steps_.size());
    steps_.insert(steps_.end(), c.steps().begin(), c.steps().end());
    e.end = static_cast<std::uint32_t>(steps_.size());
    assert(e.end > e.begin && steps_[e.begin].span == 0 &&
           "staircase must start with the span-0 critical-instant step");
    entries_.push_back(e);
    tails_.push_back(EntryTail{c.uid(), c.csum().ps(), c.nsum()});
  }
  ++build_;
  return false;
}

}  // namespace gmfnet::gmf
