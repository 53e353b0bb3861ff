// LevelEnvelope: the merged interferer-demand view of one hop analysis.
//
// Within one per-hop analysis (eqs 14-18 / 21-27 / 28-35) the jitter offsets
// extra_j are constants, so the interferer request-bound curves the busy
// and queueing recurrences keep re-evaluating — MX_j(t + extra_j) and
// NX_j(t + extra_j) — form a fixed set of jitter-shifted staircases.  The
// envelope pre-merges them once into flat contiguous arrays (packed
// (span, cumulative max_cost, max_count) steps, one range per entry, plus
// each entry's periodic (TSUM, CSUM, NSUM) tail) so that a fixed-point
// iteration evaluates the whole level's interference in one cache-friendly
// pass instead of k separate binary searches over k scattered vectors.
//
// Entries are interferer *classes*, not interferers: an entry carries a
// multiplicity m, the number of interferers with that exact curve content
// and shift (every VoIP leg of one codec at one hop, every camera of one
// model).  eval adds m * (cycle + step) for it.  The int64 picosecond sum is
// exact, so this is bit-identical to listing the m members one by one —
// and a 64-interferer uplink of two traffic classes costs two entries per
// iteration, not 64.  core/hop_level.hpp forms the classes.
//
// The analysed flow itself is deliberately *not* an entry: its jitter
// changes from frame to frame (Figure 6 lines 8/13/17), and keeping it out
// means those writes never invalidate a built envelope.
//
// The second half of the win is the EvalCursor: iterate_fixed_point produces
// a monotonically non-decreasing sequence of iterates (see
// util/fixed_point.hpp), so instead of a binary search plus two 64-bit
// divisions per entry per query, the cursor remembers each entry's (cycle
// base, step) position from the previous query and advances it forward —
// O(1) amortized, division-free.  A query that jumps backwards (a new w(q)
// chain re-seeding below the previous chain's fixed point) or wraps into a
// new GMF cycle falls back to one division + binary search, so correctness
// never depends on monotonicity.
//
// Results are bit-identical to summing DemandCurve::mx/nx per interferer:
// both paths select the same staircase step and int64 picosecond sums are
// exact and order-independent (tests/test_envelope.cpp pins this, with and
// without multiplicities).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gmf/demand.hpp"
#include "util/time.hpp"

namespace gmfnet::gmf {

/// One interferer class of a hop analysis: the request-bound curve and the
/// constant jitter shift extra_j its members share at this hop, and how
/// many members there are.
struct EnvelopeSpec {
  const DemandCurve* curve = nullptr;
  gmfnet::Time shift;     ///< extra_j: evaluated at MX/NX(t + shift)
  std::int64_t mult = 1;  ///< members (>= 1): the entry counts mult times
};

class LevelEnvelope;

/// Per-interferer forward positions of the monotone fixed-point iteration.
/// Bound to one envelope build; automatically resets when the envelope it is
/// used with was rebuilt.
class EvalCursor {
 public:
  void reset() { bound_build_ = 0; }

 private:
  friend class LevelEnvelope;
  struct Pos {
    gmfnet::Time::rep cycle_start;  ///< current cycle's start, shifted time
    gmfnet::Time::rep cycle_cost;   ///< cycle index * CSUM
    std::int64_t cycle_count;       ///< cycle index * NSUM
    std::uint32_t idx;              ///< current step (global step index)
  };
  std::vector<Pos> pos_;
  const LevelEnvelope* bound_env_ = nullptr;
  std::uint64_t bound_build_ = 0;  ///< 0 = unbound
};

class LevelEnvelope {
 public:
  /// Makes the envelope hold exactly `specs[0..n)`: reuses the current build
  /// when the (curve uid, shift, mult) fingerprint matches (returns true),
  /// otherwise rebuilds the merged arrays (returns false).
  bool ensure(const EnvelopeSpec* specs, std::size_t n);

  /// Total interferer demand at `t`; bit-identical to summing
  /// curve->mx(t+shift) and curve->nx(t+shift) mult times per entry.  `cur`
  /// carries the forward positions between calls; non-monotone queries are
  /// handled (division + binary-search fallback), monotone ones are O(1)
  /// amortized and division-free.  Defined inline below so each call site
  /// specializes the loop (and unused sum halves fall away).
  [[nodiscard]] EnvelopeSums eval(gmfnet::Time t, EvalCursor& cur) const;

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

 private:
  /// Per-entry hot state, touched every iteration: 32 bytes, nothing else.
  struct Entry {
    gmfnet::Time::rep shift;
    gmfnet::Time::rep tsum;
    std::int64_t mult;    ///< class members
    std::uint32_t begin;  ///< step range [begin, end) in steps_
    std::uint32_t end;
  };
  /// Per-entry cold state: needed only on cycle wraps and revalidation.
  struct EntryTail {
    std::uint64_t curve_uid;
    gmfnet::Time::rep csum;  ///< periodic cost tail per whole cycle
    std::int64_t nsum;       ///< periodic count tail per whole cycle
  };

  void bind(EvalCursor& cur) const;

  std::vector<Entry> entries_;
  std::vector<EntryTail> tails_;  ///< parallel to entries_
  /// Flattened steps of all entries, contiguous per entry, packed
  /// (span, cost, count) together so one advance touches one cache line:
  /// spans strictly increasing within each [begin, end), cost/count the
  /// matching prefix maxima.
  std::vector<DemandCurve::Step> steps_;
  std::uint64_t build_ = 0;  ///< bumped on every rebuild (cursor binding)
};

inline void LevelEnvelope::bind(EvalCursor& cur) const {
  if (cur.bound_env_ == this && cur.bound_build_ == build_) return;
  cur.pos_.resize(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    // Fresh state = start of cycle 0 at the entry's span-0 step; a first
    // query inside cycle 0 can then take the fast path directly.
    EvalCursor::Pos& p = cur.pos_[i];
    p.cycle_start = 0;
    p.cycle_cost = 0;
    p.cycle_count = 0;
    p.idx = entries_[i].begin;
  }
  cur.bound_env_ = this;
  cur.bound_build_ = build_;
}

inline EnvelopeSums LevelEnvelope::eval(gmfnet::Time t,
                                        EvalCursor& cur) const {
  bind(cur);
  EnvelopeSums sums;
  const gmfnet::Time::rep tv = t.ps();
  const Entry* entries = entries_.data();
  const DemandCurve::Step* steps = steps_.data();
  EvalCursor::Pos* pos = cur.pos_.data();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries[i];
    const gmfnet::Time::rep shifted = tv + e.shift;
    if (shifted < 0) continue;  // MX/NX are zero for negative windows
    assert(e.tsum > 0);

    EvalCursor::Pos& p = pos[i];
    const gmfnet::Time::rep rem = shifted - p.cycle_start;
    if (rem >= 0 && rem < e.tsum && steps[p.idx].span <= rem) {
      // Monotone fast path, division-free: same GMF cycle and the current
      // step still applies, so the position can only advance forward.  (A
      // query that moved backwards but stayed within the current step's
      // range is equally served — the selected step is the same.)
      while (p.idx + 1 < e.end && steps[p.idx + 1].span <= rem) ++p.idx;
    } else {
      // Cycle wrap or backward jump (fresh w(q) chain): one division pair
      // and one binary search re-anchor the position.
      const EntryTail& tail = tails_[i];
      const gmfnet::Time::rep cycle = shifted / e.tsum;
      const gmfnet::Time::rep in_cycle = shifted % e.tsum;
      p.cycle_start = shifted - in_cycle;
      p.cycle_cost = cycle * tail.csum;
      p.cycle_count = cycle * tail.nsum;
      const auto first = steps_.begin() + e.begin;
      const auto last = steps_.begin() + e.end;
      const auto it = std::upper_bound(
          first, last, in_cycle,
          [](gmfnet::Time::rep v, const DemandCurve::Step& s) {
            return v < s.span;
          });
      p.idx = static_cast<std::uint32_t>(it - steps_.begin() - 1);
    }
    assert(p.idx >= e.begin && p.idx < e.end &&
           steps[p.idx].span <= shifted - p.cycle_start);

    const DemandCurve::Step& s = steps[p.idx];
    sums.cost += e.mult * (p.cycle_cost + s.max_cost);
    sums.count += e.mult * (p.cycle_count + s.max_count);
  }
  return sums;
}

}  // namespace gmfnet::gmf
