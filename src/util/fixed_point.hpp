// Generic monotone fixed-point iteration with a divergence guard.
//
// All the response-time recurrences in the paper have the shape
//   x_{v+1} = F(x_v),  F monotone non-decreasing, x_0 <= F(x_0),
// so the iterates climb until they either stabilise (the fixed point, which
// is the quantity the analysis needs) or pass a horizon that proves the
// system is not schedulable at this level (eq (20)/(34) style divergence).
//
// Monotone-iterate contract: because x_0 <= F(x_0) and F is monotone, the
// sequence of arguments passed to `f` within one iterate_fixed_point call
// is non-decreasing (each argument is >= the previous one; the final,
// converged application repeats the same value).  Demand evaluation relies
// on this: gmf::LevelEnvelope threads a forward EvalCursor through `f`, so
// each iteration advances per-interferer staircase positions in O(1)
// amortized instead of binary-searching from scratch.  The cursor detects
// and survives violations (it re-anchors on any backward query, e.g. when
// the next w(q) chain re-seeds lower), so the contract is a performance
// contract, not a correctness precondition.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace gmfnet {

struct FixedPointResult {
  Time value = Time::zero();     ///< the fixed point if `converged`
  bool converged = false;        ///< false: passed `horizon` or hit iteration cap
  std::int64_t iterations = 0;   ///< number of applications of F
};

struct FixedPointOptions {
  /// Iteration aborts (non-converged) once the iterate exceeds this.
  Time horizon = Time::max();
  /// Hard cap on iterations; generously sized, only a safety net.
  std::int64_t max_iterations = 1'000'000;
};

/// Iterates `x <- f(x)` from `seed` until `f(x) == x` (converged), the
/// iterate exceeds `opts.horizon`, or `opts.max_iterations` is reached.
///
/// `f` must be monotone in its argument for the result to be meaningful, but
/// the helper itself makes no such assumption beyond running the loop.
template <typename F>
FixedPointResult iterate_fixed_point(Time seed, const F& f,
                                     const FixedPointOptions& opts = {}) {
  FixedPointResult r;
  Time x = seed;
  for (std::int64_t i = 0; i < opts.max_iterations; ++i) {
    if (x > opts.horizon) {
      r.value = x;
      r.converged = false;
      r.iterations = i;
      return r;
    }
    const Time next = f(x);
    ++r.iterations;
    if (next == x) {
      r.value = x;
      r.converged = true;
      return r;
    }
    x = next;
  }
  r.value = x;
  r.converged = false;
  return r;
}

}  // namespace gmfnet
