// Request-bound functions MXS/MX (eqs 10-11) and NXS/NX (eqs 12-13).
//
// MXS(τ_j, link, t) bounds the link time flow τ_j can demand within any
// window of length t; NXS bounds the number of Ethernet frames.  Both are
// maxima over all windows of k2 consecutive frames starting at any phase k1
// whose arrival span TSUM(k1,k2) fits in t.  MX/NX extend them to arbitrary
// t by peeling off whole GMF cycles.
//
// Window semantics (DESIGN.md correction #7): windows are *right-closed* —
// an arrival exactly at the window edge counts, so MXS(0) is the largest
// single frame (the critical-instant release), and eq (10)'s min(t, ...)
// cap is dropped.  As printed, the capped open-window reading makes
// w = q*CSUM a fixed point of eq (17), which would erase all interference;
// the right-closed uncapped bound is the standard request-bound function of
// fixed-point response-time analysis and is what eqs (15)/(17) need to be
// meaningful.
//
// Because the fixed-point iterations evaluate these thousands of times, the
// max-over-windows is precomputed as a "staircase": all (span, cost) pairs
// sorted by span with prefix maxima, making each query a binary search.
#pragma once

#include <cstdint>
#include <vector>

#include "gmf/link_params.hpp"
#include "util/time.hpp"

namespace gmfnet::gmf {

/// Demand at one instant: MX (link time, picoseconds) and NX (Ethernet
/// frames), of one curve or summed over a hop's interferers.
struct EnvelopeSums {
  gmfnet::Time::rep cost = 0;  ///< MX
  std::int64_t count = 0;      ///< NX
};

/// Precomputed request-bound curve of one flow on one link.
class DemandCurve {
 public:
  /// One step of the staircase: the prefix maxima of cost/count over all
  /// windows whose span is <= `span`.
  struct Step {
    gmfnet::Time::rep span;       ///< TSUM(k1,k2)
    gmfnet::Time::rep max_cost;   ///< prefix max of CSUM(k1,k2)
    std::int64_t max_count;       ///< prefix max of NSUM(k1,k2)
  };

  explicit DemandCurve(const FlowLinkParams& params);

  /// MXS (eq 10, right-closed): max transmission demand of a window of
  /// length t >= 0; MXS(0) is the largest single frame.  Returns 0 for
  /// t < 0.
  [[nodiscard]] gmfnet::Time mxs(gmfnet::Time t) const;

  /// MX (eq 11): upper bound on link time demanded in any right-closed
  /// window of length t >= 0 (0 for t < 0).
  [[nodiscard]] gmfnet::Time mx(gmfnet::Time t) const;

  /// MX(t) and NX(t) together, from one staircase search: both maxima sit
  /// on the same step.
  [[nodiscard]] EnvelopeSums at(gmfnet::Time t) const;

  /// NXS (eq 12): frame-count analogue of MXS.
  [[nodiscard]] std::int64_t nxs(gmfnet::Time t) const;

  /// NX (eq 13): upper bound on Ethernet frames received in any
  /// right-closed window of length t >= 0 (0 for t < 0).
  [[nodiscard]] std::int64_t nx(gmfnet::Time t) const;

  [[nodiscard]] gmfnet::Time tsum() const { return tsum_; }
  [[nodiscard]] gmfnet::Time csum() const { return csum_; }
  [[nodiscard]] std::int64_t nsum() const { return nsum_; }

  /// The intra-cycle staircase: spans strictly increasing, cost/count
  /// non-decreasing, first span always 0 (the critical-instant release).
  /// LevelEnvelope flattens these into its merged per-hop view.
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }

  /// Content equality: the same periodic tail (TSUM, CSUM, NSUM) and the
  /// same staircase, step for step — so MX/NX agree at every t.  The
  /// hop-level link tables class interferers by this (never by a hash
  /// alone).
  [[nodiscard]] bool same_shape(const DemandCurve& other) const;

  /// Process-unique id, assigned at construction.  Envelope caches key on
  /// this instead of the object address, so a curve freed and another
  /// allocated at the same address can never be mistaken for it (ABA).
  [[nodiscard]] std::uint64_t uid() const { return uid_; }

 private:
  std::uint64_t uid_;
  gmfnet::Time tsum_;
  gmfnet::Time csum_;
  std::int64_t nsum_ = 0;
  std::vector<Step> steps_;  ///< sorted by span, strictly increasing
};

}  // namespace gmfnet::gmf
