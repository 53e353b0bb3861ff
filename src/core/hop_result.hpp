// Shared result/option types for the three per-hop analyses.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace gmfnet::core {

/// Outcome of one per-hop response-time computation for one frame.
struct HopResult {
  /// Upper bound on the hop response time; meaningful only if `converged`.
  gmfnet::Time response = gmfnet::Time::zero();
  bool converged = false;
  /// Fixed point of the busy-period iteration.
  gmfnet::Time busy_period = gmfnet::Time::zero();
  /// Q: number of frame-k instances examined in the busy period.
  std::int64_t instances = 0;
  /// Total fixed-point iterations spent (busy period + all w(q) chains);
  /// reported by the runtime-scaling bench (E9).
  std::int64_t iterations = 0;
};

/// Options common to the per-hop analyses.
struct HopOptions {
  /// Busy periods / queueing times beyond this are treated as divergence
  /// (the hop is reported non-converged).  10 s is far beyond any deadline
  /// in the paper's domain (VoIP/video: tens of ms).
  gmfnet::Time horizon = gmfnet::Time::sec(10);

  /// DESIGN.md correction #4/#5: charge the stride-scheduler service period
  /// CIRC for the analysed flow's own Ethernet frames (sound default).
  /// `false` reproduces the paper's literal recurrences, which omit the
  /// self CIRC terms; kept for the ablation bench (E10).
  bool charge_self_circ = true;

  /// Evaluate per-hop demand through the merged gmf::LevelEnvelope fast
  /// path (one cursor-advanced pass per fixed-point iteration) instead of
  /// k binary searches over the individual DemandCurves (the NaiveLevel
  /// source of core/hop_level.hpp).  Bit-identical results either way —
  /// the naive source is kept as the reference for the equivalence suites
  /// and the bench_demand_eval speedup measurement.
  bool use_envelope = true;
};

}  // namespace gmfnet::core
