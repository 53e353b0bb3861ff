// The traced run: replays the requests a workload sent to the daemon
// in-process, timing calls into each layer's public functions as spans —
// rpc (frame encode/decode), engine (snapshot what-if, lean admission,
// batch close, remove), core (context build, cold solve, per-hop
// analyses), gmf (demand curves, level envelopes) and io (scenario parse,
// checkpoint save/restore, engine build) — and reduces them to the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "worlds.hpp"

namespace perfbench {

struct ReplayInput {
  const Workload* wl = nullptr;
  std::string scenario_text;  ///< the .scn the daemon booted from
  /// Probe groups in the order the daemon received them.
  std::vector<std::uint32_t> probe_groups;
  /// Churn index of every admit/remove pair the writer sent, in order.
  std::vector<std::uint32_t> churn_pairs;
};

/// Runs the traced replay and the per-layer measurements, writes every span
/// to `trace_path`, and returns the per-layer metrics it can derive on its
/// own (the STATS-derived ones are the caller's).  `trace.overhead_us` is
/// the traced minus the untraced replay time per request.
[[nodiscard]] Metrics run_traced_replay(const ReplayInput& in,
                                        const std::string& trace_path);

}  // namespace perfbench
