// Seeded generation of the benchmark's three workloads: the world the
// daemon boots from (a workload::Scenario, handed over only as a .scn file)
// and the request script the load generator replays against it.
//
//   campus_poll  64 star cells, ~1k residents on rotating host pairs (VoIP
//                calls and camera feeds); single-candidate verdict-only
//                WHAT_IF probes into many tiny locality domains.
//   hub_poll     4 hub cells of 64 flows at ~80% uplink utilisation plus 4
//                quiet side cells; WHAT_IF_BATCH of 4 candidates, one per
//                hub domain, each solving a 65-flow component.
//   tree_churn   a depth-4 switch tree with deadline-monotonic residents
//                kept inside the root's two subtrees; the writer admits and
//                removes cross-root "bridge" flows (merge, then split) while
//                a reader probes inside the subtrees.
//
// campus_poll and hub_poll build on bench/campus_topology.hpp (make_campus,
// resident_flow, av_hub_flow); the seed relabels each cell's hosts, so every
// seed gives the same analysis cost.
//
// Every workload has a writer connection that sends ADMIT_BATCH / REMOVE
// pairs of its churn flows, one frame at a time, so at most one churn flow
// is resident at any time: the daemon's published world is always the boot
// world W0 or W0 plus one churn flow.  (A remove pipelined behind its admit
// joined the admit's commit group in some runs and not in others, so the
// merged world was published or not and tree_churn's probe latency split
// between two levels.)  campus_poll paces its writer (one pair every 10 ms, inside
// the polled cells) so the probed world changes under the readers without
// the writer competing for the reactor; hub_poll (in side cells away from
// the hubs) and tree_churn (through the probed subtrees) run it
// closed-loop, so their admit metrics measure the commit path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gmf/flow.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  gmfnet::workload::Scenario world;          ///< boot world W0
  std::vector<gmfnet::gmf::Flow> candidates;  ///< probe pool
  std::size_t batch = 1;  ///< candidates per WHAT_IF_BATCH frame
  /// Writer pool: ADMIT_BATCH{churn[j]} then REMOVE{W0 size}, in turn.
  std::vector<gmfnet::gmf::Flow> churn;
  int probe_conns = 2;   ///< reader connections
  int probe_depth = 4;   ///< WHAT_IF frames in flight per reader connection
  int pace_us = 0;  ///< writer: one pair per pace_us (0 = closed loop)
  /// Generator threads that keep a CPU busy rather than wait on the daemon;
  /// the daemon's reader pool gets what they and the reactor leave.
  int busy_gen = 1;
};

/// Builds workload `name` from `seed`; the same seed gives the same world
/// and pools.  Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The per-connection request script: the pool indices connection `conn`
/// sends, in order (cycled when the run outlasts it).  For batched
/// workloads an index names a group of `batch` consecutive candidates.
[[nodiscard]] std::vector<std::uint32_t> request_script(
    std::size_t pool_groups, std::uint64_t seed, int conn);

}  // namespace perfbench
