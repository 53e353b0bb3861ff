// Switch-egress analysis, eqs (28)-(35): from a frame's Ethernet frames
// sitting in the prioritized output queue of switch N towards
// succ(τ_i, N), until all of them have been received at the successor.
//
// Two delay mechanisms combine:
//   * static-priority link scheduling: higher-or-equal-priority flows (hep,
//     eq 2) interfere with their transmission time (MX), and one already-
//     transmitting lower-priority Ethernet frame blocks for up to MFT
//     (non-preemptive per-frame transmission);
//   * the stride-scheduled egress task moves one Ethernet frame per
//     CIRC(N)-spaced service — the link can sit idle with a queued frame
//     until the task runs — contributing NX * CIRC per interfering frame.
#pragma once

#include <cstddef>

#include "core/context.hpp"
#include "core/hop_level.hpp"
#include "core/hop_result.hpp"

namespace gmfnet::core {

/// Precondition, eqs (34)/(35): the level-i utilization (τ_i plus hep flows)
/// of the link must be < 1 for the level-i busy period to terminate.
[[nodiscard]] bool egress_feasible(const AnalysisContext& ctx, FlowId i,
                                   NodeId n);

/// Flow i's egress site (core/hop_level.hpp) on `link`, the link it
/// leaves a switch by: its parameters there, CIRC of the switch, the
/// link's propagation delay and eq (35); the level source is left unbound.
[[nodiscard]] HopSite egress_site(const AnalysisContext& ctx, FlowId i,
                                  LinkRef link);

/// The egress recurrence's terms for frame `frame` at `site`.
[[nodiscard]] HopTerms egress_terms(const HopSite& site, std::size_t frame,
                                    const HopOptions& opts);

/// R_i^k,link(N, succ(τ_i, N)): response time of frame k of flow i from
/// enqueueing in the priority queue of N to full reception at the successor
/// node.  Includes the link propagation delay (eq 33).  N must be an
/// intermediate switch of flow i's route.  One frame: resolves the site,
/// then runs its terms.
[[nodiscard]] HopResult analyze_egress(const AnalysisContext& ctx,
                                       const JitterMap& jitters, FlowId i,
                                       std::size_t frame, NodeId n,
                                       const HopOptions& opts = {});

}  // namespace gmfnet::core
