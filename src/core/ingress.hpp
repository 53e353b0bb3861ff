// Switch-ingress analysis, eqs (21)-(27): from the reception of a frame's
// Ethernet frames in the NIC FIFO of switch N to their enqueueing in the
// outbound priority queue.
//
// The ingress task of the receiving interface is serviced once every
// CIRC(N) under round-robin stride scheduling and moves one Ethernet frame
// per service, so every Ethernet frame received on the same interface —
// regardless of flow priority (classification happens *after* this stage) —
// costs one CIRC-spaced service slot.  Interference therefore counts frames
// (NX), not transmission time.
#pragma once

#include <cstddef>

#include "core/context.hpp"
#include "core/hop_level.hpp"
#include "core/hop_result.hpp"

namespace gmfnet::core {

/// Precondition: the ingress service can keep up, i.e.
/// sum over flows on the incoming link of NSUM_j * CIRC(N) / TSUM_j < 1.
/// (The paper states no explicit condition for this stage; this is the
/// analogue of eq (20).)
[[nodiscard]] bool ingress_feasible(const AnalysisContext& ctx, FlowId i,
                                    NodeId n);

/// Flow i's ingress site (core/hop_level.hpp) behind `in_link`, the link
/// it arrives over: its parameters there, CIRC of the receiving switch and
/// the feasibility test above; the level source is left unbound.
[[nodiscard]] HopSite ingress_site(const AnalysisContext& ctx, FlowId i,
                                   LinkRef in_link);

/// The ingress recurrence's terms for frame `frame` at `site`.
[[nodiscard]] HopTerms ingress_terms(const HopSite& site, std::size_t frame,
                                     const HopOptions& opts);

/// R_i^k,in(N): response time of frame k of flow i inside switch N, from
/// "all Ethernet frames received at N" to "all enqueued in the priority
/// queue".  N must be an intermediate switch of flow i's route.  One
/// frame: resolves the site, then runs its terms.
[[nodiscard]] HopResult analyze_ingress(const AnalysisContext& ctx,
                                        const JitterMap& jitters, FlowId i,
                                        std::size_t frame, NodeId n,
                                        const HopOptions& opts = {});

}  // namespace gmfnet::core
