// First-hop analysis, eqs (14)-(20).
//
// The source node is an arbitrary PC (or router): the operator cannot
// control its queueing discipline, so the only assumption is that the output
// link is *work-conserving*.  Consequently every flow sharing the first link
// interferes regardless of priority, and the bound is a busy-period analysis
// over the total demand MX of all flows on link(S, succ(τ_i, S)).
#pragma once

#include <cstddef>

#include "core/context.hpp"
#include "core/hop_level.hpp"
#include "core/hop_result.hpp"

namespace gmfnet::core {

/// Precondition (20): total utilization of the first link < 1.
[[nodiscard]] bool first_hop_feasible(const AnalysisContext& ctx, FlowId i);

/// Flow i's first-hop site (core/hop_level.hpp): its first link, its
/// parameters there, the link's propagation delay and eq (20); the level
/// source is left unbound.
[[nodiscard]] HopSite first_hop_site(const AnalysisContext& ctx, FlowId i);

/// The first-hop recurrence's terms for frame `frame` at `site`.
[[nodiscard]] HopTerms first_hop_terms(const HopSite& site,
                                       std::size_t frame,
                                       const HopOptions& opts);

/// R_i^k,link(S, succ(τ_i, S)): response time of frame k of flow i on its
/// first link, from "all Ethernet frames enqueued at S" to "all received at
/// succ".  Includes the link propagation delay (eq 19).
///
/// `jitters` supplies extra_j (eq extra) for every interfering flow: the
/// maximum generalized jitter of flow j on this link as currently assumed by
/// the holistic iteration.  One frame: resolves the site, then runs its
/// terms.
[[nodiscard]] HopResult analyze_first_hop(const AnalysisContext& ctx,
                                          const JitterMap& jitters, FlowId i,
                                          std::size_t frame,
                                          const HopOptions& opts = {});

}  // namespace gmfnet::core
