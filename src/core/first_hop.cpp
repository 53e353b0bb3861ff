#include "core/first_hop.hpp"

#include "core/hop_level.hpp"

namespace gmfnet::core {

bool first_hop_feasible(const AnalysisContext& ctx, FlowId i) {
  const net::Route& route = ctx.flow(i).route();
  const LinkRef link(route.node_at(0), route.node_at(1));
  return ctx.link_utilization(link) < 1.0;  // eq (20)
}

HopResult analyze_first_hop(const AnalysisContext& ctx,
                            const JitterMap& jitters, FlowId i,
                            std::size_t frame, const HopOptions& opts) {
  const net::Route& route = ctx.flow(i).route();
  const LinkRef link(route.node_at(0), route.node_at(1));
  if (!first_hop_feasible(ctx, i)) return {};  // eq (20) violated

  const gmf::FlowLinkParams& pi = ctx.link_params(i, link);
  HopTerms h;
  // Interference: every other flow on the link, and the analysed flow
  // itself in the busy period, by transmission demand MX (eqs 15, 17).
  h.others = h.self = DemandWeights{1, gmfnet::Time::zero()};
  // Busy period, eqs (14)-(15), seeded with C_i^k (DESIGN.md correction
  // #2: eq (14)'s zero seed is itself a fixed point when all jitters are
  // zero).
  h.busy_seed = pi.c(frame);
  // Queueing, eqs (16)-(17): w(q) = q*CSUM_i + sum over other flows of
  // MX_j(w + extra_j).
  h.self_step = pi.csum();
  // eq (18): R(q) = w(q) - q*TSUM_i + C_i^k; eq (19) adds propagation.
  h.tsum = pi.tsum();
  h.tail = pi.c(frame);
  h.prop = ctx.network().prop(link.src, link.dst);
  return analyze_hop(ctx, jitters, HopKind::kFirstHop, link, i, h, opts);
}

}  // namespace gmfnet::core
