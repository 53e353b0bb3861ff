#include "core/first_hop.hpp"

namespace gmfnet::core {

bool first_hop_feasible(const AnalysisContext& ctx, FlowId i) {
  return ctx.link_utilization(ctx.route_links(i).front()) < 1.0;  // eq (20)
}

HopSite first_hop_site(const AnalysisContext& ctx, FlowId i) {
  HopSite site;
  site.kind = HopKind::kFirstHop;
  site.flow = i;
  site.link = ctx.route_links(i).front();
  site.params = &ctx.link_params(i, site.link);
  site.prop = ctx.network().prop(site.link.src, site.link.dst);
  site.feasible = first_hop_feasible(ctx, i);
  return site;
}

HopTerms first_hop_terms(const HopSite& site, std::size_t frame,
                         const HopOptions& /*opts*/) {
  const gmf::FlowLinkParams& pi = *site.params;
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
  h.prop = site.prop;
  return h;
}

HopResult analyze_first_hop(const AnalysisContext& ctx,
                            const JitterMap& jitters, FlowId i,
                            std::size_t frame, const HopOptions& opts) {
  HopSite site = first_hop_site(ctx, i);
  if (!site.feasible) return {};  // eq (20) violated
  bind_level(ctx, jitters, site, opts);
  return analyze_hop(site, first_hop_terms(site, frame, opts), opts);
}

}  // namespace gmfnet::core
