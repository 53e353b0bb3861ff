#include "core/egress.hpp"

#include <stdexcept>

namespace gmfnet::core {

namespace {
LinkRef outgoing_link(const AnalysisContext& ctx, FlowId i, NodeId n) {
  const net::Route& route = ctx.flow(i).route();
  const NodeId next = route.succ(n);
  if (!next.valid() || n == route.source()) {
    throw std::invalid_argument(
        "analyze_egress: node is not an intermediate hop of the flow");
  }
  return LinkRef(n, next);
}
}  // namespace

bool egress_feasible(const AnalysisContext& ctx, FlowId i, NodeId n) {
  return egress_site(ctx, i, outgoing_link(ctx, i, n)).feasible;
}

HopSite egress_site(const AnalysisContext& ctx, FlowId i, LinkRef link) {
  HopSite site;
  site.kind = HopKind::kEgress;
  site.flow = i;
  site.link = link;
  site.params = &ctx.link_params(i, link);
  site.circ = ctx.circ(link.src);
  site.prop = ctx.network().prop(link.src, link.dst);
  // eq (35) with the self term included (DESIGN.md correction #3).
  site.feasible = ctx.egress_level_utilization(i, link) < 1.0;
  return site;
}

HopTerms egress_terms(const HopSite& site, std::size_t frame,
                      const HopOptions& opts) {
  const gmf::FlowLinkParams& pi = *site.params;
  const gmfnet::Time circ = site.circ;
  const gmfnet::Time mft = pi.mft();
  const gmfnet::Time self_circ =
      opts.charge_self_circ ? circ : gmfnet::Time::zero();
  HopTerms h;
  // Level-i busy period, eqs (28)-(29): lower-priority blocking MFT plus,
  // per hep flow (eq 2), transmission demand MX and task-service demand
  // NX * CIRC.  The analysed flow takes part too (correction #3), its own
  // task services charged per opts.charge_self_circ.
  h.others = DemandWeights{1, circ};
  h.self = DemandWeights{1, self_circ};
  h.blocking = mft;
  h.busy_seed = mft + pi.c(frame);
  // Queueing, eqs (30)-(31): blocking + q cycles of self transmission
  // (+ self task services (q*NSUM_i + N_k) * CIRC, correction #5) + hep
  // interference.
  h.self_base = mft + pi.nframes(frame) * self_circ;
  h.self_step = pi.csum() + pi.nsum() * self_circ;
  // eq (32): R(q) = w(q) - q*TSUM_i + C_i^k; eq (33) adds propagation.
  h.tsum = pi.tsum();
  h.tail = pi.c(frame);
  h.prop = site.prop;
  return h;
}

HopResult analyze_egress(const AnalysisContext& ctx, const JitterMap& jitters,
                         FlowId i, std::size_t frame, NodeId n,
                         const HopOptions& opts) {
  HopSite site = egress_site(ctx, i, outgoing_link(ctx, i, n));
  if (!site.feasible) return {};
  bind_level(ctx, jitters, site, opts);
  return analyze_hop(site, egress_terms(site, frame, opts), opts);
}

}  // namespace gmfnet::core
