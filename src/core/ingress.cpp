#include "core/ingress.hpp"

#include <stdexcept>

namespace gmfnet::core {

namespace {
LinkRef incoming_link(const AnalysisContext& ctx, FlowId i, NodeId n) {
  const net::Route& route = ctx.flow(i).route();
  const NodeId prev = route.prec(n);
  if (!prev.valid()) {
    throw std::invalid_argument(
        "analyze_ingress: node is not an intermediate hop of the flow");
  }
  return LinkRef(prev, n);
}
}  // namespace

bool ingress_feasible(const AnalysisContext& ctx, FlowId i, NodeId n) {
  return ingress_site(ctx, i, incoming_link(ctx, i, n)).feasible;
}

HopSite ingress_site(const AnalysisContext& ctx, FlowId i, LinkRef in_link) {
  HopSite site;
  site.kind = HopKind::kIngress;
  site.flow = i;
  site.link = in_link;
  site.params = &ctx.link_params(i, in_link);
  site.circ = ctx.circ(in_link.dst);
  site.feasible = ctx.ingress_utilization(in_link) < 1.0;
  return site;
}

HopTerms ingress_terms(const HopSite& site, std::size_t frame,
                       const HopOptions& opts) {
  const gmf::FlowLinkParams& pi = *site.params;
  const gmfnet::Time circ = site.circ;
  const std::int64_t nf_k = pi.nframes(frame);
  HopTerms h;
  // Interference: every other flow received over the same incoming
  // interface, with jitter GJ_j,in(N) (Figure 6 line 13).  Every received
  // Ethernet frame costs one CIRC-spaced service: demand NX * CIRC.
  h.others = h.self = DemandWeights{0, circ};
  // Busy period, eqs (21)-(22), seeded with the packet's own drain time.
  h.busy_seed = nf_k * circ;
  // Queueing, eqs (23)-(24).  Self term per DESIGN.md correction #4:
  // (q*NSUM_i + N_k - 1) * CIRC, q full cycles plus the packet's own frames
  // except the final one, whose service is the +CIRC of eq (25).
  // opts.charge_self_circ = false reproduces the literal q*CIRC seed.
  if (opts.charge_self_circ) {
    h.self_base = (nf_k - 1) * circ;
    h.self_step = pi.nsum() * circ;
  } else {
    h.self_step = circ;
  }
  // eq (27): Q = ceil(busy / TSUM_i).  eq (25): R(q) = w(q) - q*TSUM_i +
  // CIRC(N) (the final frame's service); no propagation at an ingress.
  h.tsum = pi.tsum();
  h.tail = circ;
  return h;
}

HopResult analyze_ingress(const AnalysisContext& ctx, const JitterMap& jitters,
                          FlowId i, std::size_t frame, NodeId n,
                          const HopOptions& opts) {
  HopSite site = ingress_site(ctx, i, incoming_link(ctx, i, n));
  if (!site.feasible) return {};
  bind_level(ctx, jitters, site, opts);
  return analyze_hop(site, ingress_terms(site, frame, opts), opts);
}

}  // namespace gmfnet::core
