#include "core/ingress.hpp"

#include <stdexcept>

#include "core/hop_level.hpp"
#include "util/fixed_point.hpp"

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
  return ctx.ingress_utilization(incoming_link(ctx, i, n)) < 1.0;
}

HopResult analyze_ingress(const AnalysisContext& ctx, const JitterMap& jitters,
                          FlowId i, std::size_t frame, NodeId n,
                          const HopOptions& opts) {
  HopResult result;
  const LinkRef in_link = incoming_link(ctx, i, n);
  const StageKey stage = StageKey::ingress(n);
  const gmfnet::Time circ = ctx.circ(n);

  if (!ingress_feasible(ctx, i, n)) return result;

  const gmf::FlowLinkParams& pi = ctx.link_params(i, in_link);
  const gmfnet::Time tsum_i = pi.tsum();
  const std::int64_t nf_k = pi.nframes(frame);

  FixedPointOptions fp;
  fp.horizon = opts.horizon;
  HopScratch& scratch = HopScratch::local();

  if (opts.use_envelope &&
      ctx.flows_on_link(in_link).size() > kEnvelopeMinInterferers) {
    // Interference: every other flow received over the same incoming
    // interface, with jitter GJ_j,in(N) (Figure 6 line 13); the merged NX
    // envelope of the interface's classes, self evaluated directly.
    LevelSlot& slot =
        scratch.level(ctx, jitters, HopKind::kIngress, in_link, i);

    // Busy period, eqs (21)-(22): every received Ethernet frame costs one
    // CIRC-spaced service.  Seeded with the packet's own drain time.
    const auto busy_fn = [&](gmfnet::Time t) {
      const std::int64_t frames =
          slot.self_envelope().eval(t, slot.self_cursor()).count +
          slot.envelope().eval(t, slot.cursor()).count;
      return frames * circ;
    };
    const FixedPointResult busy =
        iterate_fixed_point(nf_k * circ, busy_fn, fp);
    result.iterations += busy.iterations;
    result.busy_period = busy.value;
    if (!busy.converged) return result;

    const std::int64_t q_count =
        gmfnet::max(busy.value, gmfnet::Time(1)).ceil_div(tsum_i);  // eq (27)
    result.instances = q_count;

    gmfnet::Time worst = gmfnet::Time::zero();
    for (std::int64_t q = 0; q < q_count; ++q) {
      // Queueing, eqs (23)-(24).  Self term per DESIGN.md correction #4:
      // q full cycles (q*NSUM_i frames) plus the packet's own frames except
      // the final one, whose service is the +CIRC of eq (25).
      // opts.charge_self_circ = false reproduces the literal q*CIRC seed.
      const gmfnet::Time self = opts.charge_self_circ
                                    ? (q * pi.nsum() + nf_k - 1) * circ
                                    : q * circ;
      const auto w_fn = [&](gmfnet::Time w) {
        return self + slot.envelope().eval(w, slot.cursor()).count * circ;
      };
      const FixedPointResult w = iterate_fixed_point(self, w_fn, fp);
      result.iterations += w.iterations;
      if (!w.converged) return result;
      // eq (25): R(q) = w(q) - q*TSUM_i + CIRC(N)  (the final frame's
      // service).
      worst = gmfnet::max(worst, w.value - q * tsum_i + circ);
    }

    result.response = worst;
    result.converged = true;
    return result;
  }

  // Reference (naive) path.
  auto& all = scratch.naive;
  all.clear();
  for (const FlowId j : ctx.flows_on_link(in_link)) {
    all.push_back(HopScratch::NaiveSpec{&ctx.demand(j, in_link),
                                        jitters.max_jitter(j, stage), j == i});
  }

  const auto busy_fn = [&](gmfnet::Time t) {
    std::int64_t frames = 0;
    for (const HopScratch::NaiveSpec& j : all) {
      frames += j.curve->nx(t + j.shift);
    }
    return frames * circ;
  };
  const FixedPointResult busy =
      iterate_fixed_point(nf_k * circ, busy_fn, fp);
  result.iterations += busy.iterations;
  result.busy_period = busy.value;
  if (!busy.converged) return result;

  const std::int64_t q_count =
      gmfnet::max(busy.value, gmfnet::Time(1)).ceil_div(tsum_i);  // eq (27)
  result.instances = q_count;

  gmfnet::Time worst = gmfnet::Time::zero();
  for (std::int64_t q = 0; q < q_count; ++q) {
    const gmfnet::Time self = opts.charge_self_circ
                                  ? (q * pi.nsum() + nf_k - 1) * circ
                                  : q * circ;
    const auto w_fn = [&](gmfnet::Time w) {
      std::int64_t frames = 0;
      for (const HopScratch::NaiveSpec& j : all) {
        if (j.is_self) continue;
        frames += j.curve->nx(w + j.shift);
      }
      return self + frames * circ;
    };
    const FixedPointResult w = iterate_fixed_point(self, w_fn, fp);
    result.iterations += w.iterations;
    if (!w.converged) return result;
    worst = gmfnet::max(worst, w.value - q * tsum_i + circ);
  }

  result.response = worst;
  result.converged = true;
  return result;
}

}  // namespace gmfnet::core
