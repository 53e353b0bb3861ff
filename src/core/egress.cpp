#include "core/egress.hpp"

#include <stdexcept>

#include "core/hop_level.hpp"
#include "util/fixed_point.hpp"

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
  // eq (35) with the self term included (DESIGN.md correction #3).
  return ctx.egress_level_utilization(i, outgoing_link(ctx, i, n)) < 1.0;
}

HopResult analyze_egress(const AnalysisContext& ctx, const JitterMap& jitters,
                         FlowId i, std::size_t frame, NodeId n,
                         const HopOptions& opts) {
  HopResult result;
  const LinkRef link = outgoing_link(ctx, i, n);
  const StageKey stage = StageKey::link(link);
  const gmfnet::Time circ = ctx.circ(n);

  if (!egress_feasible(ctx, i, n)) return result;

  const gmf::FlowLinkParams& pi = ctx.link_params(i, link);
  const gmfnet::Time ck = pi.c(frame);
  const gmfnet::Time tsum_i = pi.tsum();
  const gmfnet::Time mft = pi.mft();
  const std::int64_t nf_k = pi.nframes(frame);

  FixedPointOptions fp;
  fp.horizon = opts.horizon;
  HopScratch& scratch = HopScratch::local();

  // flows_on_link over-approximates the hep level size; good enough for a
  // cost cutover.
  if (opts.use_envelope &&
      ctx.flows_on_link(link).size() > kEnvelopeMinInterferers) {
    // hep flows (eq 2) interfere with both transmission time and task
    // services; counted per class of the link's shared table.  The analysed
    // flow itself participates in the busy period (correction #3) but is
    // evaluated directly, outside the merged envelope.
    LevelSlot& slot = scratch.level(ctx, jitters, HopKind::kEgress, link, i);

    // Level-i busy period, eqs (28)-(29): lower-priority blocking MFT plus,
    // per level-i flow, transmission demand MX and task-service demand
    // NX * CIRC (self task services per opts.charge_self_circ).
    const auto busy_fn = [&](gmfnet::Time t) {
      const gmf::EnvelopeSums s = slot.envelope().eval(t, slot.cursor());
      const gmf::EnvelopeSums self_s =
          slot.self_envelope().eval(t, slot.self_cursor());
      gmfnet::Time next =
          mft + gmfnet::Time(s.cost + self_s.cost) + s.count * circ;
      if (opts.charge_self_circ) {
        next += self_s.count * circ;
      }
      return next;
    };
    const FixedPointResult busy = iterate_fixed_point(mft + ck, busy_fn, fp);
    result.iterations += busy.iterations;
    result.busy_period = busy.value;
    if (!busy.converged) return result;

    const std::int64_t q_count =
        gmfnet::max(busy.value, gmfnet::Time(1)).ceil_div(tsum_i);
    result.instances = q_count;

    gmfnet::Time worst = gmfnet::Time::zero();
    for (std::int64_t q = 0; q < q_count; ++q) {
      // Queueing, eqs (30)-(31): blocking + q cycles of self transmission
      // (+ self task services, correction #5) + hep interference.
      gmfnet::Time self = mft + q * pi.csum();
      if (opts.charge_self_circ) {
        self += (q * pi.nsum() + nf_k) * circ;
      }
      const auto w_fn = [&](gmfnet::Time w) {
        const gmf::EnvelopeSums s = slot.envelope().eval(w, slot.cursor());
        return self + gmfnet::Time(s.cost) + s.count * circ;
      };
      const FixedPointResult w = iterate_fixed_point(self, w_fn, fp);
      result.iterations += w.iterations;
      if (!w.converged) return result;
      // eq (32): R(q) = w(q) - q*TSUM_i + C_i^k.
      worst = gmfnet::max(worst, w.value - q * tsum_i + ck);
    }

    // eq (33): add propagation delay.
    result.response = worst + ctx.network().prop(link.src, link.dst);
    result.converged = true;
    return result;
  }

  // Reference (naive) path: level set {i} ∪ hep in the per-thread buffer.
  auto& level = scratch.naive;
  level.clear();
  level.push_back(HopScratch::NaiveSpec{&ctx.demand(i, link),
                                        jitters.max_jitter(i, stage), true});
  ctx.for_each_hep(i, link, [&](FlowId j) {
    level.push_back(HopScratch::NaiveSpec{&ctx.demand(j, link),
                                          jitters.max_jitter(j, stage),
                                          false});
  });

  const auto busy_fn = [&](gmfnet::Time t) {
    gmfnet::Time next = mft;
    for (const HopScratch::NaiveSpec& j : level) {
      if (j.is_self && !opts.charge_self_circ) {
        next += j.curve->mx(t + j.shift);
      } else {
        next += j.curve->mx(t + j.shift) + j.curve->nx(t + j.shift) * circ;
      }
    }
    return next;
  };
  const FixedPointResult busy = iterate_fixed_point(mft + ck, busy_fn, fp);
  result.iterations += busy.iterations;
  result.busy_period = busy.value;
  if (!busy.converged) return result;

  const std::int64_t q_count =
      gmfnet::max(busy.value, gmfnet::Time(1)).ceil_div(tsum_i);
  result.instances = q_count;

  gmfnet::Time worst = gmfnet::Time::zero();
  for (std::int64_t q = 0; q < q_count; ++q) {
    gmfnet::Time self = mft + q * pi.csum();
    if (opts.charge_self_circ) {
      self += (q * pi.nsum() + nf_k) * circ;
    }
    const auto w_fn = [&](gmfnet::Time w) {
      gmfnet::Time next = self;
      for (const HopScratch::NaiveSpec& j : level) {
        if (j.is_self) continue;
        next += j.curve->mx(w + j.shift) + j.curve->nx(w + j.shift) * circ;
      }
      return next;
    };
    const FixedPointResult w = iterate_fixed_point(self, w_fn, fp);
    result.iterations += w.iterations;
    if (!w.converged) return result;
    worst = gmfnet::max(worst, w.value - q * tsum_i + ck);
  }

  // eq (33): add propagation delay.
  result.response = worst + ctx.network().prop(link.src, link.dst);
  result.converged = true;
  return result;
}

}  // namespace gmfnet::core
