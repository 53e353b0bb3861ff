#include "core/first_hop.hpp"

#include "core/hop_level.hpp"
#include "util/fixed_point.hpp"

namespace gmfnet::core {

bool first_hop_feasible(const AnalysisContext& ctx, FlowId i) {
  const net::Route& route = ctx.flow(i).route();
  const LinkRef link(route.node_at(0), route.node_at(1));
  return ctx.link_utilization(link) < 1.0;  // eq (20)
}

HopResult analyze_first_hop(const AnalysisContext& ctx,
                            const JitterMap& jitters, FlowId i,
                            std::size_t frame, const HopOptions& opts) {
  HopResult result;
  const gmf::Flow& fi = ctx.flow(i);
  const net::Route& route = fi.route();
  const NodeId src = route.node_at(0);
  const NodeId nxt = route.node_at(1);
  const LinkRef link(src, nxt);
  const StageKey stage = StageKey::link(link);

  if (!first_hop_feasible(ctx, i)) return result;  // eq (20) violated

  const gmf::FlowLinkParams& pi = ctx.link_params(i, link);
  const gmfnet::Time ck = pi.c(frame);
  const gmfnet::Time tsum_i = pi.tsum();

  FixedPointOptions fp;
  fp.horizon = opts.horizon;
  HopScratch& scratch = HopScratch::local();

  if (opts.use_envelope &&
      ctx.flows_on_link(link).size() > kEnvelopeMinInterferers) {
    // Interfering flows = every other flow on the link, as classes of the
    // link's shared table with this flow's own class decremented (see
    // hop_level.hpp).  The analysed flow's own demand is evaluated directly
    // so its per-frame jitter writes don't invalidate the table.
    LevelSlot& slot =
        scratch.level(ctx, jitters, HopKind::kFirstHop, link, i);

    // Busy period, eqs (14)-(15).  Seeded with C_i^k (DESIGN.md correction
    // #2: eq (14)'s zero seed is itself a fixed point when all jitters are
    // zero).
    const auto busy_fn = [&](gmfnet::Time t) {
      return gmfnet::Time(
          slot.self_envelope().eval(t, slot.self_cursor()).cost +
          slot.envelope().eval(t, slot.cursor()).cost);
    };
    const FixedPointResult busy = iterate_fixed_point(ck, busy_fn, fp);
    result.iterations += busy.iterations;
    result.busy_period = busy.value;
    if (!busy.converged) return result;

    // Q = ceil(t / TSUM_i): instances of frame k inside the busy period.
    const std::int64_t q_count =
        gmfnet::max(busy.value, gmfnet::Time(1)).ceil_div(tsum_i);
    result.instances = q_count;

    gmfnet::Time worst = gmfnet::Time::zero();
    for (std::int64_t q = 0; q < q_count; ++q) {
      // Queueing time, eqs (16)-(17): w(q) = q*CSUM_i + sum over other
      // flows of MX_j(w + extra_j).
      const gmfnet::Time self = q * pi.csum();
      const auto w_fn = [&](gmfnet::Time w) {
        return self +
               gmfnet::Time(slot.envelope().eval(w, slot.cursor()).cost);
      };
      const FixedPointResult w = iterate_fixed_point(self, w_fn, fp);
      result.iterations += w.iterations;
      if (!w.converged) return result;
      // eq (18): R(q) = w(q) - q*TSUM_i + C_i^k.
      worst = gmfnet::max(worst, w.value - q * tsum_i + ck);
    }

    result.response = worst + ctx.network().prop(src, nxt);  // eq (19)
    result.converged = true;
    return result;
  }

  // Reference (naive) path: per-interferer binary searches each iteration,
  // gathered into the reusable per-thread buffer.
  auto& level = scratch.naive;
  level.clear();
  for (const FlowId j : ctx.flows_on_link(link)) {
    level.push_back(HopScratch::NaiveSpec{&ctx.demand(j, link),
                                          jitters.max_jitter(j, stage),
                                          j == i});
  }

  const auto busy_fn = [&](gmfnet::Time t) {
    gmfnet::Time next = gmfnet::Time::zero();
    for (const HopScratch::NaiveSpec& j : level) {
      next += j.curve->mx(t + j.shift);
    }
    return next;
  };
  const FixedPointResult busy = iterate_fixed_point(ck, busy_fn, fp);
  result.iterations += busy.iterations;
  result.busy_period = busy.value;
  if (!busy.converged) return result;

  const std::int64_t q_count =
      gmfnet::max(busy.value, gmfnet::Time(1)).ceil_div(tsum_i);
  result.instances = q_count;

  gmfnet::Time worst = gmfnet::Time::zero();
  for (std::int64_t q = 0; q < q_count; ++q) {
    const gmfnet::Time self = q * pi.csum();
    const auto w_fn = [&](gmfnet::Time w) {
      gmfnet::Time next = self;
      for (const HopScratch::NaiveSpec& j : level) {
        if (j.is_self) continue;
        next += j.curve->mx(w + j.shift);
      }
      return next;
    };
    const FixedPointResult w = iterate_fixed_point(self, w_fn, fp);
    result.iterations += w.iterations;
    if (!w.converged) return result;
    worst = gmfnet::max(worst, w.value - q * tsum_i + ck);
  }

  result.response = worst + ctx.network().prop(src, nxt);  // eq (19)
  result.converged = true;
  return result;
}

}  // namespace gmfnet::core
