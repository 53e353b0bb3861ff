#include "core/hop_level.hpp"

#include <algorithm>
#include <cassert>

#include "util/fixed_point.hpp"

namespace gmfnet::core {

LinkLevel::Gather LinkLevel::ensure(const AnalysisContext& ctx,
                                    const JitterMap& jitters, LinkRef link,
                                    const StageKey& stage, FlowId self) {
  if (ctx.stamp() != ctx_stamp_ || ctx_stamp_ == 0) {
    gather(ctx, jitters, link, stage);
    return Gather::kContext;
  }
  if (jitters.stamp() == jitter_stamp_ && jitter_stamp_ != 0) {
    return Gather::kNone;
  }

  // The jitter stamp moved: re-check each member's jitter version.
  bool self_current = true;
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (jitters.flow_version(members_[m]) == versions_[m]) continue;
    if (members_[m] != self) {
      gather(ctx, jitters, link, stage);
      return Gather::kVersion;
    }
    self_current = false;  // the analysed flow's own write: excluded
  }
  // Trust the jitter stamp only when every member, self included, is
  // current; otherwise the next analysis of another flow re-checks.
  jitter_stamp_ = self_current ? jitters.stamp() : 0;
  return Gather::kNone;
}

void LinkLevel::gather(const AnalysisContext& ctx, const JitterMap& jitters,
                       LinkRef link, const StageKey& stage) {
  members_ = ctx.flows_on_link(link);
  const std::size_t n = members_.size();
  // Slots are reused in place: a new build rebuilds each slot's interferer
  // envelope on its next use, and its self envelope checks its content.
  slots_.resize(n);
  curves_.resize(n);
  versions_.resize(n);
  priorities_.resize(n);
  class_of_.resize(n);
  classes_.clear();
  for (std::size_t m = 0; m < n; ++m) {
    const FlowId j = members_[m];
    const gmf::DemandCurve& curve = ctx.demand(j, link);
    const gmfnet::Time shift = jitters.max_jitter(j, stage);
    curves_[m] = &curve;
    versions_[m] = jitters.flow_version(j);
    priorities_[m] = ctx.flow(j).priority();

    // Classes are few on real hops (one per codec / camera model / shift),
    // so a linear scan with cheap scalar compares first is enough.
    std::size_t c = 0;
    while (c < classes_.size() &&
           !(classes_[c].shift == shift &&
             curves_[classes_[c].rep]->same_shape(curve))) {
      ++c;
    }
    if (c == classes_.size()) {
      classes_.push_back(Class{static_cast<std::uint32_t>(m), shift, 0});
    }
    ++classes_[c].mult;
    class_of_[m] = static_cast<std::uint32_t>(c);
  }
  ctx_stamp_ = ctx.stamp();
  jitter_stamp_ = jitters.stamp();
  build_ = next_content_uid();
}

std::size_t LinkLevel::position(FlowId flow) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), flow);
  assert(it != members_.end() && *it == flow && "analysed flow not on link");
  return static_cast<std::size_t>(it - members_.begin());
}

LevelSlot& LinkLevel::slot(FlowId flow) {
  std::unique_ptr<LevelSlot>& s = slots_[position(flow)];
  if (!s) s = std::make_unique<LevelSlot>();
  return *s;
}

void LinkLevel::interferers(FlowId self, bool hep_only,
                            std::vector<gmf::EnvelopeSpec>& out) {
  const std::size_t ms = position(self);

  counts_.assign(classes_.size(), 0);
  if (hep_only) {
    // hep(i), eq (2): other members of priority >= the analysed flow's.
    const std::int64_t pi = priorities_[ms];
    for (std::size_t m = 0; m < members_.size(); ++m) {
      if (m != ms && priorities_[m] >= pi) ++counts_[class_of_[m]];
    }
  } else {
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      counts_[c] = classes_[c].mult;
    }
    --counts_[class_of_[ms]];
  }

  out.clear();
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (counts_[c] == 0) continue;
    out.push_back(gmf::EnvelopeSpec{curves_[classes_[c].rep], classes_[c].shift,
                                    counts_[c]});
  }
}

namespace {

StageKey stage_of(HopKind kind, LinkRef link) {
  return kind == HopKind::kIngress ? StageKey::ingress(link.dst)
                                   : StageKey::link(link);
}

/// The hop recurrence (see HopTerms), over either level source.
template <typename Level>
HopResult solve_hop(const HopTerms& h, Level& level,
                    const FixedPointOptions& fp) {
  HopResult result;
  const auto busy_fn = [&](gmfnet::Time t) {
    return h.blocking + h.self(level.self(t)) + h.others(level.others(t));
  };
  const FixedPointResult busy = iterate_fixed_point(h.busy_seed, busy_fn, fp);
  result.iterations += busy.iterations;
  result.busy_period = busy.value;
  if (!busy.converged) return result;

  const std::int64_t q_count =
      gmfnet::max(busy.value, gmfnet::Time(1)).ceil_div(h.tsum);
  result.instances = q_count;

  gmfnet::Time worst = gmfnet::Time::zero();
  for (std::int64_t q = 0; q < q_count; ++q) {
    const gmfnet::Time self = h.self_base + q * h.self_step;
    const auto w_fn = [&](gmfnet::Time w) {
      return self + h.others(level.others(w));
    };
    const FixedPointResult w = iterate_fixed_point(self, w_fn, fp);
    result.iterations += w.iterations;
    if (!w.converged) return result;
    worst = gmfnet::max(worst, w.value - q * h.tsum + h.tail);
  }

  result.response = worst + h.prop;
  result.converged = true;
  return result;
}

}  // namespace

LevelSlot& HopScratch::level(const AnalysisContext& ctx,
                             const JitterMap& jitters, HopKind kind,
                             LinkRef link, FlowId i) {
  const std::size_t t = 2 * std::size_t{ctx.link_id(link)} +
                        (kind == HopKind::kIngress ? 1 : 0);
  if (t >= tables_.size()) tables_.resize(2 * ctx.network().link_count());
  if (!tables_[t]) tables_[t] = std::make_unique<LinkLevel>();
  LinkLevel& table = *tables_[t];
  const StageKey stage = stage_of(kind, link);
  switch (table.ensure(ctx, jitters, link, stage, i)) {
    case LinkLevel::Gather::kContext:
      ++gathers_.context;
      break;
    case LinkLevel::Gather::kVersion:
      ++gathers_.version;
      break;
    case LinkLevel::Gather::kNone:
      break;
  }

  LevelSlot& slot = table.slot(i);
  const bool hep_only = kind == HopKind::kEgress;
  if (slot.table_build_ != table.build() || slot.hep_only_ != hep_only) {
    table.interferers(i, hep_only, specs_);
    slot.env_.ensure(specs_.data(), specs_.size());
    slot.table_build_ = table.build();
    slot.hep_only_ = hep_only;
  }
  const gmf::EnvelopeSpec self{&ctx.demand(i, link),
                               jitters.max_jitter(i, stage)};
  slot.self_env_.ensure(&self, 1);
  return slot;
}

NaiveLevel& HopScratch::naive(const AnalysisContext& ctx,
                              const JitterMap& jitters, HopKind kind,
                              LinkRef link, FlowId i) {
  const StageKey stage = stage_of(kind, link);
  naive_.others_.clear();
  const auto add = [&](FlowId j) {
    naive_.others_.push_back(
        gmf::EnvelopeSpec{&ctx.demand(j, link), jitters.max_jitter(j, stage)});
  };
  if (kind == HopKind::kEgress) {
    ctx.for_each_hep(i, link, add);  // eq (2)
  } else {
    for (const FlowId j : ctx.flows_on_link(link)) {
      if (j != i) add(j);
    }
  }
  naive_.self_ =
      gmf::EnvelopeSpec{&ctx.demand(i, link), jitters.max_jitter(i, stage)};
  return naive_;
}

void bind_level(const AnalysisContext& ctx, const JitterMap& jitters,
                HopSite& site, const HopOptions& opts) {
  HopScratch& scratch = HopScratch::local();
  if (opts.use_envelope) {
    site.slot = &scratch.level(ctx, jitters, site.kind, site.link, site.flow);
  } else {
    site.naive = &scratch.naive(ctx, jitters, site.kind, site.link, site.flow);
  }
}

HopResult analyze_hop(const HopSite& site, const HopTerms& terms,
                      const HopOptions& opts) {
  FixedPointOptions fp;
  fp.horizon = opts.horizon;
  if (site.slot != nullptr) return solve_hop(terms, *site.slot, fp);
  return solve_hop(terms, *site.naive, fp);
}

HopScratch& HopScratch::local() {
  thread_local HopScratch scratch;
  return scratch;
}

}  // namespace gmfnet::core
