#include "core/context.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "switchsim/switch_model.hpp"

namespace gmfnet::core {

std::uint64_t next_content_uid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

JitterMap JitterMap::initial(const AnalysisContext& ctx) {
  JitterMap m;
  m.per_flow_.resize(ctx.flow_count());
  m.stamp_.renew();
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    const gmf::Flow& flow = ctx.flow(id);
    const auto& stages = ctx.stages(id);
    StageJitter src_jitter;
    src_jitter.frames.resize(flow.frame_count());
    for (std::size_t k = 0; k < flow.frame_count(); ++k) {
      src_jitter.frames[k] = flow.frame(k).jitter;
      src_jitter.max = gmfnet::max(src_jitter.max, src_jitter.frames[k]);
    }
    m.per_flow_[f] = std::make_shared<FlowEntries>();
    m.per_flow_[f]->stages[stages.front()] = std::move(src_jitter);
    m.per_flow_[f]->version = next_content_uid();
  }
  return m;
}

void JitterMap::reset_to_source(const AnalysisContext& ctx, FlowId flow) {
  clear_flow(flow);
  const gmf::Flow& f = ctx.flow(flow);
  const StageKey& source = ctx.stages(flow).front();
  for (std::size_t k = 0; k < f.frame_count(); ++k) {
    set_jitter(flow, source, k, f.frame(k).jitter);
  }
}

const JitterMap::StageMap& JitterMap::flow_map(std::size_t f) const {
  static const StageMap kEmpty;
  if (f >= per_flow_.size() || !per_flow_[f]) return kEmpty;
  return per_flow_[f]->stages;
}

JitterMap::StageMap& JitterMap::mutable_flow_map(std::size_t f) {
  if (f >= per_flow_.size()) per_flow_.resize(f + 1);
  auto& slot = per_flow_[f];
  if (!slot) {
    slot = std::make_shared<FlowEntries>();
  } else if (slot.use_count() > 1) {
    // Shared with a snapshot/copy: clone before the write.
    slot = std::make_shared<FlowEntries>(*slot);
  }
  slot->version = next_content_uid();
  stamp_.renew();
  return slot->stages;
}

gmfnet::Time JitterMap::jitter(FlowId flow, const StageKey& stage,
                               std::size_t frame) const {
  const StageMap& m = flow_map(static_cast<std::size_t>(flow.v));
  const auto it = m.find(stage);
  if (it == m.end() || frame >= it->second.frames.size()) {
    return gmfnet::Time::zero();
  }
  return it->second.frames[frame];
}

gmfnet::Time JitterMap::max_jitter(FlowId flow, const StageKey& stage) const {
  const StageMap& sm = flow_map(static_cast<std::size_t>(flow.v));
  const auto it = sm.find(stage);
  return it == sm.end() ? gmfnet::Time::zero() : it->second.max;
}

bool JitterMap::set_jitter(FlowId flow, const StageKey& stage,
                           std::size_t frame, gmfnet::Time value) {
  const auto f = static_cast<std::size_t>(flow.v);
  {
    // An equal write is a no-op: no copy-on-write clone and no new
    // version, so link tables keyed on flow_version stay valid.  A missing
    // entry is always created, even for a zero value — absent and zero
    // entries differ structurally.
    const StageMap& m = flow_map(f);
    const auto it = m.find(stage);
    if (it != m.end() && frame < it->second.frames.size() &&
        it->second.frames[frame] == value) {
      return false;
    }
  }
  StageJitter& sj = mutable_flow_map(f)[stage];
  auto& v = sj.frames;
  if (frame >= v.size()) v.resize(frame + 1, gmfnet::Time::zero());
  const gmfnet::Time old = v[frame];
  v[frame] = value;
  // Maintain the cached maximum exactly: a write at or above it raises it;
  // overwriting the (unique or not) maximum with less forces one rescan.
  if (value >= sj.max) {
    sj.max = value;
  } else if (old == sj.max) {
    gmfnet::Time m = gmfnet::Time::zero();
    for (const gmfnet::Time t : v) m = gmfnet::max(m, t);
    sj.max = m;
  }
  return true;
}

void JitterMap::adopt_flow(const JitterMap& other, FlowId flow) {
  adopt_flow(other, flow, flow);
}

void JitterMap::adopt_flow(const JitterMap& other, FlowId from, FlowId to) {
  const auto src = static_cast<std::size_t>(from.v);
  const auto dst = static_cast<std::size_t>(to.v);
  if (dst >= per_flow_.size()) per_flow_.resize(dst + 1);
  // Adoption shares the source's map; a later write to either side clones.
  per_flow_[dst] =
      src < other.per_flow_.size() ? other.per_flow_[src] : nullptr;
  stamp_.renew();
}

void JitterMap::erase_flow(FlowId flow) {
  const auto f = static_cast<std::size_t>(flow.v);
  if (f < per_flow_.size()) {
    per_flow_.erase(per_flow_.begin() + static_cast<std::ptrdiff_t>(f));
    stamp_.renew();
  }
}

void JitterMap::clear_flow(FlowId flow) {
  const auto f = static_cast<std::size_t>(flow.v);
  if (f < per_flow_.size()) {
    per_flow_[f] = nullptr;
    stamp_.renew();
  }
}

std::uint64_t JitterMap::flow_version(FlowId flow) const {
  const auto f = static_cast<std::size_t>(flow.v);
  return f < per_flow_.size() && per_flow_[f] ? per_flow_[f]->version : 0;
}

bool JitterMap::flow_equals(const JitterMap& other, FlowId flow) const {
  const auto f = static_cast<std::size_t>(flow.v);
  // Shared maps are equal by construction; only diverged ones need a deep
  // compare.
  if (f < per_flow_.size() && f < other.per_flow_.size() &&
      per_flow_[f] == other.per_flow_[f]) {
    return true;
  }
  return flow_map(f) == other.flow_map(f);
}

bool JitterMap::operator==(const JitterMap& other) const {
  if (per_flow_.size() != other.per_flow_.size()) return false;
  for (std::size_t f = 0; f < per_flow_.size(); ++f) {
    if (!flow_equals(other, FlowId(static_cast<std::int32_t>(f)))) {
      return false;
    }
  }
  return true;
}

bool JitterMap::has_entries(FlowId flow) const {
  const auto f = static_cast<std::size_t>(flow.v);
  return f < per_flow_.size() && per_flow_[f] != nullptr;
}

JitterMap::StageEntries JitterMap::stage_entries(FlowId flow) const {
  StageEntries out;
  const StageMap& m = flow_map(static_cast<std::size_t>(flow.v));
  out.reserve(m.size());
  for (const auto& [stage, sj] : m) out.emplace_back(stage, sj.frames);
  return out;
}

void JitterMap::resize_slots(std::size_t n) {
  per_flow_.resize(n);
  stamp_.renew();
}

void JitterMap::set_stage_frames(FlowId flow, const StageKey& stage,
                                 std::vector<gmfnet::Time> frames) {
  StageJitter sj;
  sj.max = gmfnet::Time::zero();
  for (const gmfnet::Time t : frames) sj.max = gmfnet::max(sj.max, t);
  sj.frames = std::move(frames);
  mutable_flow_map(static_cast<std::size_t>(flow.v))[stage] = std::move(sj);
}

AnalysisContext::AnalysisContext(net::Network network)
    : net_(std::make_shared<const net::Network>(std::move(network))) {
  net_->validate();
  std::vector<gmfnet::Time> circ(net_->node_count(), gmfnet::Time::zero());
  for (const NodeId n : net_->nodes_of_kind(net::NodeKind::kSwitch)) {
    circ[static_cast<std::size_t>(n.v)] = switchsim::circ_of(*net_, n);
  }
  circ_ = std::make_shared<const std::vector<gmfnet::Time>>(std::move(circ));
}

AnalysisContext::AnalysisContext(net::Network network,
                                 std::vector<gmf::Flow> flows)
    : AnalysisContext(std::move(network)) {
  add_flows(std::move(flows));
}

FlowId AnalysisContext::append_flow_deferred(gmf::Flow flow) {
  flow.validate(*net_);
  const FlowId id(static_cast<std::int32_t>(derived_.size()));

  auto d = std::make_shared<FlowDerived>();
  d->flow = std::move(flow);
  const net::Route& route = d->flow.route();

  // Stage sequence per Figure 6: first link, then per-switch (in, link).
  d->stages.push_back(StageKey::link(route.node_at(0), route.node_at(1)));
  for (std::size_t i = 1; i + 1 < route.node_count(); ++i) {
    d->stages.push_back(StageKey::ingress(route.node_at(i)));
    d->stages.push_back(StageKey::link(route.node_at(i), route.node_at(i + 1)));
  }

  d->links = route.links();
  d->params.reserve(d->links.size());
  for (const LinkRef l : d->links) {
    d->params.emplace_back(d->flow, net_->linkspeed(l.src, l.dst));
  }
  d->demand.reserve(d->params.size());
  for (const gmf::FlowLinkParams& p : d->params) d->demand.emplace_back(p);

  derived_.push_back(std::move(d));
  stamp_.renew();

  // Route-based incremental update: only this flow's links are touched.
  for (const LinkRef l : derived_.back()->links) links_[l].flows.push_back(id);
  return id;
}

FlowId AnalysisContext::add_flow(gmf::Flow flow) {
  const FlowId id = append_flow_deferred(std::move(flow));
  for (const LinkRef l : derived_.back()->links) {
    recompute_link_aggregates(l, links_[l]);
  }
  return id;
}

void AnalysisContext::add_flows(std::vector<gmf::Flow> flows) {
  // Validate the whole batch up front: a validation failure must leave the
  // context untouched (matching add_flow's validate-before-mutate order),
  // not mid-batch with links whose aggregates were never recomputed.
  for (const gmf::Flow& f : flows) f.validate(*net_);
  derived_.reserve(derived_.size() + flows.size());
  std::vector<LinkRef> touched;
  for (gmf::Flow& f : flows) {
    const FlowId id = append_flow_deferred(std::move(f));
    const auto& links = derived_[static_cast<std::size_t>(id.v)]->links;
    touched.insert(touched.end(), links.begin(), links.end());
  }
  // One from-scratch aggregate pass per touched link, however many of the
  // appended flows crossed it.  The recompute sums in flow-id order, so the
  // final state matches the sequential add_flow path bit for bit.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const LinkRef l : touched) {
    recompute_link_aggregates(l, links_[l]);
  }
}

FlowId AnalysisContext::adopt_flow(const AnalysisContext& from, FlowId src) {
  const auto s = static_cast<std::size_t>(src.v);
  if (src.v < 0 || s >= from.derived_.size()) {
    throw std::out_of_range("adopt_flow: no such flow in source context");
  }
  const FlowId id(static_cast<std::int32_t>(derived_.size()));
  // Share the immutable derived state verbatim; only this context's
  // per-link aggregates are recomputed, exactly as add_flow would.
  derived_.push_back(from.derived_[s]);
  stamp_.renew();
  for (const LinkRef l : derived_.back()->links) {
    LinkState& state = links_[l];
    state.flows.push_back(id);
    recompute_link_aggregates(l, state);
  }
  return id;
}

FlowId AnalysisContext::adopt_flow_deferred(const AnalysisContext& from,
                                            FlowId src) {
  const auto s = static_cast<std::size_t>(src.v);
  if (src.v < 0 || s >= from.derived_.size()) {
    throw std::out_of_range("adopt_flow: no such flow in source context");
  }
  const FlowId id(static_cast<std::int32_t>(derived_.size()));
  derived_.push_back(from.derived_[s]);
  stamp_.renew();
  for (const LinkRef l : derived_.back()->links) links_[l].flows.push_back(id);
  return id;
}

void AnalysisContext::recompute_all_aggregates() {
  for (auto& [link, state] : links_) recompute_link_aggregates(link, state);
}

AnalysisContext AnalysisContext::empty_clone(const AnalysisContext& like) {
  AnalysisContext out;
  out.net_ = like.net_;
  out.circ_ = like.circ_;
  return out;
}

void AnalysisContext::remove_flow(std::size_t index) {
  if (index >= derived_.size()) {
    throw std::out_of_range("remove_flow: no flow at this index");
  }
  const auto removed = static_cast<std::int32_t>(index);
  const std::vector<LinkRef> touched = derived_[index]->links;

  derived_.erase(derived_.begin() + static_cast<std::ptrdiff_t>(index));
  stamp_.renew();

  // Flow ids above the removed one shift down by one, on every link.
  for (auto it = links_.begin(); it != links_.end();) {
    auto& flows = it->second.flows;
    std::erase(flows, FlowId(removed));
    for (FlowId& f : flows) {
      if (f.v > removed) f = FlowId(f.v - 1);
    }
    if (flows.empty()) {
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
  // Only the removed flow's route links need their aggregates rebuilt.
  for (const LinkRef l : touched) {
    const auto it = links_.find(l);
    if (it != links_.end()) recompute_link_aggregates(l, it->second);
  }
}

void AnalysisContext::recompute_link_aggregates(LinkRef link,
                                                LinkState& state) const {
  const gmfnet::Time c = circ(link.dst);
  state.utilization = 0.0;
  state.ingress_utilization = 0.0;
  for (const FlowId j : state.flows) {
    const gmf::FlowLinkParams& p = link_params(j, link);
    state.utilization += p.utilization();
    state.ingress_utilization += static_cast<double>(p.nsum()) *
                                 static_cast<double>(c.ps()) /
                                 static_cast<double>(p.tsum().ps());
  }
}

const std::vector<FlowId>& AnalysisContext::flows_on_link(LinkRef link) const {
  static const std::vector<FlowId> kEmpty;
  const auto it = links_.find(link);
  return it == links_.end() ? kEmpty : it->second.flows;
}

std::vector<FlowId> AnalysisContext::hep(FlowId i, LinkRef link) const {
  std::vector<FlowId> out;
  for_each_hep(i, link, [&](FlowId j) { out.push_back(j); });
  return out;
}

std::vector<FlowId> AnalysisContext::lp(FlowId i, LinkRef link) const {
  std::vector<FlowId> out;
  const std::int64_t pi = flow(i).priority();
  for (const FlowId j : flows_on_link(link)) {
    if (j != i && flow(j).priority() < pi) out.push_back(j);
  }
  return out;
}

const AnalysisContext::FlowDerived& AnalysisContext::derived(
    FlowId i, const char* what) const {
  const auto f = static_cast<std::size_t>(i.v);
  if (i.v < 0 || f >= derived_.size()) {
    throw std::out_of_range(std::string(what) + ": no such flow");
  }
  return *derived_[f];
}

const gmf::FlowLinkParams& AnalysisContext::link_params(FlowId i,
                                                        LinkRef link) const {
  const FlowDerived& d = derived(i, "link_params");
  for (std::size_t k = 0; k < d.links.size(); ++k) {
    if (d.links[k] == link) return d.params[k];
  }
  throw std::out_of_range("link_params: flow does not traverse link");
}

const gmf::DemandCurve& AnalysisContext::demand(FlowId i, LinkRef link) const {
  const FlowDerived& d = derived(i, "demand");
  for (std::size_t k = 0; k < d.links.size(); ++k) {
    if (d.links[k] == link) return d.demand[k];
  }
  throw std::out_of_range("demand: flow does not traverse link");
}

gmfnet::Time AnalysisContext::circ(NodeId n) const {
  if (!net_->has_node(n)) throw std::out_of_range("circ: bad node");
  return (*circ_)[static_cast<std::size_t>(n.v)];
}

double AnalysisContext::link_utilization(LinkRef link) const {
  const auto it = links_.find(link);
  return it == links_.end() ? 0.0 : it->second.utilization;
}

double AnalysisContext::ingress_utilization(LinkRef link) const {
  const auto it = links_.find(link);
  return it == links_.end() ? 0.0 : it->second.ingress_utilization;
}

double AnalysisContext::egress_level_utilization(FlowId i, LinkRef link) const {
  // Runs per egress hop analysis, so it must not allocate a temporary id
  // vector the way hep() does.
  double u = link_params(i, link).utilization();
  for_each_hep(i, link,
               [&](FlowId j) { u += link_params(j, link).utilization(); });
  return u;
}

const std::vector<StageKey>& AnalysisContext::stages(FlowId i) const {
  return derived_[static_cast<std::size_t>(i.v)]->stages;
}

const std::vector<LinkRef>& AnalysisContext::route_links(FlowId i) const {
  return derived_[static_cast<std::size_t>(i.v)]->links;
}

}  // namespace gmfnet::core
