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

namespace {

/// A stage key's node ids as one word whose unsigned order is the signed
/// lexicographic order of (a, b).
std::uint64_t pack_nodes(const StageKey& k) {
  constexpr std::uint32_t kBias = 0x8000'0000u;
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.a.v) ^ kBias)
          << 32) |
         (static_cast<std::uint32_t>(k.b.v) ^ kBias);
}

StageKey unpack_nodes(StageKey::Kind kind, std::uint64_t ab) {
  constexpr std::uint32_t kBias = 0x8000'0000u;
  StageKey k;
  k.kind = kind;
  k.a = NodeId(static_cast<std::int32_t>(
      static_cast<std::uint32_t>(ab >> 32) ^ kBias));
  k.b = NodeId(static_cast<std::int32_t>(static_cast<std::uint32_t>(ab) ^
                                         kBias));
  return k;
}

}  // namespace

std::size_t JitterMap::FlowRow::find(const StageKey& key) const {
  const std::uint64_t ab = pack_nodes(key);
  std::size_t s = 0;
  while (s < stages.size() &&
         !(stages[s].ab == ab && stages[s].kind == key.kind)) {
    ++s;
  }
  return s;
}

std::size_t JitterMap::FlowRow::insert(const StageKey& key) {
  const std::uint64_t ab = pack_nodes(key);
  std::size_t s = 0;
  while (s < stages.size() &&
         (stages[s].kind < key.kind ||
          (stages[s].kind == key.kind && stages[s].ab < ab))) {
    ++s;
  }
  StageSlot slot;
  slot.ab = ab;
  slot.kind = key.kind;
  slot.first = static_cast<std::uint32_t>(
      s < stages.size() ? stages[s].first : frames.size());
  stages.insert(stages.begin() + static_cast<std::ptrdiff_t>(s), slot);
  return s;
}

void JitterMap::FlowRow::resize_stage(std::size_t s, std::size_t n) {
  StageSlot& st = stages[s];
  const auto end = frames.begin() + st.first + st.count;
  if (n > st.count) {
    frames.insert(end, n - st.count, gmfnet::Time::zero());
  } else {
    frames.erase(end - static_cast<std::ptrdiff_t>(st.count - n), end);
  }
  const auto delta = static_cast<std::uint32_t>(n) - st.count;  // mod 2^32
  st.count = static_cast<std::uint32_t>(n);
  for (std::size_t t = s + 1; t < stages.size(); ++t) stages[t].first += delta;
}

bool JitterMap::FlowRow::same_entries(const FlowRow& other) const {
  if (stages.size() != other.stages.size() || frames != other.frames) {
    return false;
  }
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StageSlot& a = stages[s];
    const StageSlot& b = other.stages[s];
    if (a.ab != b.ab || a.kind != b.kind || a.count != b.count) return false;
  }
  return true;
}

JitterMap JitterMap::initial(const AnalysisContext& ctx) {
  JitterMap m;
  m.per_flow_.resize(ctx.flow_count());
  m.stamp_.renew();
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    const gmf::Flow& flow = ctx.flow(id);
    auto row = std::make_shared<FlowRow>();
    row->insert(ctx.stages(id).front());
    StageSlot& src = row->stages.front();
    src.count = static_cast<std::uint32_t>(flow.frame_count());
    row->frames.resize(flow.frame_count());
    for (std::size_t k = 0; k < flow.frame_count(); ++k) {
      row->frames[k] = flow.frame(k).jitter;
      src.max = gmfnet::max(src.max, row->frames[k]);
    }
    row->version = next_content_uid();
    m.per_flow_[f] = std::move(row);
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

JitterMap::FlowRow& JitterMap::mutable_row(std::size_t f) {
  if (f >= per_flow_.size()) per_flow_.resize(f + 1);
  auto& slot = per_flow_[f];
  if (!slot) {
    slot = std::make_shared<FlowRow>();
  } else if (slot.use_count() > 1) {
    // Shared with a snapshot/copy: clone before the write.
    slot = std::make_shared<FlowRow>(*slot);
  }
  slot->version = next_content_uid();
  stamp_.renew();
  return *slot;
}

gmfnet::Time JitterMap::jitter(FlowId flow, const StageKey& stage,
                               std::size_t frame) const {
  const FlowRow* r = row(static_cast<std::size_t>(flow.v));
  if (r == nullptr) return gmfnet::Time::zero();
  const std::size_t s = r->find(stage);
  if (s == r->stages.size() || frame >= r->stages[s].count) {
    return gmfnet::Time::zero();
  }
  return r->frames[r->stages[s].first + frame];
}

gmfnet::Time JitterMap::max_jitter(FlowId flow, const StageKey& stage) const {
  const FlowRow* r = row(static_cast<std::size_t>(flow.v));
  if (r == nullptr) return gmfnet::Time::zero();
  const std::size_t s = r->find(stage);
  return s == r->stages.size() ? gmfnet::Time::zero() : r->stages[s].max;
}

bool JitterMap::set_jitter(FlowId flow, const StageKey& stage,
                           std::size_t frame, gmfnet::Time value) {
  const auto f = static_cast<std::size_t>(flow.v);
  // An equal write is a no-op: no copy-on-write clone and no new version,
  // so link tables keyed on flow_version stay valid.  A missing entry is
  // always created, even for a zero value — absent and zero entries differ
  // structurally.
  const FlowRow* r = row(f);
  std::size_t s = r == nullptr ? 0 : r->find(stage);
  if (r != nullptr && s < r->stages.size() && frame < r->stages[s].count &&
      r->frames[r->stages[s].first + frame] == value) {
    return false;
  }
  FlowRow& w = mutable_row(f);
  if (s == w.stages.size()) s = w.insert(stage);
  if (frame >= w.stages[s].count) w.resize_stage(s, frame + 1);
  StageSlot& st = w.stages[s];
  const auto v = w.frames.begin() + st.first;
  const gmfnet::Time old = v[static_cast<std::ptrdiff_t>(frame)];
  v[static_cast<std::ptrdiff_t>(frame)] = value;
  // Maintain the cached maximum exactly: a write at or above it raises it;
  // overwriting the (unique or not) maximum with less forces one rescan.
  if (value >= st.max) {
    st.max = value;
  } else if (old == st.max) {
    gmfnet::Time m = gmfnet::Time::zero();
    for (auto t = v; t != v + st.count; ++t) m = gmfnet::max(m, *t);
    st.max = m;
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
  // Adoption shares the source's row; a later write to either side clones.
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
  const FlowRow* r = row(static_cast<std::size_t>(flow.v));
  return r == nullptr ? 0 : r->version;
}

bool JitterMap::flow_equals(const JitterMap& other, FlowId flow) const {
  const auto f = static_cast<std::size_t>(flow.v);
  const FlowRow* a = row(f);
  const FlowRow* b = other.row(f);
  // Shared rows are equal by construction; only diverged ones need a deep
  // compare.  An absent row reads as one with no stages.
  if (a == b) return true;
  static const FlowRow kEmpty;
  return (a != nullptr ? *a : kEmpty).same_entries(b != nullptr ? *b : kEmpty);
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
  return row(static_cast<std::size_t>(flow.v)) != nullptr;
}

JitterMap::StageEntries JitterMap::stage_entries(FlowId flow) const {
  StageEntries out;
  const FlowRow* r = row(static_cast<std::size_t>(flow.v));
  if (r == nullptr) return out;
  out.reserve(r->stages.size());
  for (const StageSlot& st : r->stages) {
    const auto first = r->frames.begin() + st.first;
    out.emplace_back(unpack_nodes(st.kind, st.ab),
                     std::vector<gmfnet::Time>(first, first + st.count));
  }
  return out;
}

void JitterMap::resize_slots(std::size_t n) {
  per_flow_.resize(n);
  stamp_.renew();
}

void JitterMap::set_stage_frames(FlowId flow, const StageKey& stage,
                                 std::vector<gmfnet::Time> frames) {
  FlowRow& w = mutable_row(static_cast<std::size_t>(flow.v));
  std::size_t s = w.find(stage);
  if (s == w.stages.size()) s = w.insert(stage);
  w.resize_stage(s, frames.size());
  StageSlot& st = w.stages[s];
  st.max = gmfnet::Time::zero();
  for (const gmfnet::Time t : frames) st.max = gmfnet::max(st.max, t);
  std::copy(frames.begin(), frames.end(), w.frames.begin() + st.first);
}

AnalysisContext::AnalysisContext(net::Network network)
    : net_(std::make_shared<const net::Network>(std::move(network))) {
  net_->validate();
  auto tables = std::make_shared<NetTables>();
  tables->circ.assign(net_->node_count(), gmfnet::Time::zero());
  for (const NodeId n : net_->nodes_of_kind(net::NodeKind::kSwitch)) {
    tables->circ[static_cast<std::size_t>(n.v)] = switchsim::circ_of(*net_, n);
  }
  const std::vector<net::LinkId> order = net_->link_ids_in_ref_order();
  tables->link_rank.resize(order.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    tables->link_rank[order[r]] = static_cast<std::uint32_t>(r);
  }
  net_tables_ = std::move(tables);
  link_slot_.assign(net_->link_count(), kNoSlot);
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
  d->link_ids.reserve(d->links.size());
  d->params.reserve(d->links.size());
  for (const LinkRef l : d->links) {
    d->link_ids.push_back(net_->link_id(l));
    d->params.emplace_back(d->flow, net_->linkspeed(l.src, l.dst));
  }
  d->demand.reserve(d->params.size());
  for (const gmf::FlowLinkParams& p : d->params) d->demand.emplace_back(p);

  derived_.push_back(std::move(d));
  stamp_.renew();

  // Route-based incremental update: only this flow's links are touched.
  for (const net::LinkId l : derived_.back()->link_ids) {
    used_link(l).flows.push_back(id);
  }
  return id;
}

AnalysisContext::LinkState& AnalysisContext::used_link(net::LinkId id) {
  std::uint32_t& slot = link_slot_[id];
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(link_states_.size());
    link_states_.emplace_back().id = id;
  }
  return link_states_[slot];
}

FlowId AnalysisContext::add_flow(gmf::Flow flow) {
  const FlowId id = append_flow_deferred(std::move(flow));
  for (const net::LinkId l : derived_.back()->link_ids) {
    recompute_link_aggregates(used_link(l));
  }
  return id;
}

void AnalysisContext::add_flows(std::vector<gmf::Flow> flows) {
  // Validate the whole batch up front: a validation failure must leave the
  // context untouched (matching add_flow's validate-before-mutate order),
  // not mid-batch with links whose aggregates were never recomputed.
  for (const gmf::Flow& f : flows) f.validate(*net_);
  derived_.reserve(derived_.size() + flows.size());
  std::vector<net::LinkId> touched;
  for (gmf::Flow& f : flows) {
    const FlowId id = append_flow_deferred(std::move(f));
    const auto& links = derived_[static_cast<std::size_t>(id.v)]->link_ids;
    touched.insert(touched.end(), links.begin(), links.end());
  }
  // One from-scratch aggregate pass per touched link, however many of the
  // appended flows crossed it.  The recompute sums in flow-id order, so the
  // final state matches the sequential add_flow path bit for bit.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const net::LinkId l : touched) recompute_link_aggregates(used_link(l));
}

FlowId AnalysisContext::adopt_flow(const AnalysisContext& from, FlowId src) {
  const FlowId id = adopt_flow_deferred(from, src);
  for (const net::LinkId l : derived_.back()->link_ids) {
    recompute_link_aggregates(used_link(l));
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
  // Share the immutable derived state verbatim (link ids included: both
  // contexts are over the same network).
  derived_.push_back(from.derived_[s]);
  stamp_.renew();
  for (const net::LinkId l : derived_.back()->link_ids) {
    used_link(l).flows.push_back(id);
  }
  return id;
}

void AnalysisContext::recompute_all_aggregates() {
  for (LinkState& state : link_states_) recompute_link_aggregates(state);
}

AnalysisContext AnalysisContext::empty_clone(const AnalysisContext& like) {
  AnalysisContext out;
  out.net_ = like.net_;
  out.net_tables_ = like.net_tables_;
  out.link_slot_.assign(like.link_slot_.size(), kNoSlot);
  return out;
}

void AnalysisContext::remove_flow(std::size_t index) {
  if (index >= derived_.size()) {
    throw std::out_of_range("remove_flow: no flow at this index");
  }
  const auto removed = static_cast<std::int32_t>(index);
  const std::shared_ptr<const FlowDerived> gone = derived_[index];

  derived_.erase(derived_.begin() + static_cast<std::ptrdiff_t>(index));
  stamp_.renew();

  // The removed flow leaves its route links, and every later flow's id
  // shifts down by one on each of its links.  A link's flows stay in
  // ascending id order throughout, so each later id is found by bisection.
  for (const net::LinkId l : gone->link_ids) {
    std::erase(used_link(l).flows, FlowId(removed));
  }
  for (std::size_t f = index; f < derived_.size(); ++f) {
    const FlowId old_id(static_cast<std::int32_t>(f + 1));
    for (const net::LinkId l : derived_[f]->link_ids) {
      std::vector<FlowId>& flows = used_link(l).flows;
      *std::lower_bound(flows.begin(), flows.end(), old_id) =
          FlowId(static_cast<std::int32_t>(f));
    }
  }
  // Only the removed flow's route links need their aggregates rebuilt.
  for (const net::LinkId l : gone->link_ids) {
    recompute_link_aggregates(used_link(l));
  }
}

void AnalysisContext::recompute_link_aggregates(LinkState& state) const {
  const net::Link& link = net_->links()[state.id];
  const gmfnet::Time c = circ(link.dst);
  const LinkRef ref(link.src, link.dst);
  state.utilization = 0.0;
  state.ingress_utilization = 0.0;
  for (const FlowId j : state.flows) {
    const gmf::FlowLinkParams& p = link_params(j, ref);
    state.utilization += p.utilization();
    state.ingress_utilization += static_cast<double>(p.nsum()) *
                                 static_cast<double>(c.ps()) /
                                 static_cast<double>(p.tsum().ps());
  }
}

const std::vector<FlowId>& AnalysisContext::flows_on_link(
    net::LinkId id) const {
  static const std::vector<FlowId> kEmpty;
  const LinkState* state = link_state(id);
  return state != nullptr ? state->flows : kEmpty;
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
  return net_tables_->circ[static_cast<std::size_t>(n.v)];
}

double AnalysisContext::link_utilization(LinkRef link) const {
  const LinkState* state = link_state(link_id(link));
  return state != nullptr ? state->utilization : 0.0;
}

double AnalysisContext::ingress_utilization(LinkRef link) const {
  const LinkState* state = link_state(link_id(link));
  return state != nullptr ? state->ingress_utilization : 0.0;
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

const std::vector<net::LinkId>& AnalysisContext::route_link_ids(
    FlowId i) const {
  return derived_[static_cast<std::size_t>(i.v)]->link_ids;
}

}  // namespace gmfnet::core
