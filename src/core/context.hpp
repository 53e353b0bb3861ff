// AnalysisContext: the world the response-time analyses run against
// (network + flow set + all derived per-link parameters), and JitterMap:
// the mutable per-stage generalized-jitter state that the holistic
// iteration drives to a fixed point.
//
// The context is built *incrementally*: flows can be added and removed one
// at a time, and only the state derived from the touched flow's route links
// is (re)computed — untouched flows' parameter caches are never rebuilt.
// All heavy per-flow derived state (stage pipeline, FlowLinkParams,
// DemandCurves) is immutable once built and shared between copies, so
// copying a context is a cheap copy-on-write view: the admission engine
// fans what-if analyses over copies without recomputing anything.
//
// Concurrency contract (the snapshot what-if path leans on this): every
// const member function, the copy constructor, and adopt_flow *reading its
// source* are safe to call from any number of threads concurrently, as long
// as no thread mutates the object being read.  The shared derived state
// (FlowDerived, network, CIRC table) is immutable after construction and
// reference-counted with atomic counts, so concurrent copies and
// cross-context adoption never race.  Mutations (add_flow / remove_flow)
// require exclusive access to the mutated context only — they never write
// through the shared state.  The same contract holds for JitterMap: const
// reads and copies are concurrency-safe, writes are copy-on-write against
// any state shared with other maps (a shared per-flow row is cloned before
// the first write), so concurrent readers holding snapshots never observe
// a writer's mutation.
//
// Per-link state is addressed by the network's dense link ids
// (net::Network::link_id): each flow's derived state carries its route's
// link ids, and the per-link flow lists and aggregates are reached through
// a table with one slot per network link, so the sweep bookkeeping
// (core/holistic.cpp) and the per-hop tables (core/hop_level.hpp) index
// arrays instead of searching maps.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gmf/demand.hpp"
#include "gmf/flow.hpp"
#include "gmf/link_params.hpp"
#include "net/network.hpp"
#include "util/time.hpp"

namespace gmfnet::core {

using net::FlowId;
using net::LinkRef;
using net::NodeId;

/// A "stage" of a flow's pipeline in the Figure-6 algorithm: either a link
/// traversal (first hop or switch egress) or the ingress processing inside a
/// switch.  GJ_i^k,link(N1,N2) is keyed by a kLink stage, GJ_i^k,in(N) by a
/// kIngress stage.
struct StageKey {
  enum class Kind : std::uint8_t { kLink, kIngress };

  Kind kind = Kind::kLink;
  NodeId a;  ///< link source / ingress node
  NodeId b;  ///< link destination; invalid for kIngress

  static StageKey link(NodeId src, NodeId dst) {
    return StageKey{Kind::kLink, src, dst};
  }
  static StageKey link(LinkRef l) { return link(l.src, l.dst); }
  static StageKey ingress(NodeId n) { return StageKey{Kind::kIngress, n, {}}; }

  [[nodiscard]] bool is_link() const { return kind == Kind::kLink; }
  [[nodiscard]] LinkRef as_link() const { return LinkRef(a, b); }

  auto operator<=>(const StageKey&) const = default;
};

class AnalysisContext;

/// A fresh process-unique id (never 0).  Shared by every content version
/// and stamp below, so no two ever collide.
[[nodiscard]] std::uint64_t next_content_uid();

/// Whole-value content stamp of a JitterMap or AnalysisContext: copies
/// share it (their content is equal) and every mutation renews it, so equal
/// stamps prove equal content, with nothing kept alive to rule out address
/// reuse.  0 is reserved for the empty value: default construction and a
/// moved-from value (whose containers are empty) read 0.  The hop-level
/// link tables (core/hop_level.hpp) use this to revalidate in O(1) while
/// nothing changed.
class ContentStamp {
 public:
  ContentStamp() = default;
  ContentStamp(const ContentStamp&) = default;
  ContentStamp& operator=(const ContentStamp&) = default;
  ContentStamp(ContentStamp&& other) noexcept
      : v_(std::exchange(other.v_, 0)) {}
  ContentStamp& operator=(ContentStamp&& other) noexcept {
    v_ = std::exchange(other.v_, 0);
    return *this;
  }

  void renew() { v_ = next_content_uid(); }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Per-flow, per-stage, per-frame generalized jitter — the quantity the
/// holistic analysis iterates on.  Missing entries read as zero (the
/// holistic initial assumption for non-source stages).
///
/// Storage: each flow's entries are one flat row — its stages sorted by
/// StageKey, each with its frame count and cached maximum, and all their
/// frames in one buffer in stage order.  A lookup scans the row's packed
/// keys (a flow has a handful of stages, one per pipeline stage it
/// crossed); nothing is hashed or tree-searched.  Absent and zero entries
/// stay distinct: a stage or frame never written is absent from the row,
/// and stage_entries() lists exactly what was written, in StageKey order.
///
/// Rows are copy-on-write: copying a JitterMap shares them, and a write
/// clones only the written flow's row (two flat vectors, however many
/// stages it holds).  Snapshots (Jacobi sweeps, the engine's convergence
/// checks and warm starts) therefore cost one pointer per untouched flow.
/// A shared row is never written in place, so threads reading their own
/// copies never race a writer cloning the rows they share (see the
/// file comment).  Equality compares values, not sharing.
class JitterMap {
 public:
  JitterMap() = default;

  /// Holistic initial state: every flow's first-link stage carries the
  /// source-specified GJ_i^k; all downstream stages are absent (zero).
  static JitterMap initial(const AnalysisContext& ctx);

  /// GJ for one frame at one stage (zero when never set).
  [[nodiscard]] gmfnet::Time jitter(FlowId flow, const StageKey& stage,
                                    std::size_t frame) const;

  /// extra_j of the paper: max over frames of the stage jitter.
  [[nodiscard]] gmfnet::Time max_jitter(FlowId flow,
                                        const StageKey& stage) const;

  /// Writes one entry; returns true when the map changed (a new entry, or
  /// a different value).  Writing the value already stored leaves the map
  /// untouched — in particular a shared per-flow map is not cloned.
  bool set_jitter(FlowId flow, const StageKey& stage, std::size_t frame,
                  gmfnet::Time value);

  /// Replaces this map's entries for `flow` with those of `other` (used by
  /// the Jacobi sweep to adopt a flow's results computed against a frozen
  /// snapshot).
  void adopt_flow(const JitterMap& other, FlowId flow);

  /// Cross-id adoption: replaces this map's entries for `to` with `other`'s
  /// entries for `from`.  Used by the incremental engine to carry a flow's
  /// converged jitters across flow-id shifts caused by removals.
  void adopt_flow(const JitterMap& other, FlowId from, FlowId to);

  /// Drops `flow`'s entries and shifts every higher flow id down by one —
  /// the jitter-map counterpart of erasing a flow from the context.
  void erase_flow(FlowId flow);

  /// Clears `flow`'s entries (they read as zero again) without shifting ids.
  void clear_flow(FlowId flow);

  /// Resets `flow` to its holistic initial state (see initial()): the
  /// source stage carries the source-specified jitters, downstream stages
  /// are absent.
  void reset_to_source(const AnalysisContext& ctx, FlowId flow);

  /// True when this map's and `other`'s entries for `flow` are identical.
  /// Lets the incremental engine detect convergence by comparing only the
  /// flows a sweep may have changed, instead of the whole map.
  [[nodiscard]] bool flow_equals(const JitterMap& other, FlowId flow) const;

  /// Content version of `flow`'s entries: a process-unique id, shared by
  /// every map holding the same copy-on-write state and replaced by every
  /// write that changes the entries (0 = no entries).  Equal versions
  /// therefore prove equal entries, with no state kept alive to rule out
  /// address reuse.  The hop-level link tables (core/hop_level.hpp) use
  /// this to revalidate a gathered table in O(1) per interferer, with zero
  /// map lookups.
  [[nodiscard]] std::uint64_t flow_version(FlowId flow) const;

  /// Content stamp of the whole map (see ContentStamp): equal stamps prove
  /// every flow's entries equal.
  [[nodiscard]] std::uint64_t stamp() const { return stamp_.value(); }

  bool operator==(const JitterMap& other) const;

  // -- serialization accessors (io/checkpoint) ------------------------------
  // A JitterMap is value-equal to another iff the per-flow per-stage frame
  // vectors match, so a checkpoint needs exactly: the slot count, which
  // slots hold entries, and each slot's (stage -> frames) pairs in stage
  // order.  The cached per-stage maximum is derived state and is rebuilt on
  // restore.

  /// Number of per-flow slots (>= every flow id ever written or adopted).
  [[nodiscard]] std::size_t flow_slots() const { return per_flow_.size(); }
  /// True when `flow` holds an entry state (false reads as all-zero).
  [[nodiscard]] bool has_entries(FlowId flow) const;
  /// One flow's complete entry state: (stage, per-frame jitters) pairs in
  /// stage order.  Empty when the slot is absent.
  using StageEntries =
      std::vector<std::pair<StageKey, std::vector<gmfnet::Time>>>;
  [[nodiscard]] StageEntries stage_entries(FlowId flow) const;
  /// Pre-sizes the slot vector to exactly `n` absent slots (restore path;
  /// slot count participates in operator==).
  void resize_slots(std::size_t n);
  /// Installs a complete per-frame vector for one stage of `flow`,
  /// recomputing the cached maximum — the bulk restore counterpart of
  /// set_jitter.
  void set_stage_frames(FlowId flow, const StageKey& stage,
                        std::vector<gmfnet::Time> frames);

 private:
  /// One stage of a flow's row.  The key is packed for the lookup scan:
  /// `ab` holds both node ids (order-preserving, so (kind, ab) sorts like
  /// StageKey) and a hit needs one word compare plus the kind.  The
  /// stage's frames sit at [first, first + count) of the row's frame
  /// buffer.  `max`, the frame maximum, is maintained incrementally:
  /// max_jitter (extra_j) is read k times per hop analysis per fixed-point
  /// chain, so it must not rescan the frames.
  struct StageSlot {
    std::uint64_t ab = 0;
    gmfnet::Time max = gmfnet::Time::zero();
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    StageKey::Kind kind = StageKey::Kind::kLink;
  };

  /// One flow's entries: its stages sorted by StageKey, their frames back
  /// to back in stage order (no gaps), and the content version (see
  /// flow_version).  A copy-on-write clone copies the two flat vectors.
  struct FlowRow {
    std::vector<StageSlot> stages;
    std::vector<gmfnet::Time> frames;
    std::uint64_t version = 0;

    /// Index of `key` in `stages`, or stages.size() when absent.
    [[nodiscard]] std::size_t find(const StageKey& key) const;
    /// Inserts `key` with no frames at its sorted position; returns it.
    std::size_t insert(const StageKey& key);
    /// Makes stage `s` hold exactly `n` frames: new frames read zero,
    /// later stages' frames move along.
    void resize_stage(std::size_t s, std::size_t n);
    /// Value equality: same stages, same frames (`max` is derived).
    [[nodiscard]] bool same_entries(const FlowRow& other) const;
  };

  /// Read view of one flow's row (null when absent).
  [[nodiscard]] const FlowRow* row(std::size_t f) const {
    return f < per_flow_.size() ? per_flow_[f].get() : nullptr;
  }
  /// Write access for a write that changes the entries: clones the flow's
  /// row iff it is shared (copy-on-write; the clone keeps the layout, so
  /// stage indices found before stay valid) and gives it a new version
  /// either way.
  [[nodiscard]] FlowRow& mutable_row(std::size_t f);

  /// per_flow_[flow.v] -> shared row (null reads as empty).
  std::vector<std::shared_ptr<FlowRow>> per_flow_;
  ContentStamp stamp_;
};

/// The analysis world.  Flow addition validates the flow and eagerly
/// precomputes, for every link of its route, the FlowLinkParams and
/// DemandCurve — so all analysis-time queries are read-only and safe to
/// issue from parallel solves.  Per-link aggregates (utilization
/// sums) are maintained incrementally: an add/remove touches only the links
/// of the affected flow's route.
class AnalysisContext {
 public:
  /// Empty world over `network`; flows are added incrementally.
  explicit AnalysisContext(net::Network network);
  /// Monolithic construction: equivalent to adding every flow in order.
  AnalysisContext(net::Network network, std::vector<gmf::Flow> flows);

  /// Validates `flow` (throws std::logic_error on malformed flows), derives
  /// its per-link parameter caches and appends it.  Only this flow's route
  /// links are touched; every other flow's derived state is untouched and
  /// stays shared with any copies of the context.
  FlowId add_flow(gmf::Flow flow);

  /// Appends every flow of `flows` in order, equivalent to (and
  /// bit-identical with) repeated add_flow — but each touched link's
  /// aggregates are recomputed once after all appends instead of once per
  /// add, so bulk construction of an n-flow shared link costs O(n) aggregate
  /// work, not O(n^2).  The checkpoint warm-boot path and the monolithic
  /// constructor build contexts through this.
  void add_flows(std::vector<gmf::Flow> flows);

  /// Removes the flow at `index` (flow ids above it shift down by one).
  /// Only the per-link aggregates of the removed flow's route links are
  /// recomputed.  Throws std::out_of_range on a bad index.
  void remove_flow(std::size_t index);

  /// Appends flow `src` of `from` by *adopting* its immutable derived state
  /// (parameters, demand curves, stages) — no validation, no curve
  /// rebuilding; only this context's per-link aggregates are updated.  The
  /// engine's shard/snapshot layer uses this to assemble domain- and
  /// probe-contexts from committed state in O(route links) per flow.
  /// `from` must be over the same network.  Equivalent to
  /// add_flow(from.flow(src)) but O(curves) cheaper, bit-identically.
  FlowId adopt_flow(const AnalysisContext& from, FlowId src);

  /// adopt_flow minus the aggregate recomputation: shares the derived state
  /// and registers the flow on its route links; the caller owns calling
  /// recompute_all_aggregates() (or recomputing the touched links) before
  /// any query runs.  Bulk assembly of an n-flow shared link through this +
  /// one recompute costs O(n) aggregate work instead of O(n^2), with a
  /// final state bit-identical to repeated adopt_flow (the recompute sums
  /// from scratch in flow-id order either way).
  FlowId adopt_flow_deferred(const AnalysisContext& from, FlowId src);

  /// Recomputes every link's aggregates from scratch — the bulk closing
  /// bracket of a adopt_flow_deferred sequence.
  void recompute_all_aggregates();

  /// An empty context sharing `like`'s network and CIRC table: skips
  /// network re-validation and CIRC recomputation, so building a per-domain
  /// context costs only the per-flow adoption.
  [[nodiscard]] static AnalysisContext empty_clone(const AnalysisContext& like);

  [[nodiscard]] const net::Network& network() const { return *net_; }
  [[nodiscard]] std::size_t flow_count() const { return derived_.size(); }
  [[nodiscard]] const gmf::Flow& flow(FlowId id) const {
    return derived_[static_cast<std::size_t>(id.v)]->flow;
  }

  /// The network's dense id of `link` (net::kNoLink when it has none).
  [[nodiscard]] net::LinkId link_id(LinkRef link) const {
    return net_->link_id(link);
  }
  /// Position of link `id` in LinkRef order (source, then destination):
  /// comparing ranks compares the links.  Computed once per network.
  [[nodiscard]] std::uint32_t link_rank(net::LinkId id) const {
    return net_tables_->link_rank[id];
  }

  /// flows(N1,N2): ids of flows whose route uses the directed link, in
  /// ascending id order.
  [[nodiscard]] const std::vector<FlowId>& flows_on_link(LinkRef link) const {
    return flows_on_link(link_id(link));
  }
  /// The same by dense link id (empty for net::kNoLink).
  [[nodiscard]] const std::vector<FlowId>& flows_on_link(net::LinkId id) const;

  /// Calls `fn(id)` once for every link that carries a flow of this
  /// context (in first-use order): O(links used), no route walk.
  template <typename Fn>
  void for_each_used_link(Fn&& fn) const {
    for (const LinkState& state : link_states_) {
      if (!state.flows.empty()) fn(state.id);
    }
  }

  /// hep(τ_i, N1, N2), eq (2): other flows on the link with priority >= τ_i.
  [[nodiscard]] std::vector<FlowId> hep(FlowId i, LinkRef link) const;
  /// lp(τ_i, N1, N2), eq (3): other flows on the link with lower priority.
  [[nodiscard]] std::vector<FlowId> lp(FlowId i, LinkRef link) const;

  /// Allocation-free hep traversal: calls `fn(j)` for every flow of
  /// hep(τ_i, link), in link order — the single definition of eq (2)'s
  /// filter for the hot paths that must not build an id vector.
  template <typename Fn>
  void for_each_hep(FlowId i, LinkRef link, Fn&& fn) const {
    const std::int64_t pi = flow(i).priority();
    for (const FlowId j : flows_on_link(link)) {
      if (j != i && flow(j).priority() >= pi) fn(j);
    }
  }

  /// Basic parameters of flow `i` on `link` (must be a link of its route).
  [[nodiscard]] const gmf::FlowLinkParams& link_params(FlowId i,
                                                       LinkRef link) const;
  /// Request-bound curve of flow `i` on `link`.
  [[nodiscard]] const gmf::DemandCurve& demand(FlowId i, LinkRef link) const;

  /// CIRC(N) of a switch node (precomputed).
  [[nodiscard]] gmfnet::Time circ(NodeId n) const;

  /// Sum over flows on `link` of CSUM/TSUM — the left side of eq (20).
  /// Maintained incrementally; one link-id lookup per query.
  [[nodiscard]] double link_utilization(LinkRef link) const;
  /// Ingress-task load on the FIFO of `link`: sum of NSUM*CIRC(dst)/TSUM.
  [[nodiscard]] double ingress_utilization(LinkRef link) const;
  /// Egress load of eq (34)/(35) for flow i: hep flows plus i itself.
  [[nodiscard]] double egress_level_utilization(FlowId i, LinkRef link) const;

  /// Content stamp (see ContentStamp): renewed by every add/adopt/remove,
  /// so equal stamps prove the same flows, with the same shared derived
  /// state (hence the same DemandCurve objects), on every link.
  [[nodiscard]] std::uint64_t stamp() const { return stamp_.value(); }

  /// The ordered pipeline stages of flow `i` per Figure 6: first link, then
  /// (ingress, egress-link) per intermediate switch.
  [[nodiscard]] const std::vector<StageKey>& stages(FlowId i) const;

  /// The route links of flow `i`, in traversal order (cached).
  [[nodiscard]] const std::vector<LinkRef>& route_links(FlowId i) const;
  /// The dense ids of route_links(i), in the same order (cached).
  [[nodiscard]] const std::vector<net::LinkId>& route_link_ids(
      FlowId i) const;

 private:
  /// One flow plus everything derived from it alone (given the network):
  /// immutable once built, shared between context copies — copying a
  /// context costs one pointer per untouched flow.
  struct FlowDerived {
    gmf::Flow flow;
    std::vector<StageKey> stages;
    std::vector<LinkRef> links;               ///< route links, in order
    std::vector<net::LinkId> link_ids;        ///< parallel to `links`
    std::vector<gmf::FlowLinkParams> params;  ///< parallel to `links`
    std::vector<gmf::DemandCurve> demand;     ///< parallel to `links`
  };

  /// Per-link mutable state: the flows crossing the link plus the
  /// incrementally maintained utilization aggregates.
  struct LinkState {
    net::LinkId id = net::kNoLink;
    std::vector<FlowId> flows;
    double utilization = 0.0;          ///< sum of CSUM/TSUM
    double ingress_utilization = 0.0;  ///< sum of NSUM*CIRC(dst)/TSUM
  };

  /// Uninitialized shell for empty_clone (no network yet).
  AnalysisContext() = default;

  [[nodiscard]] const FlowDerived& derived(FlowId i, const char* what) const;
  /// Network-static tables, computed once per network and shared by every
  /// context over it.
  struct NetTables {
    std::vector<gmfnet::Time> circ;  ///< CIRC by node id (zero off switches)
    std::vector<std::uint32_t> link_rank;  ///< see link_rank()
  };

  /// Link `id`'s state (null when no flow of this context ever used it).
  [[nodiscard]] const LinkState* link_state(net::LinkId id) const {
    return id < link_slot_.size() && link_slot_[id] != kNoSlot
               ? &link_states_[link_slot_[id]]
               : nullptr;
  }
  /// Link `id`'s state for writing, created empty on first use.
  LinkState& used_link(net::LinkId id);
  /// Recomputes `state`'s aggregates from scratch, summing in flow-id
  /// order (bit-identical to a monolithic rebuild).
  void recompute_link_aggregates(LinkState& state) const;
  /// add_flow minus the aggregate recomputation: validates, derives and
  /// appends `flow`, registering it on its route links.  The caller owns
  /// recomputing the touched links' aggregates before any query runs.
  FlowId append_flow_deferred(gmf::Flow flow);

  std::shared_ptr<const net::Network> net_;
  std::shared_ptr<const NetTables> net_tables_;
  std::vector<std::shared_ptr<const FlowDerived>> derived_;
  /// Per-link state, reached by dense link id: link_slot_ has one entry
  /// per network link (kNoSlot until a flow of this context uses it) and
  /// points into link_states_, which holds only the links used.  So a
  /// lookup is two array reads, and a shard or probe context over a large
  /// network costs one word per link, not one LinkState.  A link that
  /// loses its last flow keeps an empty state.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<std::uint32_t> link_slot_;
  std::vector<LinkState> link_states_;
  ContentStamp stamp_;
};

}  // namespace gmfnet::core
