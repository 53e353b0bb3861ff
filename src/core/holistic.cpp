#include "core/holistic.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/hop_level.hpp"
#include "util/rng.hpp"

namespace gmfnet::core {

namespace {

/// For each flow, the ids of all other flows sharing at least one route
/// link with it — the exact read-set of its per-sweep analysis (every
/// interferer of every stage lives on one of the flow's route links).
std::vector<std::vector<FlowId>> link_neighbors(const AnalysisContext& ctx) {
  const std::size_t n = ctx.flow_count();
  std::vector<std::vector<FlowId>> out(n);
  for (std::size_t f = 0; f < n; ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    std::vector<FlowId>& nb = out[f];
    for (const LinkRef l : ctx.route_links(id)) {
      for (const FlowId j : ctx.flows_on_link(l)) {
        if (j != id) nb.push_back(j);
      }
    }
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }
  return out;
}

// Jacobi change tracking: re-analysing flow f is the identity whenever
// neither f's own entries nor any read-set neighbor's entries changed since
// f's previous analysis (the analysis is a deterministic function of exactly
// those entries), so a sweep skips flows whose inputs are clean and reuses
// their previous FlowResult verbatim.

/// True when `changed[f]` or any of f's neighbors' flags is set.
bool inputs_dirty(const std::vector<char>& changed,
                  const std::vector<std::vector<FlowId>>& neighbors,
                  std::size_t f) {
  if (changed[f]) return true;
  for (const FlowId j : neighbors[f]) {
    if (changed[static_cast<std::size_t>(j.v)]) return true;
  }
  return false;
}

/// One Jacobi sweep: every dirty-input flow analysed against a frozen
/// snapshot of `jitters`, its entries adopted back in flow order.
bool sweep_jacobi(const AnalysisContext& ctx, JitterMap& jitters,
                  const HopOptions& hop,
                  const std::vector<std::vector<FlowId>>& neighbors,
                  bool first_sweep, std::vector<char>& changed,
                  std::vector<FlowResult>& results) {
  const JitterMap snapshot = jitters;
  // All reads go against the previous sweep's flags (Jacobi semantics).
  const std::vector<char> changed_prev = changed;
  bool ok = true;
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    if (!first_sweep && !inputs_dirty(changed_prev, neighbors, f)) {
      changed[f] = 0;
      continue;
    }
    const FlowId id(static_cast<std::int32_t>(f));
    JitterMap local = snapshot;
    results[f] = analyze_flow_end_to_end(ctx, local, id, hop);
    changed[f] = local.flow_equals(snapshot, id) ? 0 : 1;
    jitters.adopt_flow(local, id);
    ok &= results[f].all_converged();
  }
  return ok;
}

/// Sets `r.schedulable`: converged, and every frame of every flow meets
/// its deadline.
void finalize_schedulable(HolisticResult& r) {
  r.schedulable =
      r.converged && std::all_of(r.flows.begin(), r.flows.end(),
                                 [](const FlowResult& fr) {
                                   return fr.schedulable();
                                 });
}

// ----------------------------------------------- link-ordered sweeps --

/// One (flow, stage) node of the link-ordered sweep: every frame of one
/// pipeline stage of one iterated flow.
struct SweepNode {
  FlowId flow;
  std::uint32_t stage = 0;  ///< index into ctx.stages(flow)
  /// The node's flag in SweepPlan::jsum_due; the flow's next stage, when
  /// there is one, has the flag after it.
  std::uint32_t due = 0;
  bool last = false;  ///< the flow's last stage
};

/// The nodes of one key.  A stage is keyed by its directed link L: a link
/// group holds the first-hop/egress stages on L, an ingress group the
/// ingress stages at L's destination of the flows arriving over L (the
/// ingress analysis only sees flows on its incoming interface).  Every
/// node of a group reads exactly the group's own stage jitters of flows on
/// L, so writing them all first and then analysing gives each node its
/// final inputs for the pass.
struct SweepGroup {
  StageKey key;
  LinkRef link;  ///< L
  std::uint32_t begin = 0;  ///< nodes [begin, end) of SweepPlan::nodes
  std::uint32_t end = 0;
  std::size_t frames = 0;  ///< per-frame hops of the nodes (an upper bound
                           ///< on one visit's analyses)
  /// Inputs changed since the nodes' last analysis: a written entry, or
  /// (before the first pass of a seeded solve) L's flow set.
  bool stale = true;
};

/// A flow with nodes in the plan: its nodes are the stages from `stage`
/// on, the first of them with flag `due`.
struct PlannedFlow {
  FlowId flow;
  std::uint32_t stage = 0;
  std::uint32_t due = 0;
};

/// The visiting order of one solve: the forward closure of its root keys.
struct SweepPlan {
  /// Grouped by strongly connected component of the key graph, components
  /// in topological order: component c holds groups [scc_end[c-1],
  /// scc_end[c]).
  std::vector<SweepGroup> groups;
  std::vector<std::uint32_t> scc_end;
  std::vector<SweepNode> nodes;  ///< grouped, each group in flow order
  std::vector<PlannedFlow> flows;  ///< in flow order
  /// Per node, flow-major (a flow's stages in route order): the node's
  /// JSUM must be recomputed.  Set when the flow's previous stage was
  /// written with a changed entry or analysed since the node's last write.
  std::vector<char> jsum_due;

  /// True when a node of groups [gb, ge) has its JSUM due.  A pass leaves
  /// no group stale, so a component is quiescent exactly when this is
  /// false after a pass over it.
  [[nodiscard]] bool due(std::size_t gb, std::size_t ge) const {
    for (std::uint32_t n = groups[gb].begin; n < groups[ge - 1].end; ++n) {
      if (jsum_due[nodes[n].due]) return true;
    }
    return false;
  }
};

/// Per-thread buffers of the key graph and the plan, reused across solves
/// so a plan allocates nothing in the steady state.  The plan lives here
/// too: a thread runs one solve at a time.
struct PlanScratch {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  static PlanScratch& local() {
    thread_local PlanScratch scratch;
    return scratch;
  }

  std::vector<std::uint32_t> key_of;  ///< by link id; kNone between solves
  std::vector<net::LinkId> keys;      ///< key -> link id, in LinkRef order
  std::vector<std::uint32_t> succ_begin;  ///< CSR successor lists by key
  std::vector<std::uint32_t> succ;
  std::vector<std::uint32_t> cursor;
  // Tarjan: preorder number (kNone: unvisited) and low link (kNone once
  // the key's component is emitted) per key, the key stack and the DFS
  // path as (key, next edge) frames.
  std::vector<std::uint32_t> num;
  std::vector<std::uint32_t> low;
  std::vector<std::uint32_t> stack;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> path;
  std::vector<std::uint32_t> at;        ///< visiting position -> key
  std::vector<std::uint32_t> scc_size;  ///< component sizes, in order
  std::vector<char> cyclic;   ///< by key: its component has several keys
  std::vector<char> reached;  ///< by key: in the forward closure
  std::vector<std::uint32_t> pos;  ///< closure key -> planned position
  std::vector<std::uint32_t> first;  ///< by flow: first planned route
                                     ///< link, kNone: no node planned
  SweepPlan plan;
};

/// Condenses the key graph (CSR in `ps`) with an iterative Tarjan.  It
/// emits components sinks first, each as the stack above its root, so
/// handing out visiting positions (ps.at) from the back lays the
/// components out in topological order, each one's keys in DFS preorder
/// from the first one reached.  ps.scc_size gets their sizes in that order.
void condense(PlanScratch& ps, std::uint32_t n) {
  constexpr std::uint32_t kNone = PlanScratch::kNone;
  ps.num.assign(n, kNone);
  ps.low.assign(n, kNone);
  ps.at.resize(n);
  ps.cyclic.resize(n);
  ps.scc_size.clear();
  std::uint32_t next = 0;
  std::uint32_t left = n;
  const auto enter = [&](std::uint32_t v) {
    ps.num[v] = ps.low[v] = next++;
    ps.stack.push_back(v);
    ps.path.emplace_back(v, ps.succ_begin[v]);
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (ps.num[root] != kNone) continue;
    enter(root);
    while (!ps.path.empty()) {
      const auto [v, e] = ps.path.back();
      if (e < ps.succ_begin[v + 1]) {
        ++ps.path.back().second;
        const std::uint32_t w = ps.succ[e];
        if (ps.num[w] == kNone) {
          enter(w);
        } else if (ps.low[w] != kNone) {  // on the stack
          ps.low[v] = std::min(ps.low[v], ps.num[w]);
        }
        continue;
      }
      ps.path.pop_back();
      if (!ps.path.empty()) {
        const std::uint32_t u = ps.path.back().first;
        ps.low[u] = std::min(ps.low[u], ps.low[v]);
      }
      if (ps.low[v] != ps.num[v]) continue;
      const std::uint32_t top = left;  // v roots a component
      std::uint32_t w;
      do {
        w = ps.stack.back();
        ps.stack.pop_back();
        ps.low[w] = kNone;
        ps.at[--left] = w;
      } while (w != v);
      // A route never repeats a link back to back, so no key has an edge
      // to itself: a component is cyclic exactly when it has two keys.
      for (std::uint32_t p = left; p < top; ++p) {
        ps.cyclic[ps.at[p]] = top - left > 1 ? 1 : 0;
      }
      ps.scc_size.push_back(top - left);
    }
  }
  std::reverse(ps.scc_size.begin(), ps.scc_size.end());
}

/// Builds the key graph of every route of `ctx` into `ps` and condenses
/// it.  Keys are the directed links of the routes, numbered in LinkRef
/// order (by link rank); the graph has an edge l_t -> l_{t+1} for
/// consecutive links of every route.  No key is reached yet.
PlanScratch& key_graph(const AnalysisContext& ctx) {
  constexpr std::uint32_t kNone = PlanScratch::kNone;
  PlanScratch& ps = PlanScratch::local();
  if (ps.key_of.size() < ctx.network().link_count()) {
    ps.key_of.resize(ctx.network().link_count(), kNone);
  }
  const std::size_t flows = ctx.flow_count();
  const auto route_of = [&](std::size_t f) -> const std::vector<net::LinkId>& {
    return ctx.route_link_ids(FlowId(static_cast<std::int32_t>(f)));
  };

  ps.keys.clear();
  for (std::size_t f = 0; f < flows; ++f) {
    for (const net::LinkId l : route_of(f)) {
      if (ps.key_of[l] != kNone) continue;
      ps.key_of[l] = 0;
      ps.keys.push_back(l);
    }
  }
  std::sort(ps.keys.begin(), ps.keys.end(),
            [&](net::LinkId a, net::LinkId b) {
              return ctx.link_rank(a) < ctx.link_rank(b);
            });
  const auto n = static_cast<std::uint32_t>(ps.keys.size());
  for (std::uint32_t v = 0; v < n; ++v) ps.key_of[ps.keys[v]] = v;

  // Successor lists in CSR form, one edge per consecutive route pair.
  ps.succ_begin.assign(n + 1, 0);
  for (std::size_t f = 0; f < flows; ++f) {
    const std::vector<net::LinkId>& route = route_of(f);
    for (std::size_t t = 0; t + 1 < route.size(); ++t) {
      ++ps.succ_begin[ps.key_of[route[t]] + 1];
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    ps.succ_begin[v + 1] += ps.succ_begin[v];
  }
  ps.succ.resize(ps.succ_begin[n]);
  ps.cursor.assign(ps.succ_begin.begin(), ps.succ_begin.end() - 1);
  for (std::size_t f = 0; f < flows; ++f) {
    const std::vector<net::LinkId>& route = route_of(f);
    for (std::size_t t = 0; t + 1 < route.size(); ++t) {
      ps.succ[ps.cursor[ps.key_of[route[t]]]++] = ps.key_of[route[t + 1]];
    }
  }

  condense(ps, n);
  ps.reached.assign(n, 0);
  return ps;
}

/// Marks key `v` reached and queues it (on ps.stack, which Tarjan leaves
/// empty) for close_forward.
void reach(PlanScratch& ps, std::uint32_t v) {
  if (ps.reached[v]) return;
  ps.reached[v] = 1;
  ps.stack.push_back(v);
}

/// Closes the reached keys forward: every key reachable from one queued by
/// reach() is reached too.  Returns true when the closure holds a cyclic
/// component.
bool close_forward(PlanScratch& ps) {
  bool cyclic = false;
  while (!ps.stack.empty()) {
    const std::uint32_t v = ps.stack.back();
    ps.stack.pop_back();
    cyclic |= ps.cyclic[v] != 0;
    for (std::uint32_t e = ps.succ_begin[v]; e < ps.succ_begin[v + 1]; ++e) {
      const std::uint32_t w = ps.succ[e];
      if (ps.reached[w]) continue;
      ps.reached[w] = 1;
      ps.stack.push_back(w);
    }
  }
  return cyclic;
}

/// The groups of the reached keys in visiting order: the components in
/// topological order (condense), each key contributing its link group,
/// then its ingress group.  A flow contributes its nodes from its first
/// reached route link on (the closure is closed forward, so every later
/// one is reached too).  So every node's upstream stages in other
/// components are final, or outside the plan, before it is first
/// analysed.  A flow flagged in `seeded` starts with its nodes' JSUMs not
/// due, every other flow with all of them due.
SweepPlan& lay_out(const AnalysisContext& ctx, PlanScratch& ps,
                   const std::vector<char>& seeded) {
  constexpr std::uint32_t kNone = PlanScratch::kNone;
  SweepPlan& plan = ps.plan;

  // Positions of the reached keys; a component is reached whole or not
  // at all (its keys reach each other).  scc_end holds the planned
  // components' sizes until the groups are placed.
  ps.pos.resize(ps.keys.size());
  plan.scc_end.clear();
  std::uint32_t placed = 0;
  std::uint32_t p = 0;
  for (const std::uint32_t size : ps.scc_size) {
    if (ps.reached[ps.at[p]]) {
      for (std::uint32_t q = p; q < p + size; ++q) ps.pos[ps.at[q]] = placed++;
      plan.scc_end.push_back(size);
    }
    p += size;
  }

  // Groups in visiting order (link group 2p, ingress group 2p + 1 for the
  // key at position p): count each group's nodes, then place the nodes
  // flow by flow, so every group lists its nodes in flow order.
  const auto link_group_of = [&](net::LinkId l) {
    return 2 * std::size_t{ps.pos[ps.key_of[l]]};
  };
  std::vector<SweepGroup>& groups = plan.groups;
  groups.assign(2 * std::size_t{placed}, SweepGroup{});
  for (std::uint32_t v = 0; v < ps.keys.size(); ++v) {
    if (!ps.reached[v]) continue;
    const net::Link& link = ctx.network().links()[ps.keys[v]];
    const LinkRef ref(link.src, link.dst);
    SweepGroup& link_group = groups[2 * std::size_t{ps.pos[v]}];
    SweepGroup& ingress_group = groups[2 * std::size_t{ps.pos[v]} + 1];
    link_group.key = StageKey::link(ref);
    ingress_group.key = StageKey::ingress(ref.dst);
    link_group.link = ingress_group.link = ref;
  }
  const std::size_t flows = ctx.flow_count();
  ps.first.assign(flows, kNone);
  ps.cursor.assign(groups.size() + 1, 0);
  for (std::size_t f = 0; f < flows; ++f) {
    const std::vector<net::LinkId>& route =
        ctx.route_link_ids(FlowId(static_cast<std::int32_t>(f)));
    std::size_t t = 0;
    while (t < route.size() && !ps.reached[ps.key_of[route[t]]]) ++t;
    if (t == route.size()) continue;
    ps.first[f] = static_cast<std::uint32_t>(t);
    for (; t < route.size(); ++t) {
      assert(ps.reached[ps.key_of[route[t]]]);
      ++ps.cursor[link_group_of(route[t]) + 1];
      if (t + 1 < route.size()) ++ps.cursor[link_group_of(route[t]) + 2];
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ps.cursor[g + 1] += ps.cursor[g];
    groups[g].begin = groups[g].end = ps.cursor[g];
  }
  plan.nodes.resize(ps.cursor[groups.size()]);
  plan.flows.clear();
  plan.jsum_due.clear();
  for (std::size_t f = 0; f < flows; ++f) {
    if (ps.first[f] == kNone) continue;
    const FlowId id(static_cast<std::int32_t>(f));
    const std::vector<net::LinkId>& route = ctx.route_link_ids(id);
    const std::size_t frames = ctx.flow(id).frame_count();
    const auto from = static_cast<std::uint32_t>(2 * ps.first[f]);
    const auto due = static_cast<std::uint32_t>(plan.jsum_due.size());
    plan.flows.push_back({id, from, due});
    for (std::size_t t = ps.first[f]; t < route.size(); ++t) {
      const auto stage = static_cast<std::uint32_t>(2 * t);
      const std::size_t g = link_group_of(route[t]);
      plan.nodes[groups[g].end++] = {id, stage, due + stage - from,
                                     t + 1 == route.size()};
      groups[g].frames += frames;
      if (t + 1 < route.size()) {
        plan.nodes[groups[g + 1].end++] = {id, stage + 1,
                                           due + stage + 1 - from, false};
        groups[g + 1].frames += frames;
      }
    }
    plan.jsum_due.resize(due + 2 * route.size() - 1 - from,
                         seeded[f] ? 0 : 1);
  }
  for (const net::LinkId l : ps.keys) ps.key_of[l] = kNone;

  // Drop the empty ingress groups (keys that end every route on them) and
  // note where each component's groups end.  A component's first link
  // group is never empty.
  std::size_t kept = 0;
  std::size_t g = 0;
  for (std::uint32_t& end : plan.scc_end) {
    for (const std::size_t ge = g + 2 * std::size_t{end}; g < ge; ++g) {
      if (groups[g].begin != groups[g].end) groups[kept++] = groups[g];
    }
    end = static_cast<std::uint32_t>(kept);
  }
  groups.resize(kept);
  return plan;
}

/// The converged hop result of the stage before `stage` in `frame`, or
/// null when that stage has not been analysed yet or diverged (the frame
/// cannot proceed to `stage`).
const HopResult* previous_hop(const FrameResult& frame, std::size_t stage) {
  if (frame.stages.size() < stage) return nullptr;
  const HopResult& prev = frame.stages[stage - 1].hop;
  return prev.converged ? &prev : nullptr;
}

/// True when every planned flow whose first node starts not due (a seeded
/// flow) holds that node's JSUMs already: its previous stage lies outside
/// the plan and is never written, so nothing else would write them.
[[maybe_unused]] bool seeded_jsums_hold(const AnalysisContext& ctx,
                                        const SweepPlan& plan,
                                        const JitterMap& jitters,
                                        const std::vector<FlowResult>& flows) {
  for (const PlannedFlow& pf : plan.flows) {
    if (plan.jsum_due[pf.due]) continue;
    const FlowResult& fr = flows[static_cast<std::size_t>(pf.flow.v)];
    const StageKey& key = ctx.stages(pf.flow)[pf.stage];
    for (std::size_t k = 0; k < fr.frames.size(); ++k) {
      const HopResult* prev = nullptr;
      if (pf.stage > 0) {
        prev = previous_hop(fr.frames[k], pf.stage);
        if (prev == nullptr) continue;
      }
      if (jitters.jitter(pf.flow, key, k) !=
          stage_jitter_sum(ctx, jitters, pf.flow, pf.stage, k, prev)) {
        return false;
      }
    }
  }
  return true;
}

// ------------------------------------------------- shared hop results --

/// What analyze_stage reads about the analysed flow of a node, less the
/// frame (see holistic.hpp); the rest of what it reads is the same for
/// every node of a group visit.
struct NodeKey {
  const gmf::FlowLinkParams* params = nullptr;  ///< compared by content
  gmfnet::Time shift;
  /// A link group may hold first-hop (stage 0) and egress nodes; route
  /// validation keeps them apart today, the key does not rely on it.
  HopKind kind = HopKind::kFirstHop;
  std::int64_t priority = 0;  ///< egress only, else 0
  /// The site's feasibility: at an egress the analysed flow's own bit, at
  /// the other hops the same for every node of the group.
  bool feasible = false;
  std::uint64_t hash = 0;
};

NodeKey node_key(const AnalysisContext& ctx, const JitterMap& jitters,
                 const SweepGroup& g, const HopSite& site) {
  NodeKey key;
  key.params = site.params;
  key.shift = jitters.max_jitter(site.flow, g.key);
  key.kind = site.kind;
  if (key.kind == HopKind::kEgress) {
    key.priority = ctx.flow(site.flow).priority();
  }
  key.feasible = site.feasible;
  key.hash = mix64(key.params->digest() ^
                   mix64(static_cast<std::uint64_t>(key.shift.ps()) ^
                         (static_cast<std::uint64_t>(key.priority) << 2) ^
                         static_cast<std::uint64_t>(key.kind)));
  return key;
}

/// One analysed (node, frame) of a group visit and its result.
struct SharedHop {
  std::uint64_t visit = 0;  ///< the table's visit when claimed
  std::uint64_t hash = 0;
  std::size_t frame = 0;
  NodeKey key;
  HopResult hop;
};

/// Per-thread open-addressed table of one group visit's hop results.
/// Starting a visit forgets every entry in O(1) (a new visit id), and the
/// slots grow only when a group has more hops than any before it, so the
/// steady state allocates nothing.
class SharedHops {
 public:
  static SharedHops& local() {
    thread_local SharedHops table;
    return table;
  }

  /// Starts a visit of at most `hops` analyses.
  void begin(std::size_t hops) {
    ++visit_;
    if (slots_.size() < 2 * hops) {
      std::size_t cap = 16;
      while (cap < 2 * hops) cap *= 2;
      slots_.assign(cap, SharedHop{});
    }
  }

  /// The entry of this visit whose node is `key`'s twin at `frame`, or the
  /// free slot where (key, frame) goes (then holds() is false).
  SharedHop& find(const NodeKey& key, std::size_t frame) {
    const std::uint64_t hash = hash_of(key, frame);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix64(hash) & mask;; i = (i + 1) & mask) {
      SharedHop& e = slots_[i];
      if (e.visit != visit_ ||
          (e.hash == hash && e.frame == frame && twins(e.key, key))) {
        return e;
      }
    }
  }

  [[nodiscard]] bool holds(const SharedHop& e) const {
    return e.visit == visit_;
  }
  /// Fills the free slot `e` (from find) with (key, frame)'s result.
  void claim(SharedHop& e, const NodeKey& key, std::size_t frame,
             const HopResult& hop) {
    e.visit = visit_;
    e.hash = hash_of(key, frame);
    e.frame = frame;
    e.key = key;
    e.hop = hop;
  }

 private:
  static std::uint64_t hash_of(const NodeKey& key, std::size_t frame) {
    return key.hash + frame * 0x9E3779B97F4A7C15ull;
  }

  static bool twins(const NodeKey& a, const NodeKey& b) {
    return a.shift == b.shift && a.kind == b.kind &&
           a.priority == b.priority && a.feasible == b.feasible &&
           (a.params == b.params || a.params->same_content(*b.params));
  }

  std::vector<SharedHop> slots_;
  std::uint64_t visit_ = 0;
};

struct PassOutcome {
  bool diverged = false;  ///< some frame's hop analysis diverged
  std::size_t hops_run = 0;     ///< per-frame analyze_stage calls
  std::size_t hops_shared = 0;  ///< per-frame results copied from a twin
  std::size_t jsum_writes = 0;  ///< per-frame JSUMs recomputed
};

/// One link-ordered Gauss-Seidel pass over groups [gb, ge) (one
/// component).  At each group, step 1 writes the per-frame JSUM (Figure 6
/// lines 8/13/17: the jitter at the previous stage plus that stage's
/// response) of every node whose JSUM is due (see holistic.hpp); step 2
/// analyses the nodes when the group is stale, and any frame never
/// analysed at this stage.  A node resolves its hop site once, on its
/// first analysed frame, and binds its level source on its first frame
/// not served by a twin.  A skipped node keeps its (possibly seeded)
/// result in `flows`.  A frame whose hop diverges stops there.
/// `last_pass[f]` is raised to `pass` when a node of flow f is analysed.
PassOutcome pass_link_ordered(const AnalysisContext& ctx, SweepPlan& plan,
                              std::size_t gb, std::size_t ge,
                              JitterMap& jitters,
                              std::vector<FlowResult>& flows,
                              const HopOptions& opts,
                              std::vector<int>& last_pass, int pass) {
  PassOutcome out;
  SharedHops& shared = SharedHops::local();
  // The node after `nd` in its flow reads what `nd` writes.
  const auto next_due = [&](const SweepNode& nd) {
    if (!nd.last) plan.jsum_due[nd.due + 1] = 1;
  };
  for (std::size_t gi = gb; gi < ge; ++gi) {
    SweepGroup& g = plan.groups[gi];
    for (std::uint32_t n = g.begin; n < g.end; ++n) {
      const SweepNode& nd = plan.nodes[n];
      if (!plan.jsum_due[nd.due]) continue;
      plan.jsum_due[nd.due] = 0;
      const FlowResult& fr = flows[static_cast<std::size_t>(nd.flow.v)];
      bool moved = false;
      for (std::size_t k = 0; k < fr.frames.size(); ++k) {
        const HopResult* prev = nullptr;
        if (nd.stage > 0) {
          prev = previous_hop(fr.frames[k], nd.stage);
          if (prev == nullptr) continue;
        }
        const gmfnet::Time jsum =
            stage_jitter_sum(ctx, jitters, nd.flow, nd.stage, k, prev);
        ++out.jsum_writes;
        moved |= jitters.set_jitter(nd.flow, g.key, k, jsum);
      }
      if (moved) {
        g.stale = true;
        next_due(nd);
      }
    }

    shared.begin(g.frames);
    for (std::uint32_t n = g.begin; n < g.end; ++n) {
      const SweepNode& nd = plan.nodes[n];
      const auto f = static_cast<std::size_t>(nd.flow.v);
      FlowResult& fr = flows[f];
      HopSite site;  // resolved, with its key, on the first analysed frame
      NodeKey key;
      bool analysed = false;
      bool bound = false;
      for (std::size_t k = 0; k < fr.frames.size(); ++k) {
        FrameResult& fk = fr.frames[k];
        if (nd.stage > 0 && previous_hop(fk, nd.stage) == nullptr) continue;
        const bool had = fk.stages.size() > nd.stage;
        if (had && !g.stale) continue;
        if (!analysed) {
          site = stage_site(ctx, nd.flow, nd.stage);
          key = node_key(ctx, jitters, g, site);
        }
        SharedHop& e = shared.find(key, k);
        HopResult hop;
        if (shared.holds(e)) {
          hop = e.hop;
          ++out.hops_shared;
        } else {
          if (!bound && site.feasible) bind_level(ctx, jitters, site, opts);
          bound = true;
          hop = analyze_site(site, k, opts);
          ++out.hops_run;
          shared.claim(e, key, k, hop);
        }
        analysed = true;
        if (had) {
          fk.stages[nd.stage].hop = hop;
        } else {
          fk.stages.push_back(StageResponse{g.key, hop});
        }
        if (!hop.converged) {
          fk.stages.resize(nd.stage + 1);
          out.diverged = true;
        }
      }
      if (analysed) {
        next_due(nd);
        last_pass[f] = std::max(last_pass[f], pass);
      }
    }
    g.stale = false;
  }
  return out;
}

/// Derives every planned flow's frame verdicts from its stages.
void finalize_frames(const AnalysisContext& ctx, const SweepPlan& plan,
                     std::vector<FlowResult>& flows) {
  for (const PlannedFlow& pf : plan.flows) {
    FlowResult& fr = flows[static_cast<std::size_t>(pf.flow.v)];
    for (std::size_t k = 0; k < fr.frames.size(); ++k) {
      finalize_frame(ctx, pf.flow, k, fr.frames[k]);
    }
  }
}

}  // namespace

HolisticResult solve_holistic(const AnalysisContext& ctx,
                              const SolveRequest& req,
                              const HolisticOptions& opts,
                              IncrementalStats* stats) {
  if (req.seed != nullptr && req.changed_links == nullptr) {
    throw std::logic_error(
        "solve_holistic: a seeded request must name its changed links");
  }

  HolisticResult out;
  out.jitters = req.start != nullptr ? *req.start : JitterMap::initial(ctx);
  out.flows.resize(ctx.flow_count());

  // The seeded result each flow starts from, if any.
  const std::size_t n = ctx.flow_count();
  const auto seed_of = [&](std::size_t f) -> const FlowResult* {
    const FlowResult* s = f < req.seed->size() ? (*req.seed)[f] : nullptr;
    return s != nullptr && !s->frames.empty() ? s : nullptr;
  };

  // Plan the forward closure of the root keys: with a seed, the changed
  // links and every unseeded flow's route; without one, every key.  A
  // seed from above descends to the least fixed point only where the
  // closure's fixed point is unique (no cyclic component in it);
  // otherwise every flow climbs from its source jitters instead, and the
  // closure is every key.
  PlanScratch& ps = key_graph(ctx);
  std::vector<char> seeded(n, 0);
  bool use_seed = req.seed != nullptr;
  if (use_seed) {
    for (const LinkRef l : *req.changed_links) {
      const net::LinkId id = ctx.link_id(l);
      if (id != net::kNoLink && ps.key_of[id] != PlanScratch::kNone) {
        reach(ps, ps.key_of[id]);
      }
    }
    for (std::size_t f = 0; f < n; ++f) {
      seeded[f] = seed_of(f) != nullptr ? 1 : 0;
      if (seeded[f]) continue;
      for (const net::LinkId l :
           ctx.route_link_ids(FlowId(static_cast<std::int32_t>(f)))) {
        reach(ps, ps.key_of[l]);
      }
    }
    if (close_forward(ps) && req.seed_above) {
      use_seed = false;
      seeded.assign(n, 0);
    }
  }
  if (!use_seed) ps.reached.assign(ps.keys.size(), 1);
  SweepPlan& plan = lay_out(ctx, ps, seeded);

  if (req.seed_above && !use_seed) {
    for (std::size_t f = 0; f < n; ++f) {
      out.jitters.reset_to_source(ctx, FlowId(static_cast<std::int32_t>(f)));
    }
  }
  if (use_seed) {
    for (SweepGroup& g : plan.groups) {
      g.stale = req.changed_links->contains(g.link);
    }
  }
  for (std::size_t f = 0; f < n; ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    FlowResult& fr = out.flows[f];
    if (seeded[f]) {
      fr = *seed_of(f);
      continue;
    }
    fr.frames.resize(ctx.flow(id).frame_count());
    for (FrameResult& fk : fr.frames) fk.stages.reserve(ctx.stages(id).size());
  }
  assert(seeded_jsums_hold(ctx, plan, out.jitters, out.flows));
  std::vector<int> last_pass(n, -1);

  // Components in topological order, each iterated to quiescence: its
  // upstream is final, so nothing outside it can make one of its JSUMs due
  // again.  Once a hop diverges or a component reaches the pass cap, the
  // solve cannot converge and each remaining component gets one pass.  A
  // component outside the plan counts as one pass: its seed is final, and
  // a pass over it would change nothing.
  out.sweeps = n > 0 ? 1 : 0;
  bool stopped = false;
  std::size_t gb = 0;
  for (const std::uint32_t ge : plan.scc_end) {
    int passes = 0;
    for (;;) {
      const PassOutcome po =
          pass_link_ordered(ctx, plan, gb, ge, out.jitters, out.flows,
                            opts.hop, last_pass, passes++);
      if (stats != nullptr) {
        stats->hops_run += po.hops_run;
        stats->hops_shared += po.hops_shared;
        stats->jsum_writes += po.jsum_writes;
      }
      // Any per-hop divergence means the jitters would grow without bound:
      // not converged, so unschedulable.
      stopped |= po.diverged;
      if (stopped || !plan.due(gb, ge)) break;
      if (passes >= opts.max_sweeps) {
        stopped = true;
        break;
      }
    }
    out.sweeps = std::max(out.sweeps, passes);
    gb = ge;
  }
  out.converged = !stopped;
  finalize_frames(ctx, plan, out.flows);
  if (stats != nullptr) {
    stats->sweeps += static_cast<std::size_t>(out.sweeps);
    // Every unseeded flow has its source stage analysed in its first
    // component's first pass, so a flow never analysed kept its seed.
    for (const int p : last_pass) {
      if (p < 0) {
        ++stats->results_kept;
      } else {
        stats->flow_analyses += static_cast<std::size_t>(p) + 1;
      }
    }
  }
  finalize_schedulable(out);
  return out;
}

HolisticResult analyze_holistic(const AnalysisContext& ctx,
                                const HolisticOptions& opts) {
  return solve_holistic(ctx, {}, opts);
}

HolisticResult solve_jacobi(const AnalysisContext& ctx,
                            const HolisticOptions& opts,
                            IncrementalStats* stats) {
  HolisticResult out;
  out.jitters = JitterMap::initial(ctx);
  out.flows.resize(ctx.flow_count());
  const std::vector<std::vector<FlowId>> neighbors = link_neighbors(ctx);
  std::vector<char> changed(ctx.flow_count(), 1);
  for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    const bool ok = sweep_jacobi(ctx, out.jitters, opts.hop, neighbors,
                                 sweep == 0, changed, out.flows);
    out.sweeps = sweep + 1;
    if (stats != nullptr) ++stats->sweeps;
    if (!ok) break;  // a hop diverged: not converged
    if (std::none_of(changed.begin(), changed.end(),
                     [](char c) { return c != 0; })) {
      out.converged = true;
      break;
    }
  }
  finalize_schedulable(out);
  return out;
}

}  // namespace gmfnet::core
