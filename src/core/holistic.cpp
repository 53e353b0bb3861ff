#include "core/holistic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>

#include "util/fixed_point.hpp"
#include "util/thread_pool.hpp"

namespace gmfnet::core {

bool parse_solver_spec(std::string_view spec, SolverOptions& out) {
  if (spec == "plain") {
    out = SolverOptions{};
    return true;
  }
  SolverOptions so;
  so.mode = SolverMode::kAnderson;
  if (spec == "anderson") {
    out = so;
    return true;
  }
  constexpr std::string_view prefix = "anderson:";
  if (spec.size() == prefix.size() + 1 && spec.substr(0, prefix.size()) == prefix) {
    const char c = spec[prefix.size()];
    if (c >= '1' && c <= '8') {
      so.m = c - '0';
      out = so;
      return true;
    }
  }
  return false;
}

SolverOptions solver_options_from_env() {
  const char* env = std::getenv("GMFNET_SOLVER");
  if (env == nullptr || *env == '\0') return SolverOptions{};
  SolverOptions so;
  if (!parse_solver_spec(env, so)) {
    throw std::runtime_error(std::string("GMFNET_SOLVER: unknown solver spec '") +
                             env + "' (want plain | anderson | anderson:M)");
  }
  return so;
}

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

/// One Jacobi sweep: all dirty-input flows against a frozen snapshot, in
/// parallel; their jitters are merged back afterwards.  The pool is created
/// once per solve and reused across sweeps.
bool sweep_jacobi(const AnalysisContext& ctx, JitterMap& jitters,
                  const HopOptions& hop,
                  const std::vector<std::vector<FlowId>>& neighbors,
                  bool first_sweep, std::vector<char>& changed,
                  std::vector<FlowResult>& results, ThreadPool& pool) {
  const JitterMap snapshot = jitters;
  const std::size_t n = ctx.flow_count();
  // All reads go against the previous sweep's flags (Jacobi semantics).
  const std::vector<char> changed_prev = changed;
  std::vector<char> analyzed(n, 0);
  std::vector<JitterMap> locals(n);

  pool.parallel_for(n, [&](std::size_t f) {
    if (!first_sweep && !inputs_dirty(changed_prev, neighbors, f)) {
      changed[f] = 0;
      return;
    }
    const FlowId id(static_cast<std::int32_t>(f));
    locals[f] = snapshot;
    results[f] = analyze_flow_end_to_end(ctx, locals[f], id, hop);
    changed[f] = locals[f].flow_equals(snapshot, id) ? 0 : 1;
    analyzed[f] = 1;
  });

  JitterMap merged = snapshot;
  bool ok = true;
  for (std::size_t f = 0; f < n; ++f) {
    if (!analyzed[f]) continue;
    merged.adopt_flow(locals[f], FlowId(static_cast<std::int32_t>(f)));
    ok &= results[f].all_converged();
  }
  jitters = std::move(merged);
  return ok;
}

// ------------------------------------------------- Anderson sweep driver --

/// The kAnderson strategy: observes the Gauss-Seidel iterate sequence
/// between sweeps, proposes clamped Anderson(m) extrapolations, and owns
/// the speculate/accept/rollback safeguard state.  The solve loop consults
/// it in exactly three places: record the pre-sweep iterate, judge a
/// speculative sweep, and ask for a proposal after a plain sweep.
///
/// The flattened iterate vector enumerates, for every dirty flow in
/// ascending id order, every (stage, frame) entry of that flow — exactly
/// the set of entries a sweep writes for the flow.  Injection therefore
/// never creates an entry the very next sweep would not itself create,
/// which keeps the converged map's entry *structure* (JitterMap equality is
/// structural) identical to the plain iteration's.
class AndersonDriver {
 public:
  AndersonDriver(const AnalysisContext& ctx, const std::vector<FlowId>& dirty,
                 const SolverOptions& so)
      : ctx_(ctx), dirty_(dirty), so_(so), mixer_(so.m) {
    for (const FlowId id : dirty_) {
      slot_count_ +=
          ctx_.stages(id).size() * ctx_.flow(id).frame_count();
    }
  }

  /// False once acceleration is disabled (too many rejections) or there is
  /// nothing to accelerate; the solve loop stops paying the flatten cost.
  [[nodiscard]] bool active() const {
    return !disabled_ && slot_count_ > 0;
  }
  [[nodiscard]] bool speculating() const { return speculating_; }

  /// Records the pre-sweep iterate x_k (no-op while speculating: the
  /// injected proposal is already recorded).  Keeps the previous record as
  /// x_{k-1} so the proposal clamp can measure two consecutive plain steps.
  void note_pre_sweep(const JitterMap& m) {
    if (!active() || speculating_) return;
    prev3_.swap(prev2_);
    prev2_.swap(pre_);
    flatten(m, pre_);
    ++steps_seen_;
  }

  /// After a *plain* sweep produced `g`: feed the (x, G(x)) pair to the
  /// mixer and, when the cadence allows, return true with `inject` holding
  /// the clamped accelerated iterate to adopt (and the pre-injection map
  /// saved for rollback).  `sweeps_done` is the count including this sweep.
  bool propose_after_plain(const JitterMap& g, int sweeps_done,
                           JitterMap& inject) {
    if (!active()) return false;
    std::vector<double> cur;
    flatten(g, cur);
    if (just_judged_) {
      // The sweep that just ran was the acceptance check: its (y, z) pair
      // is already in the history (judge recorded it).
      just_judged_ = false;
    } else {
      mixer_.push(pre_, cur);
    }

    if (sweeps_done < so_.warmup_sweeps ||
        sweeps_done - last_inject_sweep_ <= so_.plain_between ||
        steps_seen_ < 4 || prev3_.size() != slot_count_) {
      return false;
    }
    std::vector<double> y = mixer_.propose();
    if (y.empty()) return false;

    // Clamp to the monotone extrapolation cone: never below the plain
    // iterate g (the sweep already certified it), and per entry never more
    // than the smaller of
    //   * cap steps beyond g (step = the entry's last plain increment; an
    //     entry the last sweep left unchanged is never perturbed), and
    //   * beta times the entry's Aitken remaining-distance estimate
    //     step * r / (1 - r), with the contraction ratio r taken as the
    //     MINIMUM over the last three consecutive plain steps (and clamped
    //     below 1).  A sustained geometric ratchet keeps r high and the
    //     bound generous; a one-off staircase burst (one big step between
    //     small ones) yields a small minimum ratio and a correspondingly
    //     timid bound.  The minimum-ratio tail under-estimates the distance
    //     still to climb, so clipped proposals stay below the least fixed
    //     point instead of jumping into the self-confirming territory of a
    //     larger fixed point of a near-critical interference cycle.
    // The extrapolation length is further scaled by alpha_: the adaptive
    // factor backs off geometrically on every safeguard rejection (the
    // map's staircase nonsmoothness makes full Anderson jumps overshoot
    // pre-asymptotically) and regrows on acceptance.  `gain` scales the
    // whole permitted raise (the > 1 test hook that forces the rejection
    // path).  Flooring keeps the integer iterate biased toward
    // under-approximation.
    constexpr double kAitkenBeta = 0.9;
    constexpr double kRatioMax = 0.95;
    injected_.resize(slot_count_);
    bool any = false;
    for (std::size_t i = 0; i < slot_count_; ++i) {
      const double gi = cur[i];
      const double s2 = gi - pre_[i];
      const double s1 = pre_[i] - prev2_[i];
      const double s0 = prev2_[i] - prev3_[i];
      double allowed = 0.0;
      if (s2 > 0.0 && s1 > 0.0 && s0 > 0.0) {
        const double r = std::min({s1 / s0, s2 / s1, kRatioMax});
        const double remaining = s2 * r / (1.0 - r);
        allowed = so_.gain * std::min(so_.cap * s2, kAitkenBeta * remaining);
      }
      double raise = alpha_ * (y[i] - gi);
      if (raise < 0.0) raise = 0.0;
      if (raise > allowed) raise = allowed;
      const auto v = static_cast<std::int64_t>(std::floor(gi + raise));
      const auto gv = static_cast<std::int64_t>(gi);
      injected_[i] = v < gv ? gv : v;
      any |= injected_[i] != gv;
    }
    if (!any) return false;

    // Build the injected map as a copy-on-write delta over g: only slots
    // that actually moved are written, so untouched flows stay shared.
    rollback_ = g;
    inject = g;
    std::size_t i = 0;
    for (const FlowId id : dirty_) {
      const std::vector<StageKey>& stages = ctx_.stages(id);
      const std::size_t frames = ctx_.flow(id).frame_count();
      for (const StageKey& s : stages) {
        for (std::size_t k = 0; k < frames; ++k, ++i) {
          const auto gv =
              static_cast<std::int64_t>(cur[i]);
          if (injected_[i] != gv) {
            inject.set_jitter(id, s, k, gmfnet::Time(injected_[i]));
          }
        }
      }
    }
    speculating_ = true;
    last_inject_sweep_ = sweeps_done;
    return true;
  }

  /// Judges the sweep that followed an injection: z = G(y) accepts y iff it
  /// did not decrease any slot (y was still a valid under-approximation of
  /// the fixed point the sweep is climbing to) AND advanced at least one
  /// slot.  The strict-advance requirement is what keeps the least fixed
  /// point exact: z == y means the speculation landed exactly on *a* fixed
  /// point of the sweep operator, and a speculative landing cannot certify
  /// that it is the least one — only a plain climb can.  Rejecting it rolls
  /// back to the certified map; if y really was the least fixed point the
  /// plain continuation re-reaches it in a couple of sweeps.  On acceptance
  /// the (y, z) pair extends the mixer history; on rejection the caller
  /// rolls back to rollback_map() and the speculative history is dropped.
  bool judge(const JitterMap& z, bool diverged) {
    speculating_ = false;
    steps_seen_ = 0;  // the plain-step sequence is broken either way
    if (diverged) return reject();
    std::vector<double> zf;
    flatten(z, zf);
    bool advanced = false;
    for (std::size_t i = 0; i < slot_count_; ++i) {
      const auto zi = static_cast<std::int64_t>(zf[i]);
      if (zi < injected_[i]) return reject();
      advanced |= zi != injected_[i];
    }
    if (!advanced) return reject();
    // Feed the accepted application G(y) = z to the history.
    std::vector<double> yf(slot_count_);
    for (std::size_t i = 0; i < slot_count_; ++i) {
      yf[i] = static_cast<double>(injected_[i]);
    }
    mixer_.push(std::move(yf), std::move(zf));
    rollback_ = JitterMap();
    just_judged_ = true;
    alpha_ = std::min(1.0, alpha_ * 2.0);
    return true;
  }

  /// The certified pre-injection map a rejected speculation restores.
  [[nodiscard]] JitterMap take_rollback() { return std::move(rollback_); }

 private:
  bool reject() {
    mixer_.reset();
    just_judged_ = false;
    alpha_ *= 0.25;
    if (++rejects_ >= so_.max_rejects) disabled_ = true;
    return false;
  }

  void flatten(const JitterMap& m, std::vector<double>& out) const {
    out.clear();
    out.reserve(slot_count_);
    for (const FlowId id : dirty_) {
      const std::vector<StageKey>& stages = ctx_.stages(id);
      const std::size_t frames = ctx_.flow(id).frame_count();
      for (const StageKey& s : stages) {
        for (std::size_t k = 0; k < frames; ++k) {
          out.push_back(static_cast<double>(m.jitter(id, s, k).ps()));
        }
      }
    }
  }

  const AnalysisContext& ctx_;
  const std::vector<FlowId>& dirty_;
  SolverOptions so_;
  AndersonMixer mixer_;
  std::size_t slot_count_ = 0;
  std::vector<double> pre_;            ///< flattened pre-sweep iterate x_k
  std::vector<double> prev2_;          ///< the iterate before pre_ (x_{k-1})
  std::vector<double> prev3_;          ///< the iterate before prev2_
  int steps_seen_ = 0;  ///< consecutive plain pre-sweep records; reset on
                        ///< every speculation so ratio measurements only
                        ///< ever span uninterrupted plain steps
  std::vector<std::int64_t> injected_; ///< last injected y, exact values
  JitterMap rollback_;                 ///< pre-injection map while speculating
  bool speculating_ = false;
  bool just_judged_ = false;  ///< last sweep was an accepted acceptance check
  double alpha_ = 1.0;        ///< adaptive extrapolation damping
  bool disabled_ = false;
  int rejects_ = 0;
  int last_inject_sweep_ = -1000000;
};

/// Whole-set Jacobi solve (kept separate: its sweeps are pool-parallel and
/// acceleration does not apply).  Bit-identical to the historical Jacobi
/// analyze_holistic.
HolisticResult solve_jacobi(const AnalysisContext& ctx,
                            const HolisticOptions& opts, HolisticResult out,
                            IncrementalStats* stats) {
  const std::vector<std::vector<FlowId>> neighbors = link_neighbors(ctx);
  std::vector<char> changed(ctx.flow_count(), 1);
  ThreadPool pool(opts.threads);

  for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    const bool ok = sweep_jacobi(ctx, out.jitters, opts.hop, neighbors,
                                 sweep == 0, changed, out.flows, pool);
    out.sweeps = sweep + 1;
    if (stats != nullptr) ++stats->sweeps;
    if (!ok) {
      out.converged = false;
      out.schedulable = false;
      return out;
    }
    if (std::none_of(changed.begin(), changed.end(),
                     [](char c) { return c != 0; })) {
      out.converged = true;
      break;
    }
  }
  if (!out.converged) {
    out.schedulable = false;
    return out;
  }
  out.schedulable = true;
  for (const FlowResult& fr : out.flows) {
    if (!fr.schedulable()) {
      out.schedulable = false;
      break;
    }
  }
  return out;
}

// True when the iterated interference graph over `iterated` has a directed
// cycle.  Edge j -> i when j can interfere with i (shared directed link,
// prio_j >= prio_i) AND j's jitter on that link is itself produced by the
// iteration (the link is not j's first hop — a flow's jitter at its source
// link is the constant source jitter).  On an acyclic graph the sweep
// operator is a DAG evaluation with a unique fixed point, which is what
// makes the Anderson certificate exact (see SolverOptions); near-critical
// cycles admit several fixed points, so the driver only engages on cycles
// when the caller opted in.  Clean flows' jitters are constants during a
// restricted solve, so only `iterated` flows carry edges.
bool interference_cyclic(const AnalysisContext& ctx,
                         const std::vector<FlowId>& iterated) {
  const std::size_t n = ctx.flow_count();
  std::vector<char> in_set(n, 0);
  for (const FlowId id : iterated) in_set[static_cast<std::size_t>(id.v)] = 1;

  // Adjacency j -> i, vertices indexed by flow id (non-iterated rows empty).
  std::vector<std::vector<std::size_t>> adj(n);
  for (const FlowId i : iterated) {
    const std::int64_t pi = ctx.flow(i).priority();
    for (const LinkRef l : ctx.route_links(i)) {
      for (const FlowId j : ctx.flows_on_link(l)) {
        if (j == i || !in_set[static_cast<std::size_t>(j.v)]) continue;
        if (ctx.flow(j).priority() < pi) continue;
        if (ctx.route_links(j).front() == l) continue;  // constant jitter
        adj[static_cast<std::size_t>(j.v)].push_back(
            static_cast<std::size_t>(i.v));
      }
    }
  }

  // Iterative three-color DFS.
  std::vector<char> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  for (const FlowId root : iterated) {
    const auto r = static_cast<std::size_t>(root.v);
    if (color[r] != 0) continue;
    color[r] = 1;
    stack.emplace_back(r, 0);
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next < adj[v].size()) {
        const std::size_t w = adj[v][next++];
        if (color[w] == 1) return true;
        if (color[w] == 0) {
          color[w] = 1;
          stack.emplace_back(w, 0);
        }
      } else {
        color[v] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}


// ----------------------------------------------- link-ordered sweeps --

/// One (flow, stage) node of the link-ordered sweep: every frame of one
/// pipeline stage of one iterated flow.
struct SweepNode {
  FlowId flow;
  std::size_t stage = 0;  ///< index into ctx.stages(flow)
  /// The flow's next stage lives in a group visited earlier in the sweep
  /// (cyclic key graph): a result here reaches that stage's jitter only in
  /// the next sweep.
  bool back_edge = false;
};

/// The nodes of one key.  A stage is keyed by its directed link L: a link
/// group holds the first-hop/egress stages on L, an ingress group the
/// ingress stages at L's destination of the flows arriving over L (the
/// ingress analysis only sees flows on its incoming interface).  Every
/// node of a group reads exactly the group's own stage jitters of flows on
/// L, so writing them all first and then analysing gives each node its
/// final inputs for the sweep.
struct SweepGroup {
  StageKey key;
  std::vector<SweepNode> nodes;
  bool stale = true;  ///< entries changed since the nodes' last analysis
};

/// The groups of `iterated` in visiting order.  Keys are ordered
/// topologically over the route-successor graph (edge l_t -> l_{t+1} for
/// consecutive links of an iterated route), lowest LinkRef first among the
/// ready keys; on a cycle the lowest remaining key is forced next.  Each
/// key contributes its link group, then its ingress group.  On a
/// feed-forward component every node's upstream stages are therefore
/// analysed before it in the same sweep.
std::vector<SweepGroup> link_ordered_groups(
    const AnalysisContext& ctx, const std::vector<FlowId>& iterated) {
  std::map<LinkRef, std::size_t> index;
  for (const FlowId id : iterated) {
    for (const LinkRef l : ctx.route_links(id)) index.emplace(l, 0);
  }
  std::vector<LinkRef> keys;
  keys.reserve(index.size());
  for (auto& [l, i] : index) {
    i = keys.size();
    keys.push_back(l);
  }
  const std::size_t n = keys.size();

  std::vector<std::vector<std::size_t>> route_keys;
  route_keys.reserve(iterated.size());
  std::vector<std::vector<std::size_t>> succ(n);
  std::vector<std::size_t> indegree(n, 0);
  for (const FlowId id : iterated) {
    std::vector<std::size_t>& rk = route_keys.emplace_back();
    for (const LinkRef l : ctx.route_links(id)) rk.push_back(index[l]);
    for (std::size_t t = 0; t + 1 < rk.size(); ++t) {
      succ[rk[t]].push_back(rk[t + 1]);
      ++indegree[rk[t + 1]];
    }
  }

  std::vector<std::size_t> pos(n, 0);
  std::vector<char> placed(n, 0);
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<>>
      ready;
  for (std::size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push(v);
  }
  std::size_t lowest = 0;
  for (std::size_t p = 0; p < n; ++p) {
    std::size_t v;
    if (!ready.empty()) {
      v = ready.top();
      ready.pop();
    } else {
      while (placed[lowest]) ++lowest;  // cycle: force the lowest key
      v = lowest;
    }
    placed[v] = 1;
    pos[v] = p;
    for (const std::size_t w : succ[v]) {
      if (!placed[w] && --indegree[w] == 0) ready.push(w);
    }
  }

  std::vector<SweepGroup> groups(2 * n);
  for (std::size_t v = 0; v < n; ++v) {
    groups[2 * pos[v]].key = StageKey::link(keys[v]);
    groups[2 * pos[v] + 1].key = StageKey::ingress(keys[v].dst);
  }
  for (std::size_t f = 0; f < iterated.size(); ++f) {
    const std::vector<std::size_t>& rk = route_keys[f];
    for (std::size_t t = 0; t < rk.size(); ++t) {
      groups[2 * pos[rk[t]]].nodes.push_back({iterated[f], 2 * t, false});
      if (t + 1 < rk.size()) {
        groups[2 * pos[rk[t]] + 1].nodes.push_back(
            {iterated[f], 2 * t + 1, pos[rk[t + 1]] < pos[rk[t]]});
      }
    }
  }
  std::erase_if(groups, [](const SweepGroup& g) { return g.nodes.empty(); });
  return groups;
}

/// The converged hop result of the stage before `stage` in `frame`, or
/// null when that stage has not been analysed yet or diverged (the frame
/// cannot proceed to `stage`).
const HopResult* previous_hop(const FrameResult& frame, std::size_t stage) {
  if (frame.stages.size() < stage) return nullptr;
  const HopResult& prev = frame.stages[stage - 1].hop;
  return prev.converged ? &prev : nullptr;
}

struct SweepOutcome {
  /// A jitter entry changed, or a back-edge node got its first result (its
  /// successor is written next sweep): not a fixed point yet.
  bool changed = false;
  bool diverged = false;  ///< some frame's hop analysis diverged
  std::size_t flows_analysed = 0;  ///< flows with >= 1 node analysed
};

/// One link-ordered Gauss-Seidel sweep.  At each group, step 1 writes every
/// node's per-frame JSUM (Figure 6 lines 8/13/17: the jitter at the
/// previous stage plus that stage's response); step 2 analyses the nodes
/// when a written entry changed since their last analysis, and any frame
/// never analysed at this stage.  A skipped node keeps its result in
/// `flows`.  A frame whose hop diverges stops there.  `counted[f]` holds
/// the last sweep flow f was counted in.
SweepOutcome sweep_link_ordered(const AnalysisContext& ctx,
                                std::vector<SweepGroup>& groups,
                                JitterMap& jitters,
                                std::vector<FlowResult>& flows,
                                const HopOptions& opts,
                                std::vector<int>& counted, int sweep) {
  SweepOutcome out;
  for (SweepGroup& g : groups) {
    for (const SweepNode& nd : g.nodes) {
      const FlowResult& fr = flows[static_cast<std::size_t>(nd.flow.v)];
      for (std::size_t k = 0; k < fr.frames.size(); ++k) {
        const HopResult* prev = nullptr;
        if (nd.stage > 0) {
          prev = previous_hop(fr.frames[k], nd.stage);
          if (prev == nullptr) continue;
        }
        const gmfnet::Time jsum =
            stage_jitter_sum(ctx, jitters, nd.flow, nd.stage, k, prev);
        if (jitters.set_jitter(nd.flow, g.key, k, jsum)) {
          g.stale = true;
          out.changed = true;
        }
      }
    }

    for (const SweepNode& nd : g.nodes) {
      const auto f = static_cast<std::size_t>(nd.flow.v);
      FlowResult& fr = flows[f];
      bool analysed = false;
      for (std::size_t k = 0; k < fr.frames.size(); ++k) {
        FrameResult& fk = fr.frames[k];
        if (nd.stage > 0 && previous_hop(fk, nd.stage) == nullptr) continue;
        const bool had = fk.stages.size() > nd.stage;
        if (had && !g.stale) continue;
        const HopResult hop =
            analyze_stage(ctx, jitters, nd.flow, nd.stage, k, opts);
        analysed = true;
        if (had) {
          fk.stages[nd.stage].hop = hop;
        } else {
          // A first result on a back edge: the next stage, visited earlier
          // in the sweep, has not been analysed against it yet.  (A moved
          // result needs no flag: re-analysis implies a jitter changed.)
          out.changed |= nd.back_edge;
          fk.stages.push_back(StageResponse{g.key, hop});
        }
        if (!hop.converged) {
          fk.stages.resize(nd.stage + 1);
          out.diverged = true;
        }
      }
      if (analysed && counted[f] != sweep) {
        counted[f] = sweep;
        ++out.flows_analysed;
      }
    }
    g.stale = false;
  }
  return out;
}

/// Derives every iterated frame's end-to-end verdict from its stages.
void finalize_frames(const AnalysisContext& ctx,
                     const std::vector<FlowId>& iterated,
                     std::vector<FlowResult>& flows) {
  for (const FlowId id : iterated) {
    FlowResult& fr = flows[static_cast<std::size_t>(id.v)];
    for (std::size_t k = 0; k < fr.frames.size(); ++k) {
      finalize_frame(ctx, id, k, fr.frames[k]);
    }
  }
}

}  // namespace

HolisticResult solve_holistic(const AnalysisContext& ctx,
                              const SolveRequest& req,
                              const HolisticOptions& opts,
                              IncrementalStats* stats) {
  const bool whole_set = req.dirty == nullptr;
  if (!whole_set && !req.start.engaged()) {
    throw std::logic_error(
        "solve_holistic: a restricted request needs an engaged warm start "
        "(clean flows' fixed points cannot be conjured from nothing)");
  }

  HolisticResult out;
  out.jitters =
      req.start.engaged() ? req.start.map() : JitterMap::initial(ctx);
  out.flows.resize(ctx.flow_count());

  if (whole_set && opts.order == SweepOrder::kJacobi) {
    return solve_jacobi(ctx, opts, std::move(out), stats);
  }

  // The iterated (dirty) flows, ascending.
  std::vector<FlowId> dirty_ids;
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    if (whole_set || (f < req.dirty->size() && (*req.dirty)[f])) {
      dirty_ids.push_back(FlowId(static_cast<std::int32_t>(f)));
    }
  }
  std::vector<SweepGroup> groups = link_ordered_groups(ctx, dirty_ids);
  for (const FlowId id : dirty_ids) {
    FlowResult& fr = out.flows[static_cast<std::size_t>(id.v)];
    fr.frames.resize(ctx.flow(id).frame_count());
    for (FrameResult& fk : fr.frames) fk.stages.reserve(ctx.stages(id).size());
  }
  std::vector<int> counted(ctx.flow_count(), -1);

  std::unique_ptr<AndersonDriver> driver;
  if (opts.solver.mode == SolverMode::kAnderson && !dirty_ids.empty() &&
      (opts.solver.accept_cyclic || !interference_cyclic(ctx, dirty_ids))) {
    driver = std::make_unique<AndersonDriver>(ctx, dirty_ids, opts.solver);
  }
  // Stage results matching the driver's rollback map while speculating.
  std::vector<FlowResult> rollback_flows;

  for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    if (driver) driver->note_pre_sweep(out.jitters);
    const SweepOutcome so = sweep_link_ordered(ctx, groups, out.jitters,
                                               out.flows, opts.hop, counted,
                                               sweep);
    out.sweeps = sweep + 1;
    if (stats != nullptr) {
      ++stats->sweeps;
      stats->flow_analyses += so.flows_analysed;
    }

    if (driver && driver->speculating()) {
      // This sweep was the acceptance check z = G(y) for an injected
      // accelerated iterate.  A divergent or decreasing z rejects y: the
      // solve restores the certified pre-injection map together with the
      // stage results computed against it, so no speculative result ever
      // reaches a JSUM.
      if (driver->judge(out.jitters, so.diverged)) {
        rollback_flows.clear();
        if (stats != nullptr) ++stats->accel_accepted;
      } else {
        out.jitters = driver->take_rollback();
        out.flows = std::move(rollback_flows);
        rollback_flows.clear();
        if (stats != nullptr) ++stats->accel_rejected;
        continue;
      }
    } else if (so.diverged) {
      // Any per-hop divergence of the plain iteration means the jitters
      // would grow without bound: report unschedulable.
      finalize_frames(ctx, dirty_ids, out.flows);
      out.converged = false;
      out.schedulable = false;
      return out;
    }

    if (!so.changed) {
      out.converged = true;
      break;
    }

    if (driver && sweep + 1 < opts.max_sweeps) {
      JitterMap inject;
      if (driver->propose_after_plain(out.jitters, sweep + 1, inject)) {
        // Adopt the speculative iterate; the next sweep re-analyses every
        // node against it and judges it.
        rollback_flows = out.flows;
        out.jitters = std::move(inject);
        for (SweepGroup& g : groups) g.stale = true;
      }
    }
  }
  finalize_frames(ctx, dirty_ids, out.flows);

  if (!out.converged) {
    // Sweep cap reached without a fixed point: treat as unschedulable (the
    // monotone jitters were still growing).
    out.schedulable = false;
    return out;
  }

  if (whole_set) {
    out.schedulable = true;
    for (const FlowResult& fr : out.flows) {
      if (!fr.schedulable()) {
        out.schedulable = false;
        break;
      }
    }
  }
  // Restricted solves leave schedulable false: the caller adopts its cached
  // FlowResults for the clean flows and finalizes the verdict over the
  // complete vector.
  return out;
}

HolisticResult analyze_holistic(const AnalysisContext& ctx,
                                const HolisticOptions& opts) {
  SolveRequest req;
  req.start = opts.warm_start;
  return solve_holistic(ctx, req, opts);
}

}  // namespace gmfnet::core
