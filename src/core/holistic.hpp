// Holistic analysis ("Putting it all together", §3.5): iterate the Figure-6
// algorithm over all flows, feeding each stage's response time back as the
// downstream generalized jitter, until the jitter map reaches a fixed point.
//
// Gauss-Seidel sweeps are link-ordered.  The unit of work is a (flow,
// stage) node: every frame of one pipeline stage of one flow.  Each stage is
// keyed by a directed link — a first-hop or egress stage by the link it
// transmits on, an ingress stage by its *incoming* link, because
// analyze_ingress only sees the flows arriving over that interface — so the
// nodes of a key read exactly the jitters that key's nodes write.  The key
// graph has an edge l_t -> l_{t+1} along every iterated route.  A Tarjan
// condensation splits it into strongly connected components, visited once
// each in topological order; each key contributes its link group, then its
// ingress group.  At each group a pass first writes the per-frame JSUMs
// that are due (Figure 6 lines 8/13/17; see below), then analyses only the
// nodes whose key changed since their last analysis; a skipped node keeps
// its stage results.  A component is iterated locally, pass after pass,
// until none of its nodes has a JSUM due; then control moves downstream.
//
// Why this reaches the least fixed point.  The sweep operator is monotone
// and the iteration climbs from below.  A node reads only its own key's
// jitters, and a JSUM only the flow's previous stage, so a component's
// inputs from outside it all come from upstream components, which are
// final before it starts: nothing downstream can make one of its JSUMs due
// again.  Iterated locally to quiescence, a component with final inputs
// reaches the least fixed point of its own restriction, which is where any
// fair (chaotic) order of the whole operator ends as well — the property
// equal-priority rings need, where the fixed point is not unique.  A
// single key is never cyclic (a route never repeats a link back to back),
// and inside it a link-group node's successor is the same key's ingress
// node, while an ingress node's successor lives in another component.  So
// on a feed-forward component (stars, trees) every key takes exactly one
// pass, with final inputs, and no pass confirms anything.  A cyclic
// component (flows that together go all the way round a ring) repeats
// passes over its own groups only; the acyclic spurs upstream and
// downstream of it are analysed once.  The per-stage rule itself (which
// hop analysis a stage runs, its JSUM, a frame's verdict) comes from
// end_to_end.hpp, shared with analyze_frame_end_to_end.  The plan is built
// on flat arrays: keys numbered by their links' rank in LinkRef order
// (AnalysisContext::link_rank), CSR successor lists, nodes counted into
// their groups, all in per-thread buffers reused by the next solve.
//
// The forward closure.  A solve plans only the keys reachable, in the key
// graph, from its root keys: for an unseeded solve every key, for a seeded
// one the changed links (see SolveRequest) and every route link of a flow
// without a seeded result.  A planned flow contributes its nodes from its
// first planned link on; the closure is closed forward, so they are a
// suffix of its route.  A key outside the closure has no changed link and
// no unseeded flow upstream of it, so nothing it reads moves in the solve:
// its nodes keep their seeded results and its flows are not finalized
// again.  The Tarjan condensation is still of every key, so the planned
// components keep the order and shape they have in the full graph (a
// component is reached whole or not at all).
//
// Change-driven JSUM writes.  Node (f, s)'s JSUM is the jitter at (f, s-1)
// plus that stage's response: a pure function of what node (f, s-1) holds,
// its jitter entries and its stage results (and at s = 0 the constant
// source jitter).  So step 1 recomputes it only when (f, s-1) was written
// with a changed entry or analysed (run or shared) since (f, s)'s last
// write.  An unseeded flow's nodes start due, so its first pass writes
// every JSUM; a seeded flow's nodes start not due, since SolveRequest's
// contract makes each seeded entry equal its previous stage's JSUM.  So a
// seeded solve recomputes only the unseeded flows' JSUMs and those behind
// a node that moved or was analysed.  The rule is exact: a skipped write
// would store the value already there, and set_jitter treats an equal
// write as a no-op (no change, no stale key, no new version).  A seeded
// flow's first planned node has its previous stage outside the plan, never
// written, so its entries must hold already (an assert checks it where
// asserts are on).  Inside a cyclic component the nodes behind a back edge
// come due in the next pass, because their previous stage is analysed
// after them; that is what keeps the component iterating.
// `IncrementalStats::jsum_writes` counts the per-frame JSUMs recomputed.
//
// Change-driven seeded solves.  A request may carry a seed: the flows'
// converged stage results from the previous fixed point, plus the links
// whose flow set changed since (see SolveRequest).  Seeded flows start
// with those results, and only the keys on changed links start stale; from
// there a key turns stale only when one of its JSUM entries moves.  A
// seeded node whose key never turns stale keeps its result.  That is
// exact: a stage analysis is a deterministic function of its key's jitter
// entries and of the flows on its link, and a key that saw neither change
// reads exactly the inputs its seeded result was computed from.  So a probe
// re-analyses the candidate, the nodes on its route links, and whatever
// lies downstream of a jitter the candidate moved; the rest of its
// component is kept verbatim, and only the closure is walked.
//
// A seed from below (the fixed point before flows were added) climbs to
// the least fixed point on any key graph.  A seed from above (the fixed
// point before flows were removed) descends, which reaches the least fixed
// point only where the fixed point is unique.  Outside the closure that
// always holds: the keys there form an upstream-closed part of the graph
// (whatever feeds them lies outside the closure too) whose inputs did not
// change, so the Kleene climb of the whole operator, restricted to them,
// is the climb of their own operator, the same before and after the
// change; the old least fixed point, restricted to them, is therefore
// still theirs, cyclic or not.  Inside the closure the descent is exact on
// an acyclic closure, where one pass per key computes every node from
// final inputs.  When the closure holds a cyclic component (an
// equal-priority ring may have several fixed points) the solve drops a
// seed from above, restarts every flow from its source jitters and plans
// every key, as an unseeded solve.
//
// A solve plans within its context only.  The engine gives each solve a
// context holding exactly one link-sharing component (a shard, or the
// shards a probe candidate touches plus the candidate), so nothing outside
// the component is ever planned, and every key a change can reach is.
//
// Shared hop results.  Besides its key's jitter entries and the flows on
// its link, which every node of a group visit reads alike, a stage
// analysis reads only this about the analysed flow: its FlowLinkParams on
// the link, its shift (its max jitter at the key), the frame, which hop
// analysis runs, and at an egress its priority (it selects hep, eq 2) and
// its own egress_feasible bit.  That last one is needed because eq (35)'s
// level load is a floating-point sum in an order that depends on the
// analysed flow, so two otherwise equal flows can round to either side of
// 1.0.  Nodes of one visit that agree on all of it get bit-identical
// results, so the sweep runs analyze_stage once per distinct key and
// copies the HopResult to the key's twins; on a hub of one call codec and
// one camera model, 339 per-frame hops become 45 analyses.  The interferer
// side agrees too: equal parameters give equal demand curves, so with an
// equal shift twins fall in one LinkLevel class (core/hop_level.hpp), and
// removing either twin from the link's flows (or, at an egress, from the
// flows of priority >= theirs) leaves the same class multiset.  Parameters
// match by content (FlowLinkParams::digest, then an exact compare), never
// by a hash alone.  The keys live in a per-thread open-addressed table
// that a group visit resets in O(1), so keying allocates nothing in the
// steady state.
//
// The per-node hop site.  A group visit's analyses write no jitter, so
// everything a node's stage analysis reads but the frame — its link,
// parameters, feasibility and level source — is resolved once per analysed
// node (stage_site, core/hop_level.hpp HopSite), and each frame runs only
// its HopTerms and the kernel.  The twin key takes its feasibility bit
// from the site; the level source is bound on the node's first frame that
// no twin serves.
//
// `HolisticResult::sweeps` is the most passes any component took: 1 on a
// feed-forward component, and a component outside the closure counts as
// one pass (a pass over it would change nothing).  `max_sweeps` caps the
// passes per component; once a hop diverges or a component reaches the
// cap, the solve is not converged and every remaining component gets one
// pass.
// `IncrementalStats::flow_analyses` counts, per flow with at least one node
// analysed (run or served from a twin), the passes up to the last one that
// analysed it (counted within its component; 1 on a feed-forward
// component), `results_kept` the seeded flows that finished with none, and
// `hops_run` / `hops_shared` the per-frame analyses run and copied.
//
// The test oracle is solve_jacobi: Jacobi sweeps, whole flows analysed
// serially against a frozen snapshot, unseeded.  It reaches the same fixed
// point by a path that shares nothing with the link-ordered plan.  There is
// no acceleration: a feed-forward component already settles in one pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "core/context.hpp"
#include "core/end_to_end.hpp"

namespace gmfnet::core {

struct HolisticOptions {
  HopOptions hop;                 ///< per-hop options (horizon, ablations)
  int max_sweeps = 64;            ///< cap on the passes per component
                                  ///< (solve_jacobi: on the sweeps)
};

struct HolisticResult {
  /// True when the jitter map reached a fixed point with every per-hop
  /// analysis converging.
  bool converged = false;
  /// True when `converged` and every frame of every flow meets its deadline
  /// — the admission controller's verdict.
  bool schedulable = false;
  /// Gauss-Seidel: the most passes any strongly connected component of the
  /// key graph took (1 on a feed-forward component or one outside the
  /// closure, 0 with no flows).
  /// solve_jacobi: sweeps executed, including the last, unchanged one.
  int sweeps = 0;
  std::vector<FlowResult> flows;  ///< per-flow results at the fixed point
  JitterMap jitters;              ///< the fixed-point jitter map

  /// Worst end-to-end bound of a flow (Time::max() if it diverged).
  [[nodiscard]] gmfnet::Time worst_response(FlowId i) const {
    return flows[static_cast<std::size_t>(i.v)].worst_response();
  }
};

/// Counters of one solve (engine instrumentation).
struct IncrementalStats {
  /// Gauss-Seidel: per flow with >= 1 (flow, stage) node analysed, the
  /// passes up to the last one that analysed it (see the header).
  std::size_t flow_analyses = 0;
  std::size_t sweeps = 0;         ///< HolisticResult::sweeps, summed
  std::size_t results_kept = 0;   ///< seeded flows that finished with no
                                  ///< node analysed
  /// Per-frame hop analyses of the link-ordered sweep: run, and served from
  /// an identical node's result in the same group visit (see the header).
  /// A node served a shared result still counts in flow_analyses.
  std::size_t hops_run = 0;
  std::size_t hops_shared = 0;
  /// Per-frame JSUMs the link-ordered sweep recomputed (step 1; see the
  /// header).
  std::size_t jsum_writes = 0;
};

/// One solve, described as a request.  This is the single solver entry
/// point: whole-set analyses and the engine's shard and probe solves are
/// the same request over a context, seeded or not, so every caller runs
/// the same sweep loop (solve_holistic); an unseeded solve is the closure
/// of every key.
struct SolveRequest {
  /// Seed map; null: JitterMap::initial(ctx).  Borrowed: it must outlive
  /// the call and not be mutated while the solve reads it; the solve copies
  /// it on entry (copy-on-write, one pointer per flow).  Sound whenever it
  /// lies at or below the least fixed point of the sweep operator, e.g. the
  /// converged map of the same flow set minus some flows (interference
  /// only grew, so the solve climbs to the same least fixed point in far
  /// fewer passes).  A map from above needs `seed_above`.
  const JitterMap* start = nullptr;
  /// Seed results, indexed by flow id: a flow whose entry is non-null and
  /// has frames starts with these stage results instead of none (flows
  /// past the end start with none).  Contract, in practice met by the
  /// finalized converged results that come with `start`'s converged
  /// entries, from the world before the flows on `changed_links` were
  /// added or removed:
  ///   - each seeded stage result is what the stage analysis computes from
  ///     `start`'s entries on the context's flow sets, except on
  ///     `changed_links`;
  ///   - each seeded flow's entry in `start` at a stage equals that
  ///     stage's JSUM, computed from its previous stage's entry and
  ///     seeded result (the source jitter at stage 0), so its JSUMs start
  ///     not due;
  ///   - each seeded result is finalized (finalize_frame): a flow outside
  ///     the closure is returned as seeded.
  /// An unseeded flow may ride any link; its route links are roots of the
  /// closure.  Null: no seed, every key is planned and every node analysed
  /// at least once.  Borrowed; must outlive the call.
  const std::vector<const FlowResult*>* seed = nullptr;
  /// The links whose flow set changed since the seed was computed (the
  /// route links of added and removed flows).  Their keys are roots of the
  /// closure and start stale; every other key starts clean and keeps its
  /// seeded results until one of its JSUM entries moves.  Required with a
  /// seed (std::logic_error otherwise).  Borrowed; must outlive the call.
  const std::set<LinkRef>* changed_links = nullptr;
  /// True when `start` and the seed come from *above* the least fixed
  /// point (flows were removed).  The descent is exact only on an acyclic
  /// closure; when the closure is cyclic the solve ignores the seed and
  /// restarts every flow from its source jitters.  False: they lie at or
  /// below it (flows were added), valid on any key graph.
  bool seed_above = false;
};

/// Runs the holistic fixed point described by `req` under `opts` over the
/// flows of `ctx` (the forward closure of the change when seeded; see the
/// header), and finalizes `schedulable` (converged and every flow meets its
/// deadlines).  Sweeps, flow analyses, kept seeded results, hop analyses
/// and JSUM writes are counted in `stats` when provided.
[[nodiscard]] HolisticResult solve_holistic(const AnalysisContext& ctx,
                                            const SolveRequest& req,
                                            const HolisticOptions& opts,
                                            IncrementalStats* stats = nullptr);

/// Convenience wrapper: an unseeded solve_holistic.
[[nodiscard]] HolisticResult analyze_holistic(const AnalysisContext& ctx,
                                              const HolisticOptions& opts = {});

/// The Jacobi oracle: unseeded sweeps from JitterMap::initial(ctx), each
/// analysing every flow whose inputs changed against the previous sweep's
/// map and adopting the results in flow order, until a sweep changes
/// nothing (converged) or a hop diverges or `opts.max_sweeps` is reached.
/// One sweep never confirms its own fixed point.  Serial; only
/// `stats->sweeps` is counted.
[[nodiscard]] HolisticResult solve_jacobi(const AnalysisContext& ctx,
                                          const HolisticOptions& opts = {},
                                          IncrementalStats* stats = nullptr);

}  // namespace gmfnet::core
