// Tests of the holistic jitter fixed point (§3.5).
#include "core/holistic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/egress.hpp"
#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "io/scenario_io.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::core {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 10'000'000;

TEST(Holistic, LoneFlowConvergesInOnePass) {
  const auto star = net::make_star_network(4, kSpeed);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "a", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(20), gmfnet::Time::ms(20), 1000 * 8)};
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  // A path is feed-forward: each key is analysed once, with final inputs,
  // and nothing is confirmed.
  EXPECT_EQ(r.sweeps, 1);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_TRUE(r.flows[0].schedulable());
}

TEST(Holistic, Figure2ScenarioSchedulable) {
  const auto s = workload::make_figure2_scenario(kSpeed, true);
  const AnalysisContext ctx(s.network, s.flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    EXPECT_TRUE(r.flows[f].all_converged()) << "flow " << f;
  }
}

TEST(Holistic, GaussSeidelAndJacobiAgreeOnFixedPoint) {
  const auto s = workload::make_figure2_scenario(kSpeed, true);
  const AnalysisContext ctx(s.network, s.flows);
  const HolisticResult rg = analyze_holistic(ctx);
  const HolisticResult rj = solve_jacobi(ctx);
  ASSERT_TRUE(rg.converged);
  ASSERT_TRUE(rj.converged);
  // Same least fixed point -> identical jitters and response bounds.
  EXPECT_EQ(rg.jitters, rj.jitters);
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    for (std::size_t k = 0; k < ctx.flow(FlowId(static_cast<std::int32_t>(f)))
                                    .frame_count();
         ++k) {
      EXPECT_EQ(rg.flows[f].frames[k].response,
                rj.flows[f].frames[k].response)
          << "flow " << f << " frame " << k;
    }
  }
  // Jacobi may need more sweeps, never fewer.
  EXPECT_GE(rj.sweeps, rg.sweeps);
}

TEST(Holistic, BoundsAreMonotoneInLoad) {
  // Same flow, analysed alone vs. with cross traffic: the holistic bound
  // with competitors must dominate.
  const auto quiet = workload::make_figure2_scenario(kSpeed, false);
  const auto busy = workload::make_figure2_scenario(kSpeed, true);
  const HolisticResult rq =
      analyze_holistic(AnalysisContext(quiet.network, quiet.flows));
  const HolisticResult rb =
      analyze_holistic(AnalysisContext(busy.network, busy.flows));
  ASSERT_TRUE(rq.converged);
  ASSERT_TRUE(rb.converged);
  EXPECT_GT(rb.worst_response(FlowId(0)), rq.worst_response(FlowId(0)));
}

TEST(Holistic, JitterPropagatesDownstream) {
  const auto s = workload::make_figure2_scenario(kSpeed, false);
  const AnalysisContext ctx(s.network, s.flows);
  const HolisticResult r = analyze_holistic(ctx);
  ASSERT_TRUE(r.converged);
  const auto& stages = ctx.stages(FlowId(0));
  // Jitter strictly accumulates along the pipeline for every frame.
  for (std::size_t k = 0; k < 9; ++k) {
    gmfnet::Time prev = gmfnet::Time(-1);
    for (const StageKey& st : stages) {
      const gmfnet::Time j = r.jitters.jitter(FlowId(0), st, k);
      EXPECT_GT(j, prev);
      prev = j;
    }
  }
}

TEST(Holistic, UnschedulableOverloadReported) {
  const auto star = net::make_star_network(4, kSpeed);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "over", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(2), gmfnet::Time::ms(2), 15000 * 8)};
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.schedulable);
}

TEST(Holistic, DeadlineMissWithoutDivergence) {
  const auto star = net::make_star_network(4, kSpeed);
  // Feasible load but a deadline below the floor MFT+CIRC costs.
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "tight", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(20), gmfnet::Time::ms(1), 1000 * 8)};
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);       // analysis converges fine...
  EXPECT_FALSE(r.schedulable);    // ...but the deadline is missed
}

TEST(Holistic, WorstResponseAccessor) {
  const auto s = workload::make_figure2_scenario(kSpeed, false);
  const AnalysisContext ctx(s.network, s.flows);
  const HolisticResult r = analyze_holistic(ctx);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.worst_response(FlowId(0)), r.flows[0].worst_response());
  EXPECT_GT(r.worst_response(FlowId(0)), gmfnet::Time::zero());
}

TEST(Holistic, ManyIndependentFlowsStillOnePass) {
  // Flows that share nothing have no cross-jitter: the fixed point arrives
  // after one pass.
  const auto star = net::make_star_network(8, kSpeed);
  std::vector<gmf::Flow> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(gmf::make_sporadic_flow(
        "f" + std::to_string(i),
        net::Route({star.hosts[static_cast<std::size_t>(2 * i)], star.sw,
                    star.hosts[static_cast<std::size_t>(2 * i + 1)]}),
        gmfnet::Time::ms(20), gmfnet::Time::ms(20), 1000 * 8));
  }
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.sweeps, 1);
}

// ------------------------------------------------------------------------
// Order independence.  Gauss-Seidel visits (flow, stage) nodes by strongly
// connected component of the route-successor graph of directed links, in
// topological order, iterating a cyclic component locally; Jacobi analyses
// whole flows against a frozen snapshot.  Both climb from below to the
// least fixed point, so the jitter maps and every per-stage HopResult of
// the final analyses — response, busy period, instances, iterations — must
// agree exactly, whatever order the sweep visited the nodes in.

/// Verdicts, fixed points and every per-stage hop result agree.
void expect_same_results(const HolisticResult& a, const HolisticResult& b,
                         const std::string& where) {
  ASSERT_EQ(a.converged, b.converged) << where;
  ASSERT_EQ(a.schedulable, b.schedulable) << where;
  if (!a.converged) return;  // partial per-sweep state is not comparable
  EXPECT_TRUE(a.jitters == b.jitters) << where << ": fixed points differ";
  ASSERT_EQ(a.flows.size(), b.flows.size()) << where;
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    ASSERT_EQ(a.flows[f].frames.size(), b.flows[f].frames.size()) << where;
    for (std::size_t k = 0; k < a.flows[f].frames.size(); ++k) {
      const FrameResult& fa = a.flows[f].frames[k];
      const FrameResult& fb = b.flows[f].frames[k];
      const std::string at = where + ": flow " + std::to_string(f) +
                             " frame " + std::to_string(k);
      EXPECT_EQ(fa.response, fb.response) << at;
      EXPECT_EQ(fa.converged, fb.converged) << at;
      EXPECT_EQ(fa.meets_deadline, fb.meets_deadline) << at;
      ASSERT_EQ(fa.stages.size(), fb.stages.size()) << at;
      for (std::size_t s = 0; s < fa.stages.size(); ++s) {
        const HopResult& ha = fa.stages[s].hop;
        const HopResult& hb = fb.stages[s].hop;
        EXPECT_TRUE(fa.stages[s].stage == fb.stages[s].stage) << at;
        EXPECT_EQ(ha.response, hb.response) << at << " stage " << s;
        EXPECT_EQ(ha.converged, hb.converged) << at << " stage " << s;
        EXPECT_EQ(ha.busy_period, hb.busy_period) << at << " stage " << s;
        EXPECT_EQ(ha.instances, hb.instances) << at << " stage " << s;
        EXPECT_EQ(ha.iterations, hb.iterations) << at << " stage " << s;
      }
    }
  }
}

/// Link-ordered Gauss-Seidel vs Jacobi; returns the Gauss-Seidel result
/// (only converged results carry comparable per-stage state).
HolisticResult expect_order_independent(const AnalysisContext& ctx,
                                        const std::string& where,
                                        int max_sweeps = 64) {
  HolisticOptions opts;
  opts.max_sweeps = max_sweeps;
  HolisticResult rg = analyze_holistic(ctx, opts);
  expect_same_results(rg, solve_jacobi(ctx, opts), where);
  return rg;
}

std::vector<gmf::Flow> random_flows(const net::Network& net,
                                    const std::vector<net::NodeId>& hosts,
                                    std::uint64_t seed, bool equal_priorities) {
  Rng rng(0x0DE7'0DE7ull + seed * 0x9E3779B9ull);
  workload::TasksetParams params;
  params.num_flows = 4 + static_cast<int>(rng.next_below(9));  // 4..12
  // Up to well past saturation: some sets diverge and must agree on the
  // verdict too.
  params.total_utilization = rng.uniform(0.5, 3.0);
  params.deadline_factor_lo = 1.5;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(net, hosts, params, rng);
  EXPECT_TRUE(ts.has_value()) << "seed " << seed;
  if (!ts) return {};
  std::vector<gmf::Flow> flows = std::move(ts->flows);
  if (equal_priorities) {
    for (gmf::Flow& f : flows) f.set_priority(1);
  } else {
    core::assign_priorities(flows, core::PriorityScheme::kDeadlineMonotonic);
  }
  return flows;
}

TEST(HolisticOrder, RandomizedStarsMatchJacobi) {
  int converged = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const auto star = net::make_star_network(6 + static_cast<int>(seed % 3),
                                             100'000'000);
    const AnalysisContext ctx(
        star.net, random_flows(star.net, star.hosts, seed, seed % 4 == 3));
    const std::string where = "star seed " + std::to_string(seed);
    const HolisticResult r = expect_order_independent(ctx, where);
    if (!r.converged) continue;
    ++converged;
    // Feed-forward: every key is its own component, one pass each.
    EXPECT_EQ(r.sweeps, 1) << where;
  }
  EXPECT_GE(converged, 16) << "too few fixed points were compared";
}

TEST(HolisticOrder, RandomizedTreesMatchJacobi) {
  int converged = 0;
  for (const int depth : {3, 4}) {
    const auto tree = net::make_tree_network(depth, 2, 100'000'000);
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      for (const bool equal : {false, true}) {
        const AnalysisContext ctx(
            tree.net, random_flows(tree.net, tree.hosts, seed, equal));
        const std::string where =
            "depth " + std::to_string(depth) + " seed " +
            std::to_string(seed) +
            (equal ? " equal priorities" : " deadline-monotonic");
        const HolisticResult r = expect_order_independent(ctx, where);
        if (!r.converged) continue;
        ++converged;
        // Feed-forward: every key is its own component, one pass each.
        EXPECT_EQ(r.sweeps, 1) << where;
      }
    }
  }
  EXPECT_GE(converged, 32) << "too few fixed points were compared";
}

/// The near-critical ring of bench_holistic_convergence: six switches
/// X-Y-M-Z-W-N-X, host hA at X, hA2 at W, hB at Z and hB2 at Y.
struct RingWorld {
  net::Network net;
  net::NodeId X, Y, M, Z, W, N, hA, hA2, hB, hB2;
};

RingWorld make_ring() {
  RingWorld r;
  net::Network& netw = r.net;
  r.X = netw.add_switch("X");
  r.Y = netw.add_switch("Y");
  r.M = netw.add_switch("M");
  r.Z = netw.add_switch("Z");
  r.W = netw.add_switch("W");
  r.N = netw.add_switch("N");
  r.hA = netw.add_endhost("hA");
  r.hA2 = netw.add_endhost("hA2");
  r.hB = netw.add_endhost("hB");
  r.hB2 = netw.add_endhost("hB2");
  const ethernet::LinkSpeedBps sp = 100'000'000;
  netw.add_duplex_link(r.X, r.Y, sp);
  netw.add_duplex_link(r.Y, r.M, sp);
  netw.add_duplex_link(r.M, r.Z, sp);
  netw.add_duplex_link(r.Z, r.W, sp);
  netw.add_duplex_link(r.W, r.N, sp);
  netw.add_duplex_link(r.N, r.X, sp);
  netw.add_duplex_link(r.hA, r.X, sp);
  netw.add_duplex_link(r.W, r.hA2, sp);
  netw.add_duplex_link(r.hB, r.Z, sp);
  netw.add_duplex_link(r.Y, r.hB2, sp);
  netw.validate();
  return r;
}

gmf::FrameSpec ring_frame(std::int64_t sep_us, std::int64_t payload_bytes) {
  gmf::FrameSpec fs;
  fs.min_separation = gmfnet::Time::us(sep_us);
  fs.deadline = gmfnet::Time::ms(500);
  fs.jitter = gmfnet::Time::ms(2);
  fs.payload_bits = payload_bytes * 8;
  return fs;
}

/// The ring's two equal-priority flows: they cross X->Y and Z->W in
/// opposite route order, so the link successor graph has the cycle X->Y ->
/// Y->M -> M->Z -> Z->W -> W->N -> N->X -> X->Y.
std::vector<gmf::Flow> ring_flows(const RingWorld& r, std::int64_t sep_us) {
  const gmf::FrameSpec fs = ring_frame(sep_us, 1000);
  return {gmf::Flow("A", net::Route({r.hA, r.X, r.Y, r.M, r.Z, r.W, r.hA2}),
                    {fs}, 3),
          gmf::Flow("B", net::Route({r.hB, r.Z, r.W, r.N, r.X, r.Y, r.hB2}),
                    {fs}, 3)};
}

// The ring's six switch links form one cyclic component, iterated to
// quiescence; the host links upstream and downstream of it are analysed
// once, before and after it.
TEST(HolisticOrder, CyclicRingMatchesJacobi) {
  const RingWorld ring = make_ring();
  for (const std::int64_t sep_us : {400, 205}) {
    const std::vector<gmf::Flow> flows = ring_flows(ring, sep_us);
    const AnalysisContext ctx(ring.net, flows);
    IncrementalStats stats;
    const HolisticResult r =
        solve_holistic(ctx, SolveRequest{}, HolisticOptions{}, &stats);
    EXPECT_TRUE(r.converged) << sep_us;
    EXPECT_GT(r.sweeps, 2) << "a cyclic key graph needs repeated passes";
    EXPECT_EQ(r.sweeps, sep_us == 400 ? 3 : 37) << sep_us;
    // 22 one-frame nodes (11 stages per flow).  The first pass writes every
    // JSUM; later passes over the cycle rewrite only the nodes whose
    // previous stage moved or was re-analysed, starting with the stages
    // behind a back edge — never all 22 per pass.
    EXPECT_EQ(stats.jsum_writes, sep_us == 400 ? 45u : 521u) << sep_us;
    EXPECT_GT(stats.jsum_writes, 22u) << sep_us;
    EXPECT_LT(stats.jsum_writes, 22u * static_cast<std::size_t>(r.sweeps))
        << sep_us;
    expect_order_independent(ctx, "ring " + std::to_string(sep_us) + "us",
                             512);

    // Re-solved from its own fixed point, the first pass changes no
    // jitter, yet the stages behind a back edge of the cycle still need
    // their first analysis: the cycle must not stop before they have it.
    SolveRequest warm;
    warm.start = &r.jitters;
    const HolisticResult again = solve_holistic(ctx, warm, HolisticOptions{});
    expect_same_results(again, r, "ring re-solve " + std::to_string(sep_us));
  }
}

// An incremental what-if probe on a tree (a warm-started seeded solve over
// the candidate's component) lands on the from-scratch fixed point
// with the same per-stage hop results.
TEST(HolisticOrder, TreeProbeMatchesFromScratch) {
  const auto tree = net::make_tree_network(3, 2, 100'000'000);
  std::vector<gmf::Flow> flows = random_flows(tree.net, tree.hosts, 7, false);
  ASSERT_GE(flows.size(), 3u);
  const gmf::Flow candidate = flows.back();
  flows.pop_back();

  const HolisticOptions opts;
  engine::AnalysisEngine eng(tree.net, opts);
  for (const gmf::Flow& f : flows) eng.add_flow(f);
  ASSERT_TRUE(eng.evaluate().converged) << "the probe must warm-start";
  const engine::WhatIfResult probe = eng.what_if(candidate);

  flows.push_back(candidate);
  const HolisticResult cold =
      analyze_holistic(AnalysisContext(tree.net, flows), opts);
  expect_same_results(probe.result(), cold, "tree probe");
}

// ------------------------------------------------------------------------
// Seeded solves.  After an add or a removal, the engine re-solves the
// changed flow's component from the old fixed point's jitters *and* stage
// results, with only the keys on the changed links stale.  The seeded solve
// must match the same request without a seed and the cold Jacobi oracle,
// bit for bit — from below (an add) on any key graph, from above (a
// removal) where the key graph is acyclic, and by falling back to the
// source jitters where it is not.

/// One change to a converged world, described over the world after it.
struct Change {
  std::vector<gmf::Flow> flows;  ///< the world after the change
  JitterMap start;               ///< the old fixed point, new flow ids
  std::vector<FlowResult> old;   ///< old converged results, new flow ids
  std::set<LinkRef> changed;     ///< route links of the changed flow
  bool above = false;            ///< a removal: the old state is above
};

/// `candidate` joins the converged world `residents` (as the last flow).
/// Returns nullopt when the residents do not converge.
std::optional<Change> add_change(const net::Network& net,
                                 std::vector<gmf::Flow> residents,
                                 const gmf::Flow& candidate) {
  HolisticResult before = analyze_holistic(AnalysisContext(net, residents));
  if (!before.converged) return std::nullopt;
  Change c;
  c.flows = std::move(residents);
  c.flows.push_back(candidate);
  const AnalysisContext ctx(net, c.flows);
  const FlowId cand(static_cast<std::int32_t>(c.flows.size() - 1));
  c.start = std::move(before.jitters);
  c.start.reset_to_source(ctx, cand);
  c.old = std::move(before.flows);
  for (const LinkRef l : ctx.route_links(cand)) c.changed.insert(l);
  return c;
}

/// Flow `idx` leaves the converged world `flows`.  Returns nullopt when the
/// world does not converge.
std::optional<Change> remove_change(const net::Network& net,
                                    std::vector<gmf::Flow> flows,
                                    std::size_t idx) {
  const AnalysisContext full(net, flows);
  HolisticResult before = analyze_holistic(full);
  if (!before.converged) return std::nullopt;
  const FlowId gone(static_cast<std::int32_t>(idx));
  Change c;
  for (const LinkRef l : full.route_links(gone)) c.changed.insert(l);
  c.start = std::move(before.jitters);
  c.start.erase_flow(gone);
  c.old = std::move(before.flows);
  c.old.erase(c.old.begin() + static_cast<std::ptrdiff_t>(idx));
  flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(idx));
  c.flows = std::move(flows);
  c.above = true;
  return c;
}

/// The flows of the world after `c` that share a link, transitively, with
/// a changed link or with a flow that has no old result: the changed flow's
/// component (after a removal, what is left of it), in ascending id order.
std::vector<FlowId> change_component(const AnalysisContext& ctx,
                                     const Change& c) {
  std::vector<bool> in(ctx.flow_count(), false);
  std::vector<FlowId> work;
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    const std::vector<LinkRef>& route = ctx.route_links(id);
    if (f >= c.old.size() ||
        std::any_of(route.begin(), route.end(),
                    [&](LinkRef l) { return c.changed.contains(l); })) {
      in[f] = true;
      work.push_back(id);
    }
  }
  while (!work.empty()) {
    const FlowId i = work.back();
    work.pop_back();
    for (const LinkRef l : ctx.route_links(i)) {
      for (const FlowId j : ctx.flows_on_link(l)) {
        if (!in[static_cast<std::size_t>(j.v)]) {
          in[static_cast<std::size_t>(j.v)] = true;
          work.push_back(j);
        }
      }
    }
  }
  std::vector<FlowId> out;
  for (std::size_t f = 0; f < in.size(); ++f) {
    if (in[f]) out.push_back(FlowId(static_cast<std::int32_t>(f)));
  }
  return out;
}

/// The engine's re-solve of `c`, as a shard runs it: over a context that
/// holds only the changed flow's component, with or without the seed.  The
/// result is mapped back onto the whole world, where every other flow keeps
/// its old result.  `seed_above` defaults to the change's direction.
HolisticResult solve_change(const AnalysisContext& ctx, const Change& c,
                            bool seeded, IncrementalStats* stats,
                            std::optional<bool> seed_above = std::nullopt) {
  const std::vector<FlowId> comp = change_component(ctx, c);
  std::vector<gmf::Flow> flows;
  JitterMap start;
  std::vector<const FlowResult*> seed;
  for (std::size_t k = 0; k < comp.size(); ++k) {
    const auto g = static_cast<std::size_t>(comp[k].v);
    flows.push_back(ctx.flow(comp[k]));
    start.adopt_flow(c.start, comp[k], FlowId(static_cast<std::int32_t>(k)));
    if (g < c.old.size()) seed.push_back(&c.old[g]);
  }
  const AnalysisContext component(ctx.network(), std::move(flows));
  SolveRequest req;
  req.start = &start;
  if (seeded) {
    req.seed = &seed;
    req.changed_links = &c.changed;
  }
  req.seed_above = seed_above.value_or(c.above);
  HolisticOptions opts;
  opts.max_sweeps = 512;
  const HolisticResult part = solve_holistic(component, req, opts, stats);

  HolisticResult r;
  r.converged = part.converged;
  r.sweeps = part.sweeps;
  r.flows = c.old;
  r.flows.resize(ctx.flow_count());
  r.jitters = c.start;
  for (std::size_t k = 0; k < comp.size(); ++k) {
    r.flows[static_cast<std::size_t>(comp[k].v)] = part.flows[k];
    r.jitters.adopt_flow(part.jitters, FlowId(static_cast<std::int32_t>(k)),
                         comp[k]);
  }
  r.schedulable = part.schedulable &&
                  std::all_of(r.flows.begin(), r.flows.end(),
                              [](const FlowResult& fr) {
                                return fr.schedulable();
                              });
  return r;
}

/// Seeded == unseeded == cold Jacobi on the world after `c`; returns the
/// seeded solve's counters.
IncrementalStats expect_seeded_matches(const net::Network& net,
                                       const Change& c,
                                       const std::string& where) {
  const AnalysisContext ctx(net, c.flows);
  IncrementalStats seeded_stats;
  IncrementalStats plain_stats;
  const HolisticResult seeded = solve_change(ctx, c, true, &seeded_stats);
  const HolisticResult plain = solve_change(ctx, c, false, &plain_stats);
  HolisticOptions jc;
  jc.max_sweeps = 512;
  expect_same_results(seeded, plain, where + " (seeded vs unseeded)");
  expect_same_results(seeded, solve_jacobi(ctx, jc),
                      where + " (seeded vs Jacobi)");
  EXPECT_LE(seeded_stats.flow_analyses, plain_stats.flow_analyses) << where;
  EXPECT_LE(seeded_stats.sweeps, plain_stats.sweeps) << where;
  EXPECT_EQ(plain_stats.results_kept, 0u) << where;
  return seeded_stats;
}

/// One generated world of the order tests.
struct World {
  std::string name;
  net::Network net;
  std::vector<gmf::Flow> flows;
};

/// The generated star and tree sets of the order tests.
std::vector<World> generated_sets() {
  std::vector<World> out;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const auto star = net::make_star_network(6 + static_cast<int>(seed % 3),
                                             100'000'000);
    out.push_back({"star seed " + std::to_string(seed), star.net,
                   random_flows(star.net, star.hosts, seed, seed % 4 == 3)});
  }
  for (const int depth : {3, 4}) {
    const auto tree = net::make_tree_network(depth, 2, 100'000'000);
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      for (const bool equal : {false, true}) {
        out.push_back({"tree depth " + std::to_string(depth) + " seed " +
                           std::to_string(seed) + (equal ? " equal" : ""),
                       tree.net,
                       random_flows(tree.net, tree.hosts, seed, equal)});
      }
    }
  }
  return out;
}

TEST(SeededSolve, GeneratedAddsMatchUnseededAndJacobi) {
  int compared = 0;
  std::size_t kept = 0;
  for (const World& w : generated_sets()) {
    if (w.flows.size() < 2) continue;
    const std::vector<gmf::Flow> residents(w.flows.begin(),
                                           w.flows.end() - 1);
    const std::optional<Change> c =
        add_change(w.net, residents, w.flows.back());
    if (!c) continue;
    ++compared;
    kept += expect_seeded_matches(w.net, *c, "add: " + w.name).results_kept;
  }
  EXPECT_GE(compared, 40) << "too few converged worlds were compared";
  EXPECT_GT(kept, 0u) << "no seeded result was ever kept";
}

TEST(SeededSolve, GeneratedRemovalsMatchUnseededAndJacobi) {
  int compared = 0;
  std::size_t kept = 0;
  for (const World& w : generated_sets()) {
    if (w.flows.size() < 2) continue;
    for (const std::size_t idx : {std::size_t{0}, w.flows.size() / 2}) {
      const std::optional<Change> c = remove_change(w.net, w.flows, idx);
      if (!c) continue;
      ++compared;
      kept += expect_seeded_matches(
                  w.net, *c, "remove " + std::to_string(idx) + ": " + w.name)
                  .results_kept;
    }
  }
  EXPECT_GE(compared, 80) << "too few converged worlds were compared";
  EXPECT_GT(kept, 0u) << "no seeded result was ever kept";
}

// On the equal-priority ring, a third flow C (hA -> X -> Y -> hB2) joins or
// leaves the cyclic pair A, B.  Seeding from below is exact on the cycle.
// Seeding from above is not: the descent from the three-flow fixed point
// stops on a higher fixed point of the pair, so the removal must restart
// the component's flows from their source jitters — exactly the unseeded
// solve.
TEST(SeededSolve, CyclicRingSeedsFromBelowAndFallsBackFromAbove) {
  const RingWorld ring = make_ring();
  std::vector<gmf::Flow> flows = ring_flows(ring, 400);
  flows.emplace_back("C", net::Route({ring.hA, ring.X, ring.Y, ring.hB2}),
                     std::vector<gmf::FrameSpec>{ring_frame(2000, 200)}, 3);

  // From below: B joins A (the cycle closes), C joins the pair.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}}) {
    const std::vector<gmf::Flow> residents(flows.begin(),
                                           flows.begin() + n);
    const std::optional<Change> c = add_change(ring.net, residents, flows[n]);
    ASSERT_TRUE(c.has_value());
    expect_seeded_matches(ring.net, *c,
                          "ring add of flow " + std::to_string(n));
  }

  // From above on an acyclic remainder: B leaves, A alone is a path.
  {
    const std::vector<gmf::Flow> pair(flows.begin(), flows.begin() + 2);
    const std::optional<Change> c = remove_change(ring.net, pair, 1);
    ASSERT_TRUE(c.has_value());
    expect_seeded_matches(ring.net, *c, "ring removal of B");
  }

  // From above on the cyclic remainder: C leaves A and B.
  const std::optional<Change> c = remove_change(ring.net, flows, 2);
  ASSERT_TRUE(c.has_value());
  const IncrementalStats seeded =
      expect_seeded_matches(ring.net, *c, "ring removal of C");
  const AnalysisContext ctx(ring.net, c->flows);
  IncrementalStats plain;
  (void)solve_change(ctx, *c, false, &plain);
  // The seed was dropped: the same work as the unseeded solve, none kept.
  EXPECT_EQ(seeded.flow_analyses, plain.flow_analyses);
  EXPECT_EQ(seeded.sweeps, plain.sweeps);
  EXPECT_EQ(seeded.results_kept, 0u);
  // Why: honoured, the seed from above lands on a higher fixed point.
  const HolisticResult descent =
      solve_change(ctx, *c, true, nullptr, /*seed_above=*/false);
  const HolisticResult least = analyze_holistic(ctx);
  ASSERT_TRUE(descent.converged);
  EXPECT_FALSE(descent.jitters == least.jitters);
  EXPECT_GT(descent.worst_response(FlowId(0)),
            least.worst_response(FlowId(0)));
}

// The stop rule for seeded solves.  Re-solved from its own fixed point with
// every ring link marked changed, the cycle's first pass re-analyses every
// node — the ones on back edges too — and writes no changed jitter.  A
// re-analysed back-edge node must still keep the cycle going: its
// successor, visited earlier in the pass, has not seen the new result.
// (Here the result is the same, so the second pass analyses nothing and
// rewrites only those successors' JSUMs.)
TEST(SeededSolve, ReanalysedBackEdgeKeepsTheSolveGoing) {
  const RingWorld ring = make_ring();
  const std::vector<gmf::Flow> flows = ring_flows(ring, 400);
  const AnalysisContext ctx(ring.net, flows);
  const HolisticResult fixed = analyze_holistic(ctx);
  ASSERT_TRUE(fixed.converged);

  std::vector<const FlowResult*> seed;
  for (const FlowResult& fr : fixed.flows) seed.push_back(&fr);
  std::set<LinkRef> changed;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    for (const LinkRef l : ctx.route_links(id)) changed.insert(l);
  }
  SolveRequest req;
  req.start = &fixed.jitters;
  req.seed = &seed;
  req.changed_links = &changed;
  IncrementalStats stats;
  const HolisticResult again =
      solve_holistic(ctx, req, HolisticOptions{}, &stats);
  expect_same_results(again, fixed, "seeded ring re-solve");
  EXPECT_EQ(again.sweeps, 2);
  EXPECT_EQ(stats.flow_analyses, 2u);  // both flows in pass 1, none after
  EXPECT_EQ(stats.results_kept, 0u);
}

// ------------------------------------------------------------------------
// Shared hop results.  Within one group visit the link-ordered sweep runs
// analyze_stage once per distinct key — the analysed flow's parameters on
// the link (by content), its shift, the frame, the hop kind and, at an
// egress, its priority and its own egress_feasible bit — and copies the
// result to the key's twins.  Each world below offers a near twin that a
// weaker key would share wrongly, next to an exact twin that must share.
// The results must equal the Jacobi oracle bit for bit, and each stage must
// equal a fresh analyze_stage against the final jitter map: a group's
// nodes read only its own key, which no later group writes, so that holds
// after every link-ordered solve, a divergent one too.

/// Every per-stage HopResult of `r` is what analyze_stage computes for its
/// node from r's final jitter map.
void expect_stages_reanalyse(const AnalysisContext& ctx,
                             const HolisticResult& r,
                             const std::string& where) {
  for (std::size_t f = 0; f < r.flows.size(); ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    for (std::size_t k = 0; k < r.flows[f].frames.size(); ++k) {
      const FrameResult& fk = r.flows[f].frames[k];
      for (std::size_t s = 0; s < fk.stages.size(); ++s) {
        const HopResult fresh = analyze_stage(ctx, r.jitters, id, s, k);
        const HopResult& got = fk.stages[s].hop;
        const std::string at = where + ": flow " + std::to_string(f) +
                               " frame " + std::to_string(k) + " stage " +
                               std::to_string(s);
        EXPECT_EQ(got.response, fresh.response) << at;
        EXPECT_EQ(got.converged, fresh.converged) << at;
        EXPECT_EQ(got.busy_period, fresh.busy_period) << at;
        EXPECT_EQ(got.instances, fresh.instances) << at;
        EXPECT_EQ(got.iterations, fresh.iterations) << at;
      }
    }
  }
}

/// Solves `flows` link-ordered, checks it against Jacobi and against every
/// stage re-analysed, and returns the solve's counters.
IncrementalStats expect_sharing_exact(const net::Network& net,
                                      const std::vector<gmf::Flow>& flows,
                                      const std::string& where) {
  const AnalysisContext ctx(net, flows);
  SolveRequest req;
  IncrementalStats stats;
  const HolisticResult r = solve_holistic(ctx, req, HolisticOptions{}, &stats);
  expect_same_results(r, solve_jacobi(ctx), where + " (vs Jacobi)");
  expect_stages_reanalyse(ctx, r, where);
  return stats;
}

gmf::FrameSpec shared_frame(std::int64_t payload_bytes,
                            gmfnet::Time jitter = gmfnet::Time::ms(1)) {
  gmf::FrameSpec fs;
  fs.min_separation = gmfnet::Time::ms(5);
  fs.deadline = gmfnet::Time::ms(50);
  fs.jitter = jitter;
  fs.payload_bits = payload_bytes * 8;
  return fs;
}

/// A star whose flows all run h1 -> sw -> h0: one first-hop, one ingress
/// and one egress group.  Two fillers of distinct sizes join the tested
/// flows, so every hop has at least five flows (the class path).
struct SharedStar {
  net::StarNetwork star = net::make_star_network(4, 100'000'000);
  std::vector<gmf::Flow> flows;

  void add(std::vector<gmf::FrameSpec> frames, std::int64_t priority = 1,
           bool rtp = false) {
    flows.emplace_back("f" + std::to_string(flows.size()),
                       net::Route({star.hosts[1], star.sw, star.hosts[0]}),
                       std::move(frames), priority, rtp);
  }
  void add_fillers() {
    add({shared_frame(300)});
    add({shared_frame(700)});
  }
};

// Equal demand curves, rotated frame order: A = [1200 B, 200 B] and
// B = [200 B, 1200 B] fall in one interferer class (a rotation has the same
// windows), but frame 0 is a different packet.  A2 is A's exact twin.
TEST(SharedHops, RotatedFramesDoNotShare) {
  SharedStar w;
  w.add({shared_frame(1200), shared_frame(200)});  // A
  w.add({shared_frame(1200), shared_frame(200)});  // A2
  w.add({shared_frame(200), shared_frame(1200)});  // B
  w.add_fillers();
  const AnalysisContext ctx(w.star.net, w.flows);
  const LinkRef up(w.star.hosts[1], w.star.sw);
  ASSERT_TRUE(ctx.demand(FlowId(0), up).same_shape(ctx.demand(FlowId(2), up)));

  const IncrementalStats s = expect_sharing_exact(w.star.net, w.flows, "rot");
  // 8 per-frame hops per stage; A2's two are shared at each of the three.
  EXPECT_EQ(s.hops_run, 18u);
  EXPECT_EQ(s.hops_shared, 6u);
  EXPECT_EQ(s.flow_analyses, 5u);  // a shared node still counts
}

// Equal frames, different RTP packetisation: the 16-byte RTP header makes
// B's packets longer on every link.
TEST(SharedHops, RtpChangesTheKey) {
  SharedStar w;
  w.add({shared_frame(500)});                  // A
  w.add({shared_frame(500)});                  // A2
  w.add({shared_frame(500)}, 1, /*rtp=*/true);  // B
  w.add_fillers();
  const IncrementalStats s = expect_sharing_exact(w.star.net, w.flows, "rtp");
  EXPECT_EQ(s.hops_run, 12u);
  EXPECT_EQ(s.hops_shared, 3u);
}

// Equal parameters, different priorities: a first hop and an ingress FIFO
// do not read the priority, so A and A2 share there; at the egress A (4)
// sees X (5) and A2 (6) in hep(A) while A2 sees neither, so they must not.
TEST(SharedHops, PrioritySplitsOnlyEgressTwins) {
  SharedStar w;
  w.add({shared_frame(900)}, 4);  // A
  w.add({shared_frame(900)}, 6);  // A2
  w.add({shared_frame(400)}, 5);  // X
  w.add_fillers();
  const IncrementalStats s = expect_sharing_exact(w.star.net, w.flows, "prio");
  EXPECT_EQ(s.hops_run, 13u);
  EXPECT_EQ(s.hops_shared, 2u);  // A2's first hop and ingress

  const AnalysisContext ctx(w.star.net, w.flows);
  const HolisticResult r = analyze_holistic(ctx);
  ASSERT_TRUE(r.converged);
  EXPECT_NE(r.flows[0].frames[0].stages[2].hop.response,
            r.flows[1].frames[0].stages[2].hop.response)
      << "the egress twins must see different hep sets";
}

// Equal parameters, different source jitter: the shift differs at the
// first hop (and so downstream), while A3, A's exact twin, shares.
TEST(SharedHops, ShiftChangesTheKey) {
  SharedStar w;
  w.add({shared_frame(800, gmfnet::Time::ms(1))});  // A
  w.add({shared_frame(800, gmfnet::Time::ms(3))});  // A2
  w.add({shared_frame(800, gmfnet::Time::ms(1))});  // A3
  w.add_fillers();
  const IncrementalStats s = expect_sharing_exact(w.star.net, w.flows, "shift");
  EXPECT_EQ(s.hops_run, 12u);
  EXPECT_EQ(s.hops_shared, 3u);
}

// Egress twins at the utilisation boundary.  A and B (equal parameters,
// priority and shift) and X leave the switch on sw -> h0 from their own
// hosts.  Eq (35)'s level load is the analysed flow's own utilisation plus
// its hep flows' in link order: (u + x) + u for A, (u + u) + x for B.  The
// two sums round to either side of 1.0, so A's egress is analysed (and
// diverges) while B's is infeasible: they must not share.
TEST(SharedHops, FeasibilityBitSplitsBoundaryTwins) {
  const auto star = net::make_star_network(4, 100'000'000);
  const auto flow = [&](std::size_t host, std::int64_t bytes,
                        std::int64_t sep_ps) {
    gmf::FrameSpec fs;
    fs.min_separation = gmfnet::Time(sep_ps);
    fs.deadline = gmfnet::Time::ms(50);
    fs.jitter = gmfnet::Time::zero();
    fs.payload_bits = bytes * 8;
    return gmf::Flow("h" + std::to_string(host),
                     net::Route({star.hosts[host], star.sw, star.hosts[0]}),
                     {fs}, 1);
  };
  const std::vector<gmf::Flow> flows = {flow(1, 1077, 304'799'999),   // A
                                        flow(2, 950, 203'200'001),    // X
                                        flow(3, 1077, 304'799'999)};  // B
  const AnalysisContext ctx(star.net, flows);
  ASSERT_TRUE(egress_feasible(ctx, FlowId(0), star.sw));
  ASSERT_FALSE(egress_feasible(ctx, FlowId(2), star.sw));

  const IncrementalStats s =
      expect_sharing_exact(star.net, flows, "boundary");
  EXPECT_EQ(s.hops_run, 9u);
  EXPECT_EQ(s.hops_shared, 0u);
}

// Generated star and tree sets with every flow tripled: exact twins share
// wherever their keys agree, and the results stay exact.
TEST(SharedHops, GeneratedTwinsMatchJacobi) {
  std::size_t shared = 0;
  for (const World& w : generated_sets()) {
    std::vector<gmf::Flow> tripled;
    for (const gmf::Flow& f : w.flows) {
      for (int t = 0; t < 3; ++t) tripled.push_back(f);
    }
    shared += expect_sharing_exact(w.net, tripled, "tripled " + w.name)
                  .hops_shared;
  }
  EXPECT_GT(shared, 0u);
}

// ------------------------------------------------------------------------
// Generated equal-priority rings.  k = 3..8 switches s_i joined clockwise;
// behind each hangs a spur switch t_i with a host h_i, and behind t_i a
// tail switch u_i with a host g_i.  Flow j enters at h_a -> t_a -> s_a,
// runs clockwise round part of the ring and leaves by s_b -> t_b -> h_b
// (with `tail`, by s_b -> t_b -> u_b -> g_b).  The flows' interior ring
// switches cover the whole ring, so consecutive ring links chain all the
// way round: the ring links form one cyclic component, and the host spurs
// are acyclic keys upstream and downstream of it.  Every flow has the same
// priority; the frame separation sets the busiest ring link's load, from
// safe to near-critical.

struct GeneratedRing {
  std::string name;
  net::Network net;
  std::vector<gmf::Flow> flows;
  std::vector<net::NodeId> t, h, u, g;  ///< spur and tail nodes, by i
};

GeneratedRing generated_ring(std::size_t k, std::uint64_t seed, bool tail) {
  Rng rng(0x5CC0'0001ull + k * 0x9E3779B9ull + seed * 0x85EBCA6Bull);
  GeneratedRing w;
  w.name = "ring k=" + std::to_string(k) + " seed " + std::to_string(seed);
  net::Network& n = w.net;
  std::vector<net::NodeId> s, t, h, u, g;
  for (std::size_t i = 0; i < k; ++i) {
    const std::string id = std::to_string(i);
    s.push_back(n.add_switch("s" + id));
    t.push_back(n.add_switch("t" + id));
    h.push_back(n.add_endhost("h" + id));
    u.push_back(n.add_switch("u" + id));
    g.push_back(n.add_endhost("g" + id));
  }
  constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;
  for (std::size_t i = 0; i < k; ++i) {
    n.add_duplex_link(s[i], s[(i + 1) % k], kSpeed);
    n.add_duplex_link(s[i], t[i], kSpeed);
    n.add_duplex_link(t[i], h[i], kSpeed);
    n.add_duplex_link(t[i], u[i], kSpeed);
    n.add_duplex_link(u[i], g[i], kSpeed);
  }
  n.validate();

  // 2..4 flows (3..4 on a triangle) starting spread round the ring.  Flow
  // j's interior switches reach the next flow's start (one further with
  // `extra`), so together they cover every switch.
  const std::size_t m = k == 3 ? 3 + rng.next_below(2) : 2 + rng.next_below(3);
  const std::size_t r = rng.next_below(k);
  std::vector<std::size_t> start(m);
  for (std::size_t j = 0; j < m; ++j) start[j] = (r + j * k / m) % k;
  std::vector<std::vector<std::int64_t>> payloads(m);
  std::vector<double> ring_bits(k, 0.0);  // mean frame bits per ring link
  std::vector<net::Route> routes;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t gap = (start[(j + 1) % m] + k - start[j]) % k;
    const std::size_t extra = gap + 2 <= k - 1 ? rng.next_below(2) : 0;
    const std::size_t links = gap + 1 + extra;  // ring links crossed
    EXPECT_LE(links, k - 1) << w.name;
    const std::size_t a = start[j];
    const std::size_t b = (a + links) % k;
    std::vector<net::NodeId> nodes{h[a], t[a]};
    for (std::size_t i = 0; i <= links; ++i) nodes.push_back(s[(a + i) % k]);
    nodes.push_back(t[b]);
    if (tail) {
      nodes.push_back(u[b]);
      nodes.push_back(g[b]);
    } else {
      nodes.push_back(h[b]);
    }
    routes.emplace_back(std::move(nodes));
    double bits = 0;
    for (std::size_t f = 0, frames = 1 + rng.next_below(3); f < frames; ++f) {
      payloads[j].push_back(200 + static_cast<std::int64_t>(
                                      rng.next_below(1301)));
      bits += static_cast<double>(payloads[j].back() + 38) * 8;
    }
    bits /= static_cast<double>(payloads[j].size());
    for (std::size_t i = 0; i < links; ++i) ring_bits[(a + i) % k] += bits;
  }
  constexpr double kLoad[] = {0.3, 0.5, 0.65, 0.75};
  const double busiest = *std::max_element(ring_bits.begin(), ring_bits.end());
  const auto sep_us = static_cast<std::int64_t>(
      busiest / static_cast<double>(kSpeed) * 1e6 / kLoad[seed % 4]);
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<gmf::FrameSpec> frames;
    for (const std::int64_t bytes : payloads[j]) {
      gmf::FrameSpec fs;
      fs.min_separation = gmfnet::Time::us(sep_us);
      fs.deadline = gmfnet::Time::ms(100);
      fs.jitter = gmfnet::Time::us(static_cast<std::int64_t>(
          rng.next_below(500)));
      fs.payload_bits = bytes * 8;
      frames.push_back(fs);
    }
    w.flows.emplace_back("f" + std::to_string(j), routes[j],
                         std::move(frames), 1);
  }
  w.t = std::move(t);
  w.h = std::move(h);
  w.u = std::move(u);
  w.g = std::move(g);
  return w;
}

// Each generated ring against Jacobi, bit for bit; a seeded add from below
// against the same solve unseeded; removals from above against a solve
// from scratch; and the downstream spurs analysed once: lengthening every
// exit by two stages (the tail) adds exactly two per-frame hops per frame,
// whatever number of passes the cycle takes.  A failure prints the
// world as a scenario file, to shrink into tests/regressions/.
TEST(GeneratedRings, MatchJacobiSeededAndFromScratch) {
  int converged = 0;
  int compared_changes = 0;
  for (std::size_t k = 3; k <= 8; ++k) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const bool failed_before = HasFailure();
      const GeneratedRing w = generated_ring(k, seed, /*tail=*/false);
      const AnalysisContext ctx(w.net, w.flows);
      HolisticOptions gs;
      gs.max_sweeps = 512;
      IncrementalStats st;
      const HolisticResult r = solve_holistic(ctx, SolveRequest{}, gs, &st);
      expect_same_results(r, solve_jacobi(ctx, gs), w.name);

      if (r.converged) {
        ++converged;
        // A back edge of the cycle comes due again after the first pass.
        EXPECT_GE(r.sweeps, 2) << w.name;
        const GeneratedRing wt = generated_ring(k, seed, /*tail=*/true);
        IncrementalStats stt;
        const HolisticResult rt = solve_holistic(
            AnalysisContext(wt.net, wt.flows), SolveRequest{}, gs, &stt);
        ASSERT_TRUE(rt.converged) << w.name;
        EXPECT_EQ(rt.sweeps, r.sweeps) << w.name;
        std::size_t frames = 0;
        for (const gmf::Flow& f : w.flows) frames += f.frame_count();
        EXPECT_EQ(stt.hops_run + stt.hops_shared - st.hops_run -
                      st.hops_shared,
                  2 * frames)
            << w.name;

        const std::vector<gmf::Flow> residents(w.flows.begin(),
                                               w.flows.end() - 1);
        if (const auto c = add_change(w.net, residents, w.flows.back())) {
          expect_seeded_matches(w.net, *c, "add to " + w.name);
          ++compared_changes;
        }
        for (const std::size_t idx : {std::size_t{0}, w.flows.size() / 2}) {
          if (const auto c = remove_change(w.net, w.flows, idx)) {
            expect_seeded_matches(
                w.net, *c, "remove " + std::to_string(idx) + " from " + w.name);
            ++compared_changes;
          }
        }
      }
      if (!failed_before && HasFailure()) {
        ADD_FAILURE() << w.name << " as a scenario file:\n"
                      << io::format_scenario({w.net, w.flows});
      }
    }
  }
  EXPECT_GE(converged, 20) << "too few rings reached a fixed point";
  EXPECT_GE(compared_changes, 60) << "too few seeded changes were compared";
}

// ------------------------------------------------------------------------
// The forward closure.  A seeded solve plans only the keys reachable from
// its changed links and its unseeded flows' routes; everything upstream or
// beside them keeps its seed.  On a generated ring with tails, a spur flow
// x = x_b -> t_b -> u_b -> g_b from a host x_b of its own shares the tail
// t_b -> u_b -> g_b of the ring flows that exit at b, and nothing else:
// adding or removing it changes keys downstream of the ring only, so the
// closure is acyclic although the component is not.

/// A generated ring world (with tails) plus the spur flow x, last.
struct SpurWorld {
  net::Network net;
  std::vector<gmf::Flow> flows;
  std::size_t exit_frames = 0;  ///< frames of the flows that exit at b
};

/// `w` with x at the exit of its last flow.
SpurWorld with_spur_flow(const GeneratedRing& w) {
  const net::Route& exit = w.flows.back().route();
  const net::NodeId tb = exit.node_at(exit.node_count() - 3);
  const auto b = static_cast<std::size_t>(
      std::find(w.t.begin(), w.t.end(), tb) - w.t.begin());
  SpurWorld s;
  s.net = w.net;
  const net::NodeId xb = s.net.add_endhost("x" + std::to_string(b));
  s.net.add_duplex_link(xb, tb, 100'000'000);
  s.net.validate();
  s.flows = w.flows;
  for (const gmf::Flow& f : w.flows) {
    if (f.route().uses_link(tb, w.u[b])) s.exit_frames += f.frame_count();
  }
  gmf::FrameSpec fs;
  fs.min_separation = gmfnet::Time::ms(1);
  fs.deadline = gmfnet::Time::ms(100);
  fs.jitter = gmfnet::Time::us(50);
  fs.payload_bits = 300 * 8;
  s.flows.emplace_back("x", net::Route({xb, tb, w.u[b], w.g[b]}),
                       std::vector<gmf::FrameSpec>{fs}, 1);
  return s;
}

TEST(ForwardClosure, SpurAddAndRemovalStayOffTheRing) {
  const GeneratedRing w = generated_ring(5, 2, /*tail=*/true);
  const SpurWorld x = with_spur_flow(w);
  ASSERT_EQ(x.exit_frames, 2u) << "the pins below assume this world";
  {
    // The ring itself is a cyclic component.
    const HolisticResult r = analyze_holistic(AnalysisContext(x.net, x.flows));
    ASSERT_TRUE(r.converged);
    ASSERT_GE(r.sweeps, 2);
  }

  // x joins from below.  The plan is x's first link and the tail: x's
  // five stages, then the exit flows' egress at t_b (stale: x joined its
  // link) and their two stages after it.  x's JSUMs are written, and the
  // exit flows' behind their re-analysed egress; the egress' own JSUMs,
  // behind the untouched ring, hold already.
  const std::vector<gmf::Flow> residents(x.flows.begin(), x.flows.end() - 1);
  const std::optional<Change> add =
      add_change(x.net, residents, x.flows.back());
  ASSERT_TRUE(add.has_value());
  const IncrementalStats as =
      expect_seeded_matches(x.net, *add, "spur add to " + w.name);
  EXPECT_EQ(as.hops_run, 5 + 3 * x.exit_frames);
  EXPECT_EQ(as.hops_shared, 0u);
  EXPECT_EQ(as.jsum_writes, 5 + 2 * x.exit_frames);
  EXPECT_EQ(as.results_kept, w.flows.size() - 1);

  // x leaves from above.  The closure (the tail) is acyclic, so the seed
  // is kept although the component's ring is cyclic: the exit flows'
  // three tail stages are re-analysed, nothing else.
  const std::optional<Change> rm =
      remove_change(x.net, x.flows, x.flows.size() - 1);
  ASSERT_TRUE(rm.has_value());
  const IncrementalStats rs =
      expect_seeded_matches(x.net, *rm, "spur removal from " + w.name);
  EXPECT_EQ(rs.hops_run, 3 * x.exit_frames);
  EXPECT_EQ(rs.hops_shared, 0u);
  EXPECT_EQ(rs.jsum_writes, 2 * x.exit_frames);
  EXPECT_EQ(rs.results_kept, w.flows.size() - 1);
}

// A flow without a seeded result is a root of the closure whatever
// `changed_links` says: it is analysed even when none of its links
// changed.
TEST(ForwardClosure, UnseededFlowOffTheChangedLinksIsAnalysed) {
  const auto tree = net::make_tree_network(3, 2, 100'000'000);
  const std::vector<gmf::Flow> flows =
      random_flows(tree.net, tree.hosts, 5, false);
  ASSERT_GE(flows.size(), 3u);
  const AnalysisContext ctx(tree.net, flows);
  const HolisticResult fixed = analyze_holistic(ctx);
  ASSERT_TRUE(fixed.converged);

  // Every flow but the last is seeded; no link is named changed.
  std::vector<const FlowResult*> seed;
  for (std::size_t f = 0; f + 1 < flows.size(); ++f) {
    seed.push_back(&fixed.flows[f]);
  }
  const std::set<LinkRef> none;
  SolveRequest req;
  req.start = &fixed.jitters;
  req.seed = &seed;
  req.changed_links = &none;
  IncrementalStats stats;
  const HolisticResult r =
      solve_holistic(ctx, req, HolisticOptions{}, &stats);
  expect_same_results(r, fixed, "unseeded last flow");
  const FlowId last(static_cast<std::int32_t>(flows.size() - 1));
  EXPECT_TRUE(r.flows[static_cast<std::size_t>(last.v)].all_converged());
  // It starts from the fixed point, so its analyses move nothing and
  // every seeded flow is kept.
  EXPECT_EQ(stats.flow_analyses, 1u);
  EXPECT_EQ(stats.results_kept, flows.size() - 1);
  std::size_t hops = 0;
  for (std::size_t k = 0; k < flows.back().frame_count(); ++k) {
    hops += ctx.stages(last).size();
  }
  EXPECT_EQ(stats.hops_run + stats.hops_shared, hops);
}

}  // namespace
}  // namespace gmfnet::core
