// Tests of the holistic jitter fixed point (§3.5).
#include "core/holistic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::core {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 10'000'000;

TEST(Holistic, LoneFlowConvergesInTwoSweeps) {
  const auto star = net::make_star_network(4, kSpeed);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "a", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(20), gmfnet::Time::ms(20), 1000 * 8)};
  const AnalysisContext ctx(star.net, flows);
  const HolisticResult r = analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  // Sweep 1 installs the stage jitters, sweep 2 observes no change.
  EXPECT_EQ(r.sweeps, 2);
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
  HolisticOptions gs;
  gs.order = SweepOrder::kGaussSeidel;
  HolisticOptions jc;
  jc.order = SweepOrder::kJacobi;
  jc.threads = 4;
  const HolisticResult rg = analyze_holistic(ctx, gs);
  const HolisticResult rj = analyze_holistic(ctx, jc);
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

TEST(Holistic, ManyIndependentFlowsStillTwoSweeps) {
  // Flows that share nothing have no cross-jitter: the fixed point arrives
  // after one productive sweep.
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
  EXPECT_EQ(r.sweeps, 2);
}

// ------------------------------------------------------------------------
// Order independence.  Gauss-Seidel visits (flow, stage) nodes in the
// topological order of the route-successor graph of directed links (a
// cyclic graph is broken at its lowest link); Jacobi analyses whole flows
// against a frozen snapshot.  Both climb from below to the least fixed
// point, so the jitter maps and every per-stage HopResult of the final
// analyses — response, busy period, instances, iterations — must agree
// exactly, whatever order the sweep visited the nodes in.

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
  HolisticOptions gs;
  gs.max_sweeps = max_sweeps;
  HolisticOptions jc;
  jc.order = SweepOrder::kJacobi;
  jc.threads = 2;
  jc.max_sweeps = max_sweeps;
  HolisticResult rg = analyze_holistic(ctx, gs);
  expect_same_results(rg, analyze_holistic(ctx, jc), where);
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
    // Feed-forward: one productive sweep, one confirming sweep.
    EXPECT_EQ(r.sweeps, 2) << where;
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
        // Feed-forward: one productive sweep, one confirming sweep.
        EXPECT_EQ(r.sweeps, 2) << where;
      }
    }
  }
  EXPECT_GE(converged, 32) << "too few fixed points were compared";
}

// The near-critical ring of bench_holistic_convergence: two equal-priority
// flows cross X->Y and Z->W in opposite route order, so the link successor
// graph has the cycle X->Y -> Y->M -> M->Z -> Z->W -> W->N -> N->X -> X->Y
// and the sweep must fall back to repeated passes in a broken-cycle order.
TEST(HolisticOrder, CyclicRingMatchesJacobi) {
  net::Network netw;
  const auto X = netw.add_switch("X"), Y = netw.add_switch("Y");
  const auto M = netw.add_switch("M"), Z = netw.add_switch("Z");
  const auto W = netw.add_switch("W"), N = netw.add_switch("N");
  const auto hA = netw.add_endhost("hA"), hA2 = netw.add_endhost("hA2");
  const auto hB = netw.add_endhost("hB"), hB2 = netw.add_endhost("hB2");
  const ethernet::LinkSpeedBps sp = 100'000'000;
  netw.add_duplex_link(X, Y, sp);
  netw.add_duplex_link(Y, M, sp);
  netw.add_duplex_link(M, Z, sp);
  netw.add_duplex_link(Z, W, sp);
  netw.add_duplex_link(W, N, sp);
  netw.add_duplex_link(N, X, sp);
  netw.add_duplex_link(hA, X, sp);
  netw.add_duplex_link(W, hA2, sp);
  netw.add_duplex_link(hB, Z, sp);
  netw.add_duplex_link(Y, hB2, sp);
  netw.validate();
  for (const std::int64_t sep_us : {400, 205}) {
    gmf::FrameSpec fs;
    fs.min_separation = gmfnet::Time::us(sep_us);
    fs.deadline = gmfnet::Time::ms(500);
    fs.jitter = gmfnet::Time::ms(2);
    fs.payload_bits = 1000 * 8;
    const std::vector<gmf::Flow> flows = {
        gmf::Flow("A", net::Route({hA, X, Y, M, Z, W, hA2}), {fs}, 3),
        gmf::Flow("B", net::Route({hB, Z, W, N, X, Y, hB2}), {fs}, 3)};
    const AnalysisContext ctx(netw, flows);
    const HolisticResult r = analyze_holistic(ctx);
    EXPECT_TRUE(r.converged) << sep_us;
    EXPECT_GT(r.sweeps, 2) << "a cyclic key graph needs repeated passes";
    EXPECT_EQ(r.sweeps, sep_us == 400 ? 4 : 38) << sep_us;
    expect_order_independent(ctx, "ring " + std::to_string(sep_us) + "us",
                             512);

    // Re-solved from its own fixed point, the first sweep changes no
    // jitter, yet the stages behind the broken back edge still need their
    // first analysis: the solve must not stop before they have it.
    const std::vector<bool> all(flows.size(), true);
    SolveRequest warm;
    warm.dirty = &all;
    warm.start = WarmStartView(r.jitters);
    HolisticResult again = solve_holistic(ctx, warm, HolisticOptions{});
    // Restricted solves leave the verdict to the caller.
    again.schedulable = again.converged;
    for (const FlowResult& fr : again.flows) {
      again.schedulable = again.schedulable && fr.schedulable();
    }
    expect_same_results(again, r, "ring re-solve " + std::to_string(sep_us));
  }
}

// An incremental what-if probe on a tree (a warm-started restricted solve
// over the candidate's component) lands on the from-scratch fixed point
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

}  // namespace
}  // namespace gmfnet::core
