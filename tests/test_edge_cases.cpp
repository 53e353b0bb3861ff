// Edge cases across modules: router-sourced flows (the Figure-2 remark),
// overload behaviour in the simulator, holistic sweep caps, parser
// robustness against garbage input.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/holistic.hpp"
#include "io/scenario_io.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace gmfnet {
namespace {

TEST(EdgeCases, RouterSourcedFlowAnalyzes) {
  // "an IP-router may be a source node and then the destination node may
  // be an IP-endhost" — traffic entering the managed network from the
  // Internet via node 7.
  const auto fig = net::make_figure1_network(10'000'000);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "inbound", net::Route({fig.router7, fig.sw6, fig.host3}),
      Time::ms(20), Time::ms(20), 1500 * 8)};
  core::AnalysisContext ctx(fig.net, flows);
  const auto r = core::analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
}

TEST(EdgeCases, RouterSourcedFlowSimulates) {
  const auto fig = net::make_figure1_network(10'000'000);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "inbound", net::Route({fig.router7, fig.sw6, fig.host3}),
      Time::ms(20), Time::ms(20), 1500 * 8)};
  core::AnalysisContext ctx(fig.net, flows);
  const auto bound = core::analyze_holistic(ctx);
  ASSERT_TRUE(bound.converged);

  sim::SimOptions opts;
  opts.horizon = Time::ms(500);
  sim::Simulator simulator(fig.net, flows, opts);
  simulator.run();
  const auto& st = simulator.stats(net::FlowId(0));
  EXPECT_GT(st.packets_completed, 0u);
  EXPECT_LE(st.worst_response(), bound.flows[0].worst_response());
}

TEST(EdgeCases, RouterToRouterTransitFlow) {
  // Transit traffic: enters at router 7, leaves at an added router 8.
  auto fig = net::make_figure1_network(10'000'000);
  const auto router8 = fig.net.add_router("8");
  fig.net.add_duplex_link(fig.sw4, router8, 10'000'000);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "transit", net::Route({fig.router7, fig.sw6, fig.sw4, router8}),
      Time::ms(20), Time::ms(40), 1500 * 8)};
  core::AnalysisContext ctx(fig.net, flows);
  EXPECT_TRUE(core::analyze_holistic(ctx).schedulable);
}

TEST(EdgeCases, SimulatorShowsMissesWhenAnalysisPredictsThem) {
  // Deadline below even the raw wire time: the analysis rejects AND the
  // simulator observes actual misses — the two views agree on overload.
  const auto star = net::make_star_network(4, 10'000'000);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "late", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      Time::ms(20), Time::us(100), 4000 * 8)};
  core::AnalysisContext ctx(star.net, flows);
  EXPECT_FALSE(core::analyze_holistic(ctx).schedulable);

  sim::SimOptions opts;
  opts.horizon = Time::ms(200);
  sim::Simulator simulator(star.net, flows, opts);
  simulator.run();
  EXPECT_GT(simulator.stats(net::FlowId(0)).total_misses(), 0u);
}

TEST(EdgeCases, SimulatorSurvivesSustainedOverloadOfOneLink) {
  // More offered than the wire carries: queues grow, packets complete late
  // (drain phase) or are reported incomplete — never a crash or a hang.
  const auto star = net::make_star_network(4, 10'000'000);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "over", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      Time::ms(1), Time::ms(1), 3000 * 8)};  // ~25 Mbit/s offered
  sim::SimOptions opts;
  opts.horizon = Time::ms(100);
  sim::Simulator simulator(star.net, flows, opts);
  simulator.run();
  const auto& st = simulator.stats(net::FlowId(0));
  EXPECT_GT(st.packets_completed + st.packets_incomplete, 50u);
  EXPECT_GT(st.total_misses(), 0u);
}

TEST(EdgeCases, HolisticSweepCapReportsNonConvergence) {
  // max_sweeps caps the passes over each cyclic component.  Three
  // equal-priority flows round a switch triangle, each crossing two of its
  // links, close a cycle whose back edge comes due again after the first
  // pass: one pass cannot reach the fixed point, and the result must say so
  // rather than claim schedulability.
  net::Network n;
  const net::NodeId sw[3] = {n.add_switch(), n.add_switch(), n.add_switch()};
  net::NodeId host[3];
  for (int i = 0; i < 3; ++i) {
    n.add_duplex_link(sw[i], sw[(i + 1) % 3], 10'000'000);
    host[i] = n.add_endhost();
    n.add_duplex_link(host[i], sw[i], 10'000'000);
  }
  n.validate();
  std::vector<gmf::Flow> flows;
  for (int i = 0; i < 3; ++i) {
    flows.push_back(gmf::make_sporadic_flow(
        "f" + std::to_string(i),
        net::Route({host[i], sw[i], sw[(i + 1) % 3], sw[(i + 2) % 3],
                    host[(i + 2) % 3]}),
        Time::ms(20), Time::ms(20), 1000 * 8));
    flows.back().set_priority(1);
  }
  core::AnalysisContext ctx(n, flows);
  core::HolisticOptions opts;
  opts.max_sweeps = 1;
  const auto capped = core::analyze_holistic(ctx, opts);
  EXPECT_FALSE(capped.converged);
  EXPECT_FALSE(capped.schedulable);
  opts.max_sweeps = 64;
  EXPECT_TRUE(core::analyze_holistic(ctx, opts).schedulable);

  // A Jacobi sweep cannot confirm its own fixed point: one sweep is never
  // converged, even on a feed-forward set.
  const auto s = workload::make_figure2_scenario(10'000'000, true);
  core::AnalysisContext fig2(s.network, s.flows);
  opts.max_sweeps = 1;
  const auto jacobi = core::solve_jacobi(fig2, opts);
  EXPECT_FALSE(jacobi.converged);
  EXPECT_FALSE(jacobi.schedulable);
}

TEST(EdgeCases, TinyHorizonMarksDivergenceEarly) {
  const auto s = workload::make_figure2_scenario(10'000'000, true);
  core::AnalysisContext ctx(s.network, s.flows);
  core::HolisticOptions opts;
  opts.hop.horizon = Time::us(1);  // absurdly small
  const auto r = core::analyze_holistic(ctx, opts);
  EXPECT_FALSE(r.schedulable);
}

TEST(EdgeCases, ParserNeverCrashesOnGarbage) {
  Rng rng(99);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 =_,.#\n";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const auto len = static_cast<std::size_t>(rng.uniform_i64(0, 200));
    for (std::size_t i = 0; i < len; ++i) {
      text += alphabet[static_cast<std::size_t>(
          rng.next_below(alphabet.size()))];
    }
    try {
      (void)io::parse_scenario(text);
    } catch (const io::ParseError&) {
      // expected for almost everything
    } catch (const std::logic_error&) {
      // semantic validation may fire on lucky inputs
    }
  }
  SUCCEED();
}

TEST(EdgeCases, ZeroPayloadFlowStillAnalyzable) {
  // Keep-alive style traffic: 0-byte UDP payload still occupies a frame.
  const auto star = net::make_star_network(4, 10'000'000);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "keepalive", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      Time::ms(100), Time::ms(100), 0)};
  core::AnalysisContext ctx(star.net, flows);
  const auto r = core::analyze_holistic(ctx);
  EXPECT_TRUE(r.schedulable);
  EXPECT_GT(r.flows[0].worst_response(), Time::zero());
}

TEST(EdgeCases, MaxSizeUdpDatagram) {
  // 65507-byte payload: 45 Ethernet fragments, still sound end to end.
  const auto star = net::make_star_network(4, 100'000'000);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "jumbo", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      Time::ms(100), Time::ms(100), 65507 * 8)};
  core::AnalysisContext ctx(star.net, flows);
  const auto bound = core::analyze_holistic(ctx);
  ASSERT_TRUE(bound.schedulable);

  sim::SimOptions opts;
  opts.horizon = Time::sec(1);
  sim::Simulator simulator(star.net, flows, opts);
  simulator.run();
  EXPECT_LE(simulator.stats(net::FlowId(0)).worst_response(),
            bound.flows[0].worst_response());
}

TEST(EdgeCases, DirectHostToHostLink) {
  // A route with no switch at all: only the first-hop stage applies.
  net::Network net;
  const auto a = net.add_endhost("a");
  const auto b = net.add_endhost("b");
  net.add_duplex_link(a, b, 10'000'000);
  std::vector<gmf::Flow> flows = {gmf::make_sporadic_flow(
      "direct", net::Route({a, b}), Time::ms(10), Time::ms(10), 1000 * 8)};
  core::AnalysisContext ctx(net, flows);
  const auto r = core::analyze_holistic(ctx);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(ctx.stages(core::FlowId(0)).size(), 1u);
  EXPECT_TRUE(r.schedulable);
}

TEST(EdgeCases, VeryManySmallFlowsOnOneSwitch) {
  // Stress: 40 voice flows through one switch; analysis converges and the
  // verdict is consistent with utilization.
  const auto star = net::make_star_network(10, 100'000'000);
  std::vector<gmf::Flow> flows;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<std::size_t>(rng.next_below(10));
    auto b = a;
    while (b == a) b = static_cast<std::size_t>(rng.next_below(10));
    flows.push_back(workload::make_voip_flow(
        "c" + std::to_string(i),
        net::Route({star.hosts[a], star.sw, star.hosts[b]})));
  }
  core::AnalysisContext ctx(star.net, flows);
  const auto r = core::analyze_holistic(ctx);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);  // 40 * ~0.1 Mbit/s on 100 Mbit/s links
}

}  // namespace
}  // namespace gmfnet
