#include "core/context.hpp"

#include <gtest/gtest.h>

#include "gmf/mpeg.hpp"
#include "workload/scenario.hpp"

namespace gmfnet::core {
namespace {

workload::Scenario scenario() {
  return workload::make_figure2_scenario(10'000'000,
                                         /*with_cross_traffic=*/true);
}

TEST(StageKey, OrderingAndFactories) {
  const StageKey a = StageKey::link(NodeId(1), NodeId(2));
  const StageKey b = StageKey::ingress(NodeId(2));
  EXPECT_TRUE(a.is_link());
  EXPECT_FALSE(b.is_link());
  EXPECT_EQ(a.as_link(), LinkRef(NodeId(1), NodeId(2)));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, StageKey::link(LinkRef(NodeId(1), NodeId(2))));
}

TEST(Context, ValidatesOnConstruction) {
  auto s = scenario();
  EXPECT_NO_THROW(AnalysisContext(s.network, s.flows));

  // A flow with a broken route must be rejected.
  auto bad = scenario();
  net::Network net2 = bad.network;
  std::vector<gmf::Flow> flows2 = bad.flows;
  flows2[0] = gmf::Flow("broken",
                        net::Route({NodeId(0), NodeId(5), NodeId(3)}),
                        {bad.flows[0].frame(0)});
  EXPECT_THROW(AnalysisContext(net2, flows2), std::logic_error);
}

TEST(Context, FlowsOnLink) {
  auto s = scenario();
  const AnalysisContext ctx(s.network, s.flows);
  // Flows 0 (0->4->6->3) and 1 (1->4->6->3) share link(4,6); flow 2
  // (2->5->6->3) does not.
  const auto& on46 = ctx.flows_on_link(LinkRef(NodeId(4), NodeId(6)));
  ASSERT_EQ(on46.size(), 2u);
  EXPECT_EQ(on46[0], FlowId(0));
  EXPECT_EQ(on46[1], FlowId(1));
  // All three converge on link(6,3).
  EXPECT_EQ(ctx.flows_on_link(LinkRef(NodeId(6), NodeId(3))).size(), 3u);
  // Unused links carry nothing.
  EXPECT_TRUE(ctx.flows_on_link(LinkRef(NodeId(6), NodeId(7))).empty());
}

TEST(Context, HepAndLpRespectPriorities) {
  auto s = scenario();
  // Priorities in the scenario: flow0=1, flow1=0, flow2=2.
  const AnalysisContext ctx(s.network, s.flows);
  const LinkRef l63(NodeId(6), NodeId(3));
  // For flow 1 (lowest prio), both others are hep on the shared link.
  EXPECT_EQ(ctx.hep(FlowId(1), l63).size(), 2u);
  EXPECT_TRUE(ctx.lp(FlowId(1), l63).empty());
  // For flow 2 (highest), nobody is hep.
  EXPECT_TRUE(ctx.hep(FlowId(2), l63).empty());
  EXPECT_EQ(ctx.lp(FlowId(2), l63).size(), 2u);
  // hep never contains the flow itself.
  for (const FlowId j : ctx.hep(FlowId(0), l63)) EXPECT_NE(j, FlowId(0));
}

TEST(Context, EqualPriorityCountsAsHep) {
  auto s = scenario();
  for (auto& f : s.flows) f.set_priority(3);
  const AnalysisContext ctx(s.network, s.flows);
  const LinkRef l63(NodeId(6), NodeId(3));
  EXPECT_EQ(ctx.hep(FlowId(0), l63).size(), 2u);  // "higher or equal"
  EXPECT_TRUE(ctx.lp(FlowId(0), l63).empty());
}

TEST(Context, LinkParamsAndDemandPrecomputed) {
  auto s = scenario();
  const AnalysisContext ctx(s.network, s.flows);
  const LinkRef first(NodeId(0), NodeId(4));
  const auto& p = ctx.link_params(FlowId(0), first);
  EXPECT_EQ(p.frame_count(), 9u);  // Figure-3 MPEG cycle
  const auto& d = ctx.demand(FlowId(0), first);
  EXPECT_EQ(d.csum(), p.csum());
  // Asking for a link the flow does not traverse throws.
  EXPECT_THROW((void)ctx.link_params(FlowId(2), first), std::out_of_range);
  EXPECT_THROW((void)ctx.demand(FlowId(2), first), std::out_of_range);
}

TEST(Context, CircPrecomputedForSwitches) {
  auto s = scenario();
  const AnalysisContext ctx(s.network, s.flows);
  // Figure-1 degrees: switch 4 and 6 have 4 interfaces, switch 5 has 3.
  EXPECT_EQ(ctx.circ(NodeId(4)), gmfnet::Time::us_f(14.8));
  EXPECT_EQ(ctx.circ(NodeId(5)), gmfnet::Time::us_f(11.1));
  EXPECT_EQ(ctx.circ(NodeId(6)), gmfnet::Time::us_f(14.8));
  EXPECT_EQ(ctx.circ(NodeId(0)), gmfnet::Time::zero());  // not a switch
}

TEST(Context, StageSequencePerFigure6) {
  auto s = scenario();
  const AnalysisContext ctx(s.network, s.flows);
  const auto& st = ctx.stages(FlowId(0));  // route 0 -> 4 -> 6 -> 3
  ASSERT_EQ(st.size(), 5u);
  EXPECT_EQ(st[0], StageKey::link(NodeId(0), NodeId(4)));
  EXPECT_EQ(st[1], StageKey::ingress(NodeId(4)));
  EXPECT_EQ(st[2], StageKey::link(NodeId(4), NodeId(6)));
  EXPECT_EQ(st[3], StageKey::ingress(NodeId(6)));
  EXPECT_EQ(st[4], StageKey::link(NodeId(6), NodeId(3)));
}

TEST(Context, UtilizationQueries) {
  auto s = scenario();
  const AnalysisContext ctx(s.network, s.flows);
  const LinkRef l63(NodeId(6), NodeId(3));
  double u = 0;
  for (const FlowId j : ctx.flows_on_link(l63)) {
    u += ctx.link_params(j, l63).utilization();
  }
  EXPECT_DOUBLE_EQ(ctx.link_utilization(l63), u);
  EXPECT_GT(ctx.ingress_utilization(LinkRef(NodeId(0), NodeId(4))), 0.0);
  // Level utilization for the top-priority flow counts only itself.
  EXPECT_DOUBLE_EQ(ctx.egress_level_utilization(FlowId(2), l63),
                   ctx.link_params(FlowId(2), l63).utilization());
}

TEST(JitterMap, DefaultsToZeroAndStoresValues) {
  JitterMap m;
  const StageKey st = StageKey::ingress(NodeId(4));
  EXPECT_EQ(m.jitter(FlowId(0), st, 3), gmfnet::Time::zero());
  EXPECT_EQ(m.max_jitter(FlowId(0), st), gmfnet::Time::zero());
  m.set_jitter(FlowId(0), st, 3, gmfnet::Time::ms(2));
  EXPECT_EQ(m.jitter(FlowId(0), st, 3), gmfnet::Time::ms(2));
  EXPECT_EQ(m.jitter(FlowId(0), st, 0), gmfnet::Time::zero());
  EXPECT_EQ(m.max_jitter(FlowId(0), st), gmfnet::Time::ms(2));
}

TEST(JitterMap, InitialCarriesSourceJitter) {
  auto s = scenario();
  const AnalysisContext ctx(s.network, s.flows);
  const JitterMap m = JitterMap::initial(ctx);
  const StageKey first = ctx.stages(FlowId(0)).front();
  // Figure-3 flow: 1 ms source jitter on every frame.
  EXPECT_EQ(m.jitter(FlowId(0), first, 0), gmfnet::Time::ms(1));
  EXPECT_EQ(m.max_jitter(FlowId(0), first), gmfnet::Time::ms(1));
  // Downstream stages start at zero.
  EXPECT_EQ(m.max_jitter(FlowId(0), ctx.stages(FlowId(0))[2]),
            gmfnet::Time::zero());
}

TEST(Context, IncrementalAddMatchesMonolithic) {
  auto s = scenario();
  const AnalysisContext mono(s.network, s.flows);
  AnalysisContext inc(s.network);
  EXPECT_EQ(inc.flow_count(), 0u);
  for (std::size_t f = 0; f < s.flows.size(); ++f) {
    const FlowId id = inc.add_flow(s.flows[f]);
    EXPECT_EQ(id, FlowId(static_cast<std::int32_t>(f)));
  }
  ASSERT_EQ(inc.flow_count(), mono.flow_count());
  const LinkRef l63(NodeId(6), NodeId(3));
  EXPECT_EQ(inc.flows_on_link(l63), mono.flows_on_link(l63));
  EXPECT_DOUBLE_EQ(inc.link_utilization(l63), mono.link_utilization(l63));
  EXPECT_DOUBLE_EQ(inc.ingress_utilization(l63),
                   mono.ingress_utilization(l63));
  for (std::size_t f = 0; f < s.flows.size(); ++f) {
    const FlowId id(static_cast<std::int32_t>(f));
    EXPECT_EQ(inc.stages(id), mono.stages(id));
    EXPECT_EQ(inc.route_links(id), mono.route_links(id));
  }
}

TEST(Context, BulkAddMatchesSequentialAndFailsAtomically) {
  auto s = scenario();
  const AnalysisContext mono(s.network, s.flows);  // ctor = add_flows
  AnalysisContext seq(s.network);
  for (const gmf::Flow& f : s.flows) seq.add_flow(f);
  const LinkRef l63(NodeId(6), NodeId(3));
  EXPECT_EQ(mono.flows_on_link(l63), seq.flows_on_link(l63));
  EXPECT_DOUBLE_EQ(mono.link_utilization(l63), seq.link_utilization(l63));
  EXPECT_DOUBLE_EQ(mono.ingress_utilization(l63),
                   seq.ingress_utilization(l63));

  // A batch with an invalid member throws before any mutation: the context
  // keeps serving consistent aggregates for its existing flows.
  AnalysisContext inc(s.network);
  inc.add_flows({s.flows[0]});
  gmf::Flow bad = s.flows[1];
  bad = gmf::Flow(bad.name(), net::Route({NodeId(0), NodeId(3)}),
                  std::vector<gmf::FrameSpec>(bad.frames()), bad.priority());
  EXPECT_THROW(inc.add_flows({s.flows[1], bad}), std::logic_error);
  EXPECT_EQ(inc.flow_count(), 1u);
  const AnalysisContext only0(s.network, {s.flows[0]});
  for (const LinkRef l : inc.route_links(FlowId(0))) {
    EXPECT_DOUBLE_EQ(inc.link_utilization(l), only0.link_utilization(l));
  }
}

TEST(Context, RemoveFlowShiftsIdsAndRecomputesAggregates) {
  auto s = scenario();
  AnalysisContext ctx(s.network, s.flows);
  ASSERT_EQ(ctx.flow_count(), 3u);
  ctx.remove_flow(0);  // drop the MPEG flow 0 -> 4 -> 6 -> 3
  ASSERT_EQ(ctx.flow_count(), 2u);
  // Former flows 1 and 2 are now ids 0 and 1.
  EXPECT_EQ(ctx.flow(FlowId(0)).name(), s.flows[1].name());
  EXPECT_EQ(ctx.flow(FlowId(1)).name(), s.flows[2].name());
  const LinkRef l63(NodeId(6), NodeId(3));
  ASSERT_EQ(ctx.flows_on_link(l63).size(), 2u);
  // Aggregates equal a fresh build of the shrunk set.
  std::vector<gmf::Flow> rest = {s.flows[1], s.flows[2]};
  const AnalysisContext fresh(s.network, rest);
  EXPECT_DOUBLE_EQ(ctx.link_utilization(l63), fresh.link_utilization(l63));
  // The first-hop link of the removed flow carries nothing anymore.
  EXPECT_TRUE(ctx.flows_on_link(LinkRef(NodeId(0), NodeId(4))).empty());
  EXPECT_DOUBLE_EQ(ctx.link_utilization(LinkRef(NodeId(0), NodeId(4))), 0.0);
  EXPECT_THROW(ctx.remove_flow(2), std::out_of_range);
}

TEST(JitterMap, EraseFlowShiftsIdsDown) {
  JitterMap m;
  const StageKey st = StageKey::ingress(NodeId(4));
  m.set_jitter(FlowId(0), st, 0, gmfnet::Time::ms(1));
  m.set_jitter(FlowId(1), st, 0, gmfnet::Time::ms(2));
  m.set_jitter(FlowId(2), st, 0, gmfnet::Time::ms(3));
  m.erase_flow(FlowId(1));
  EXPECT_EQ(m.jitter(FlowId(0), st, 0), gmfnet::Time::ms(1));
  EXPECT_EQ(m.jitter(FlowId(1), st, 0), gmfnet::Time::ms(3));
}

TEST(JitterMap, ClearFlowAndFlowEquals) {
  JitterMap a;
  const StageKey st = StageKey::ingress(NodeId(4));
  a.set_jitter(FlowId(0), st, 0, gmfnet::Time::ms(1));
  a.set_jitter(FlowId(1), st, 0, gmfnet::Time::ms(2));
  JitterMap b = a;
  EXPECT_TRUE(a.flow_equals(b, FlowId(0)));
  b.set_jitter(FlowId(0), st, 0, gmfnet::Time::ms(9));
  EXPECT_FALSE(a.flow_equals(b, FlowId(0)));
  EXPECT_TRUE(a.flow_equals(b, FlowId(1)));  // CoW: flow 1 untouched
  a.clear_flow(FlowId(0));
  EXPECT_EQ(a.jitter(FlowId(0), st, 0), gmfnet::Time::zero());
  EXPECT_EQ(a.jitter(FlowId(1), st, 0), gmfnet::Time::ms(2));
}

TEST(JitterMap, SetJitterReportsChangesAndVersionsContent) {
  JitterMap a;
  const StageKey st = StageKey::ingress(NodeId(4));
  EXPECT_EQ(a.flow_version(FlowId(0)), 0u);  // no entries
  // A missing entry is created even for a zero value: it is a change.
  EXPECT_TRUE(a.set_jitter(FlowId(0), st, 0, gmfnet::Time::zero()));
  const std::uint64_t v0 = a.flow_version(FlowId(0));
  EXPECT_NE(v0, 0u);
  // Re-writing the stored value changes nothing, not even the version.
  EXPECT_FALSE(a.set_jitter(FlowId(0), st, 0, gmfnet::Time::zero()));
  EXPECT_EQ(a.flow_version(FlowId(0)), v0);

  // Copies share the state and its version until one of them writes a
  // different value; the writer gets a fresh version, the copy keeps v0.
  JitterMap b = a;
  EXPECT_EQ(b.flow_version(FlowId(0)), v0);
  EXPECT_FALSE(b.set_jitter(FlowId(0), st, 0, gmfnet::Time::zero()));
  EXPECT_EQ(b.flow_version(FlowId(0)), v0);
  EXPECT_TRUE(b.set_jitter(FlowId(0), st, 0, gmfnet::Time::ms(1)));
  EXPECT_NE(b.flow_version(FlowId(0)), v0);
  EXPECT_EQ(a.flow_version(FlowId(0)), v0);
  EXPECT_EQ(a.jitter(FlowId(0), st, 0), gmfnet::Time::zero());

  // An unshared state mutated in place still gets a new version.
  const std::uint64_t v1 = b.flow_version(FlowId(0));
  EXPECT_TRUE(b.set_jitter(FlowId(0), st, 1, gmfnet::Time::ms(1)));
  EXPECT_NE(b.flow_version(FlowId(0)), v1);
  a.adopt_flow(b, FlowId(0));
  EXPECT_EQ(a.flow_version(FlowId(0)), b.flow_version(FlowId(0)));
}

TEST(JitterMap, StampSharedByCopiesRenewedByWrites) {
  const StageKey st = StageKey::ingress(NodeId(4));
  JitterMap a;
  EXPECT_EQ(a.stamp(), 0u);  // empty
  a.set_jitter(FlowId(0), st, 0, gmfnet::Time::ms(1));
  const std::uint64_t s0 = a.stamp();
  EXPECT_NE(s0, 0u);
  EXPECT_FALSE(a.set_jitter(FlowId(0), st, 0, gmfnet::Time::ms(1)));
  EXPECT_EQ(a.stamp(), s0);  // no change, no new stamp

  JitterMap b = a;
  EXPECT_EQ(b.stamp(), s0);
  b.set_jitter(FlowId(1), st, 0, gmfnet::Time::ms(2));
  EXPECT_NE(b.stamp(), s0);
  EXPECT_EQ(a.stamp(), s0);
  const std::uint64_t s1 = b.stamp();
  b.adopt_flow(a, FlowId(0));
  EXPECT_NE(b.stamp(), s1);
  const std::uint64_t s2 = b.stamp();
  b.clear_flow(FlowId(1));
  EXPECT_NE(b.stamp(), s2);
  const std::uint64_t s3 = b.stamp();
  b.erase_flow(FlowId(0));
  EXPECT_NE(b.stamp(), s3);

  // A moved-from map is empty, and reads the empty stamp.
  JitterMap c = std::move(a);
  EXPECT_EQ(c.stamp(), s0);
  EXPECT_EQ(a.stamp(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(Context, StampSharedByCopiesRenewedByMutations) {
  auto s = scenario();
  AnalysisContext ctx(s.network);
  const std::uint64_t empty = ctx.stamp();
  ctx.add_flow(s.flows[0]);
  EXPECT_NE(ctx.stamp(), empty);
  const AnalysisContext copy = ctx;
  EXPECT_EQ(copy.stamp(), ctx.stamp());

  AnalysisContext grown = ctx;
  grown.add_flow(s.flows[1]);
  EXPECT_NE(grown.stamp(), ctx.stamp());
  const std::uint64_t before = grown.stamp();
  grown.remove_flow(1);
  EXPECT_NE(grown.stamp(), before);  // content equal again, stamp fresh
  AnalysisContext adopted = AnalysisContext::empty_clone(ctx);
  const std::uint64_t fresh = adopted.stamp();
  adopted.adopt_flow(ctx, FlowId(0));
  EXPECT_NE(adopted.stamp(), fresh);
  EXPECT_NE(adopted.stamp(), ctx.stamp());
}

TEST(JitterMap, CrossIdAdoptFlow) {
  JitterMap a;
  const StageKey st = StageKey::ingress(NodeId(4));
  a.set_jitter(FlowId(2), st, 0, gmfnet::Time::ms(5));
  JitterMap b;
  b.adopt_flow(a, FlowId(2), FlowId(0));
  EXPECT_EQ(b.jitter(FlowId(0), st, 0), gmfnet::Time::ms(5));
  EXPECT_EQ(b.jitter(FlowId(2), st, 0), gmfnet::Time::zero());
}

TEST(JitterMap, EqualityAndAdoptFlow) {
  auto s = scenario();
  const AnalysisContext ctx(s.network, s.flows);
  JitterMap a = JitterMap::initial(ctx);
  JitterMap b = a;
  EXPECT_EQ(a, b);
  const StageKey st = StageKey::ingress(NodeId(4));
  b.set_jitter(FlowId(1), st, 0, gmfnet::Time::us(7));
  EXPECT_NE(a, b);
  a.adopt_flow(b, FlowId(1));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gmfnet::core
