#include "core/context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

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

// ------------------------------------------------------------------------
// A flow's entries are one flat row sorted by StageKey.  These pin what
// the row must keep of the value semantics: absent against zero entries,
// stage order, copy-on-write and the cached maximum.

TEST(JitterMapRow, AbsentAndZeroEntriesDiffer) {
  const StageKey st = StageKey::link(NodeId(1), NodeId(2));
  JitterMap a;
  a.resize_slots(1);
  JitterMap b = a;
  EXPECT_TRUE(b.set_jitter(FlowId(0), st, 0, gmfnet::Time::zero()));
  // Both read zero, but b holds an entry and a does not.
  EXPECT_EQ(a.jitter(FlowId(0), st, 0), b.jitter(FlowId(0), st, 0));
  EXPECT_FALSE(a.has_entries(FlowId(0)));
  EXPECT_TRUE(b.has_entries(FlowId(0)));
  EXPECT_FALSE(a.flow_equals(b, FlowId(0)));
  EXPECT_NE(a, b);
  ASSERT_EQ(b.stage_entries(FlowId(0)).size(), 1u);
  EXPECT_EQ(b.stage_entries(FlowId(0))[0].second,
            std::vector<gmfnet::Time>{gmfnet::Time::zero()});

  // A write past the last frame pads with explicit zeros; a read past the
  // frames stored reads zero without creating anything.
  EXPECT_TRUE(b.set_jitter(FlowId(0), st, 3, gmfnet::Time::us(5)));
  EXPECT_EQ(b.stage_entries(FlowId(0))[0].second.size(), 4u);
  EXPECT_EQ(b.jitter(FlowId(0), st, 2), gmfnet::Time::zero());
  EXPECT_EQ(b.jitter(FlowId(0), st, 9), gmfnet::Time::zero());
  EXPECT_EQ(b.stage_entries(FlowId(0))[0].second.size(), 4u);
  // Another stage of the same row is still absent.
  EXPECT_EQ(b.max_jitter(FlowId(0), StageKey::ingress(NodeId(2))),
            gmfnet::Time::zero());
  EXPECT_EQ(b.stage_entries(FlowId(0)).size(), 1u);
}

TEST(JitterMapRow, StageEntriesInStageKeyOrder) {
  // Keys installed out of order, across both kinds and node ids of both
  // signs (a checkpoint may carry any int32), frame vectors of different
  // lengths, and one stage replaced with a shorter vector.
  const std::vector<StageKey> keys = {
      StageKey::ingress(NodeId(7)),
      StageKey::link(NodeId(3), NodeId(1)),
      StageKey{StageKey::Kind::kLink, NodeId(-5), NodeId(2)},
      StageKey::link(NodeId(3), NodeId(0)),
      StageKey::ingress(NodeId(2)),
      StageKey{StageKey::Kind::kLink, NodeId(2147483647),
               NodeId(-2147483647 - 1)},
      StageKey::link(NodeId(0), NodeId(9)),
  };
  JitterMap m;
  std::map<StageKey, std::vector<gmfnet::Time>> expect;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::vector<gmfnet::Time> frames;
    for (std::size_t k = 0; k <= i % 3; ++k) {
      frames.push_back(gmfnet::Time::us(static_cast<std::int64_t>(10 * i + k)));
    }
    expect[keys[i]] = frames;
    m.set_stage_frames(FlowId(0), keys[i], std::move(frames));
  }
  m.set_stage_frames(FlowId(0), keys[3], {gmfnet::Time::us(99)});
  expect[keys[3]] = {gmfnet::Time::us(99)};
  m.set_jitter(FlowId(0), keys[0], 4, gmfnet::Time::us(44));
  expect[keys[0]].resize(5, gmfnet::Time::zero());
  expect[keys[0]][4] = gmfnet::Time::us(44);

  const JitterMap::StageEntries entries = m.stage_entries(FlowId(0));
  ASSERT_EQ(entries.size(), expect.size());
  auto it = expect.begin();
  for (const auto& [key, frames] : entries) {
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(frames, it->second);
    for (std::size_t k = 0; k < frames.size(); ++k) {
      EXPECT_EQ(m.jitter(FlowId(0), key, k), frames[k]);
    }
    gmfnet::Time max = gmfnet::Time::zero();
    for (const gmfnet::Time t : frames) max = gmfnet::max(max, t);
    EXPECT_EQ(m.max_jitter(FlowId(0), key), max);
    ++it;
  }

  // Rebuilt from its entries (the checkpoint restore path), the map is
  // value-equal.
  JitterMap restored;
  restored.resize_slots(m.flow_slots());
  for (const auto& [key, frames] : entries) {
    restored.set_stage_frames(FlowId(0), key, frames);
  }
  EXPECT_EQ(restored, m);
}

TEST(JitterMapRow, CopyOnWriteLeavesTheOtherCopyAlone) {
  const StageKey s0 = StageKey::link(NodeId(0), NodeId(1));
  const StageKey s1 = StageKey::ingress(NodeId(1));
  JitterMap a;
  a.set_jitter(FlowId(0), s0, 0, gmfnet::Time::us(1));
  a.set_jitter(FlowId(0), s0, 1, gmfnet::Time::us(2));
  a.set_jitter(FlowId(0), s1, 0, gmfnet::Time::us(3));
  a.set_jitter(FlowId(1), s0, 0, gmfnet::Time::us(4));
  const JitterMap::StageEntries before = a.stage_entries(FlowId(0));
  const std::uint64_t v0 = a.flow_version(FlowId(0));
  const std::uint64_t v1 = a.flow_version(FlowId(1));

  JitterMap b = a;
  // Every kind of write on the shared row: overwrite, grow a stage, add a
  // stage before the others (link keys order before ingress keys, then by
  // node ids), replace a stage's frames.
  EXPECT_TRUE(b.set_jitter(FlowId(0), s0, 0, gmfnet::Time::us(8)));
  EXPECT_TRUE(b.set_jitter(FlowId(0), s1, 2, gmfnet::Time::us(9)));
  b.set_stage_frames(FlowId(0), StageKey::link(NodeId(-1), NodeId(0)),
                     {gmfnet::Time::us(7)});
  b.set_stage_frames(FlowId(0), s0, {});

  EXPECT_EQ(a.stage_entries(FlowId(0)), before);
  EXPECT_EQ(a.flow_version(FlowId(0)), v0);
  EXPECT_EQ(a.max_jitter(FlowId(0), s0), gmfnet::Time::us(2));
  EXPECT_EQ(a.max_jitter(FlowId(0), s1), gmfnet::Time::us(3));
  EXPECT_NE(b.flow_version(FlowId(0)), v0);
  // The untouched flow is still shared: same version, equal by identity.
  EXPECT_EQ(b.flow_version(FlowId(1)), v1);
  EXPECT_TRUE(a.flow_equals(b, FlowId(1)));
  EXPECT_FALSE(a.flow_equals(b, FlowId(0)));

  const JitterMap::StageEntries after = b.stage_entries(FlowId(0));
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].first, StageKey::link(NodeId(-1), NodeId(0)));
  EXPECT_EQ(after[1].first, s0);
  EXPECT_TRUE(after[1].second.empty());  // an empty stage is still present
  EXPECT_EQ(after[2].first, s1);
  EXPECT_EQ(after[2].second,
            (std::vector<gmfnet::Time>{gmfnet::Time::us(3),
                                       gmfnet::Time::zero(),
                                       gmfnet::Time::us(9)}));
  EXPECT_EQ(b.max_jitter(FlowId(0), s0), gmfnet::Time::zero());
}

TEST(JitterMapRow, MaxIsExactAfterOverwritingTheMaximum) {
  const StageKey st = StageKey::ingress(NodeId(3));
  JitterMap m;
  const std::vector<std::int64_t> frames_us = {4, 9, 2, 9, 6};
  for (std::size_t k = 0; k < frames_us.size(); ++k) {
    m.set_jitter(FlowId(0), st, k, gmfnet::Time::us(frames_us[k]));
  }
  EXPECT_EQ(m.max_jitter(FlowId(0), st), gmfnet::Time::us(9));
  // One of two maxima lowered: still 9.
  m.set_jitter(FlowId(0), st, 1, gmfnet::Time::us(1));
  EXPECT_EQ(m.max_jitter(FlowId(0), st), gmfnet::Time::us(9));
  // The other one lowered: the rescan finds 6.
  m.set_jitter(FlowId(0), st, 3, gmfnet::Time::us(5));
  EXPECT_EQ(m.max_jitter(FlowId(0), st), gmfnet::Time::us(6));
  // Raised above, then lowered to below every other frame.
  m.set_jitter(FlowId(0), st, 2, gmfnet::Time::us(12));
  EXPECT_EQ(m.max_jitter(FlowId(0), st), gmfnet::Time::us(12));
  m.set_jitter(FlowId(0), st, 2, gmfnet::Time::zero());
  EXPECT_EQ(m.max_jitter(FlowId(0), st), gmfnet::Time::us(6));
  // A neighbouring stage's writes never move this stage's maximum.
  m.set_jitter(FlowId(0), StageKey::ingress(NodeId(2)), 0,
               gmfnet::Time::us(50));
  m.set_jitter(FlowId(0), StageKey::ingress(NodeId(4)), 7,
               gmfnet::Time::us(60));
  EXPECT_EQ(m.max_jitter(FlowId(0), st), gmfnet::Time::us(6));
  EXPECT_EQ(m.jitter(FlowId(0), st, 4), gmfnet::Time::us(6));
}

// Readers hold copies of a published map and read them while a writer
// keeps cloning rows shared with those copies: no reader ever sees a
// write (the copy-on-write contract the snapshot probes rely on).
TEST(JitterMapRow, ReadersOfCopiesNeverSeeTheWriterClone) {
  constexpr int kFlows = 8;
  constexpr std::size_t kFrames = 4;
  const StageKey stages[] = {StageKey::link(NodeId(0), NodeId(1)),
                             StageKey::ingress(NodeId(1)),
                             StageKey::link(NodeId(1), NodeId(2))};
  JitterMap writer;
  for (int f = 0; f < kFlows; ++f) {
    for (const StageKey& st : stages) {
      for (std::size_t k = 0; k < kFrames; ++k) {
        writer.set_jitter(FlowId(f), st, k, gmfnet::Time::us(f + 1));
      }
    }
  }
  const JitterMap published = writer;

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const JitterMap copy = published;  // a reader's own copy
        for (int f = 0; f < kFlows; ++f) {
          for (const StageKey& st : stages) {
            for (std::size_t k = 0; k < kFrames; ++k) {
              if (copy.jitter(FlowId(f), st, k) != gmfnet::Time::us(f + 1)) {
                bad.fetch_add(1);
              }
            }
            if (copy.max_jitter(FlowId(f), st) != gmfnet::Time::us(f + 1)) {
              bad.fetch_add(1);
            }
          }
          if (copy.stage_entries(FlowId(f)).size() != 3u) bad.fetch_add(1);
        }
        if (!(copy == published)) bad.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 300; ++round) {
    JitterMap w = published;  // shares every row with the readers
    for (int f = 0; f < kFlows; ++f) {
      w.set_jitter(FlowId(f), stages[round % 3], round % kFrames,
                   gmfnet::Time::us(1000 + round));
      w.set_stage_frames(FlowId(f), StageKey::ingress(NodeId(9)),
                         {gmfnet::Time::us(round)});
    }
    writer = std::move(w);
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_NE(writer, published);
}

}  // namespace
}  // namespace gmfnet::core
