// Unit tests of the incremental AnalysisEngine: lazy dirty tracking, warm
// starts, cache reuse, what-if probes and batch admission.  The bit-exact
// incremental == from-scratch property is covered separately in
// test_engine_equivalence.cpp.
#include "engine/analysis_engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/hop_level.hpp"
#include "net/topology.hpp"
#include "workload/scenario.hpp"

namespace gmfnet::engine {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 10'000'000;

gmf::Flow voip_between(const net::StarNetwork& star, std::size_t a,
                       std::size_t b, const std::string& name) {
  return workload::make_voip_flow(
      name, net::Route({star.hosts[a], star.sw, star.hosts[b]}));
}

TEST(Engine, EmptySetEvaluatesSchedulable) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  const auto& r = eng.evaluate();
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  EXPECT_TRUE(r.flows.empty());
}

TEST(Engine, EvaluateIsMemoized) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  (void)eng.evaluate();
  const std::size_t evals = eng.stats().evaluations;
  // No mutation in between: the cached result is served as-is.
  (void)eng.evaluate();
  (void)eng.evaluate();
  EXPECT_EQ(eng.stats().evaluations, evals);
}

TEST(Engine, AddFlowReanalyzesOnlyItsComponent) {
  // Star with disjoint host pairs: flows share no links, so adding one must
  // not re-analyse the others.
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  ASSERT_TRUE(eng.evaluate().schedulable);

  const std::size_t analyses = eng.stats().flow_analyses;
  eng.add_flow(voip_between(star, 4, 5, "c"));
  const auto& r = eng.evaluate();
  EXPECT_TRUE(r.schedulable);
  ASSERT_EQ(r.flows.size(), 3u);
  // Two untouched flows reused.  The new flow's stages are analysed once,
  // in route order, with final inputs — exactly 1 per-flow analysis.
  EXPECT_EQ(eng.stats().flow_analyses - analyses, 1u);
  EXPECT_GE(eng.stats().flow_results_reused, 2u);
}

TEST(Engine, WarmStartConvergesInOnePassForIndependentAdd) {
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  (void)eng.evaluate();
  eng.add_flow(voip_between(star, 4, 5, "c"));
  EXPECT_EQ(eng.evaluate().sweeps, 1);
}

TEST(Engine, HubProbeAnalysesEachFlowOnce) {
  // An AV hub: 64 residents share one uplink (host 0 -> switch) near 80%
  // utilisation — every 4th a 25 fps camera feed (16 kB I-frame + three
  // 3 kB P-frames) above the VoIP legs.  A candidate call on the same
  // uplink puts all 65 flows in the probe's component.  The component
  // is feed-forward (uplink, switch ingress, downlink): every key is its
  // own component, so the link-ordered sweep analyses every flow once with
  // final inputs and confirms nothing: exactly 1 pass and 65 flow
  // analyses.  (A flow-major sweep needs 3 sweeps and 194 analyses here.)
  const auto star = net::make_star_network(8, 100'000'000);
  const auto hub_flow = [&](int n) {
    net::Route route({star.hosts[0], star.sw,
                      star.hosts[static_cast<std::size_t>(1 + n % 7)]});
    if (n % 4 != 0) {
      return workload::make_voip_flow("call" + std::to_string(n),
                                      std::move(route), gmfnet::Time::ms(80),
                                      /*priority=*/5);
    }
    std::vector<gmf::FrameSpec> frames;
    for (int k = 0; k < 4; ++k) {
      gmf::FrameSpec fs;
      fs.min_separation = gmfnet::Time::ms(40);
      fs.deadline = gmfnet::Time::ms(100);
      fs.jitter = gmfnet::Time::ms(1);
      fs.payload_bits = (k == 0 ? 16000 : 3000) * 8;
      frames.push_back(fs);
    }
    return gmf::Flow("cam" + std::to_string(n), std::move(route),
                     std::move(frames), /*priority=*/6);
  };
  AnalysisEngine eng(star.net);
  for (int n = 0; n < 64; ++n) eng.add_flow(hub_flow(n));
  ASSERT_TRUE(eng.evaluate().schedulable);
  const gmf::Flow candidate = hub_flow(65);

  const WhatIfResult lock_free = eng.snapshot()->what_if(candidate);
  EXPECT_TRUE(lock_free.admissible);
  EXPECT_EQ(lock_free.sweeps(), 1);

  // Same probe through the engine, whose counters record the solve.
  const EngineStats before = eng.stats();
  const WhatIfResult probe = eng.what_if(candidate);
  EXPECT_EQ(probe.sweeps(), 1);
  const EngineStats after = eng.stats();
  EXPECT_EQ(after.flow_analyses - before.flow_analyses, 65u);
  // Those 65 flows hold 339 per-frame hops (49 one-frame calls and 16
  // four-frame cameras, three stages each).  Within a group visit a hop is
  // run once per distinct key: at the uplink and the ingress FIFO one call
  // frame and the four camera frames (5 + 5); at each of the 7 downlinks
  // the same 5, the calls and cameras there split by priority (35).
  EXPECT_EQ(after.hops_run - before.hops_run, 45u);
  EXPECT_EQ(after.hops_shared - before.hops_shared, 294u);
  // The residents start from their seeded results, whose source JSUMs
  // hold already: the candidate's 3 per-frame JSUMs are written, and the
  // 112 resident frames' ingress and egress JSUMs behind the re-analysed
  // uplink and ingress FIFO (224).
  EXPECT_EQ(after.jsum_writes - before.jsum_writes, 227u);
}

// Change-driven re-solves on a two-leaf tree (root R, leaf S1 with hosts
// h0 and h1, leaf S2 with h2 and h3).  Residents: a = h0 -> S1 -> R -> S2
// -> h2, c = h1 -> S1 -> R -> S2 -> h3 (sharing S1->R and R->S2 with a), and
// b = h1 -> S1 -> h0 (sharing h1->S1 with c): one component.  Candidate
// d = h3 -> S2 -> h2 shares only a's last link, S2->h2.  Seeded with the
// residents' converged stage results, the probe re-analyses d and a's
// egress onto S2->h2; that egress is a's last stage, so no jitter it writes
// moves, and b and c keep every seeded result.
TEST(Engine, TreeProbeAndRemovalReanalyseOnlyChangedNodes) {
  const auto tree = net::make_tree_network(2, 2, kSpeed);
  const net::NodeId root = tree.root;
  const net::NodeId s1 = tree.switches[1];
  const net::NodeId s2 = tree.switches[2];
  const std::vector<net::NodeId>& h = tree.hosts;
  AnalysisEngine eng(tree.net);
  eng.add_flow(workload::make_voip_flow(
      "a", net::Route({h[0], s1, root, s2, h[2]})));
  eng.add_flow(workload::make_voip_flow("b", net::Route({h[1], s1, h[0]})));
  eng.add_flow(workload::make_voip_flow(
      "c", net::Route({h[1], s1, root, s2, h[3]})));
  ASSERT_TRUE(eng.evaluate().schedulable);
  ASSERT_EQ(eng.snapshot()->shard_count(), 1u);
  const gmf::Flow d =
      workload::make_voip_flow("d", net::Route({h[3], s2, h[2]}));

  // Probe: a and d analysed in one pass, nothing confirmed.  b and c are
  // kept.
  EngineStats before = eng.stats();
  const core::HopScratch::Gathers g0 = core::HopScratch::local().gathers();
  const WhatIfResult probe = eng.what_if(d);
  const core::HopScratch::Gathers g1 = core::HopScratch::local().gathers();
  EXPECT_TRUE(probe.admissible);
  EXPECT_EQ(probe.sweeps(), 1);
  EngineStats after = eng.stats();
  EXPECT_EQ(after.flow_analyses - before.flow_analyses, 2u);
  EXPECT_EQ(after.flow_results_reused - before.flow_results_reused, 2u);
  // d's three stages and a's egress, which shares no result with d's: a
  // arrives at S2 with a larger shift.
  EXPECT_EQ(after.hops_run - before.hops_run, 4u);
  EXPECT_EQ(after.hops_shared - before.hops_shared, 0u);
  // The plan is the forward closure of d's links: d's three stages and
  // a's egress onto S2->h2.  Only d's (one-frame) JSUMs are written: a's
  // egress JSUM holds already, since the ingress before it is not
  // re-analysed.
  EXPECT_EQ(after.jsum_writes - before.jsum_writes, 3u);
  // The probe adds d to the cached base, so each table it reads (d's
  // uplink, the FIFO behind it, S2->h2) re-gathers once on the moved
  // context stamp.  No member's jitter version forces one.
  EXPECT_EQ(g1.context - g0.context, 3u);
  EXPECT_EQ(g1.version - g0.version, 0u);

  // The commit of d re-solves the same way.
  eng.add_flow(d);
  before = eng.stats();
  ASSERT_TRUE(eng.evaluate().schedulable);
  after = eng.stats();
  EXPECT_EQ(after.flow_analyses - before.flow_analyses, 2u);
  EXPECT_EQ(after.flow_results_reused - before.flow_results_reused, 2u);
  EXPECT_EQ(after.jsum_writes - before.jsum_writes, 3u);

  // Removing d again: the tree's key graph is acyclic, so the solve
  // descends from the seed.  Only a's egress onto S2->h2 is re-analysed; it
  // moves no jitter.  b and c are kept.
  ASSERT_TRUE(eng.remove_flow(3));
  before = eng.stats();
  const core::HolisticResult& r = eng.evaluate();
  after = eng.stats();
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.sweeps, 1);
  EXPECT_EQ(after.flow_analyses - before.flow_analyses, 1u);
  EXPECT_EQ(after.flow_results_reused - before.flow_results_reused, 2u);
  // No flow is unseeded and a's egress JSUM holds: nothing is written.
  EXPECT_EQ(after.jsum_writes - before.jsum_writes, 0u);
}

TEST(Engine, RemoveFlowShiftsIndicesAndFreesCapacity) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  // Fill the 0->1 path.
  int accepted = 0;
  while (eng.try_admit(voip_between(star, 0, 1, "x" + std::to_string(accepted)))
             .has_value()) {
    ++accepted;
    ASSERT_LT(accepted, 200);
  }
  ASSERT_GE(accepted, 1);
  EXPECT_TRUE(eng.remove_flow(0));
  EXPECT_EQ(eng.flow_count(), static_cast<std::size_t>(accepted - 1));
  EXPECT_TRUE(eng.try_admit(voip_between(star, 0, 1, "y")).has_value());
}

TEST(Engine, RemoveOutOfRangeReturnsFalse) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  EXPECT_FALSE(eng.remove_flow(0));
  eng.add_flow(voip_between(star, 0, 1, "a"));
  EXPECT_FALSE(eng.remove_flow(1));
  EXPECT_TRUE(eng.remove_flow(0));
  EXPECT_EQ(eng.flow_count(), 0u);
}

TEST(Engine, TryAdmitRejectsWithoutCommitting) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  ASSERT_TRUE(eng.try_admit(voip_between(star, 0, 1, "ok")).has_value());
  // 15000 bytes per 2 ms = 60 Mbit/s on a 10 Mbit/s link.
  gmf::Flow hog = gmf::make_sporadic_flow(
      "hog", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(2), gmfnet::Time::ms(2), 15000 * 8);
  EXPECT_FALSE(eng.try_admit(hog).has_value());
  ASSERT_EQ(eng.flow_count(), 1u);
  EXPECT_EQ(eng.flow(0).name(), "ok");
  // The cached state survived the rejected probe.
  EXPECT_TRUE(eng.evaluate().schedulable);
}

TEST(Engine, WhatIfDoesNotCommit) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  const WhatIfResult w = eng.what_if(voip_between(star, 2, 3, "probe"));
  EXPECT_TRUE(w.admissible);
  EXPECT_EQ(w.result().flows.size(), 2u);  // resident + candidate
  EXPECT_EQ(eng.flow_count(), 1u);       // nothing committed
}

TEST(Engine, MalformedCandidateThrows) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  gmf::Flow bad("bad", net::Route({star.hosts[0], star.hosts[1]}), {});
  EXPECT_THROW(eng.try_admit(bad), std::logic_error);
  EXPECT_THROW(eng.what_if(bad), std::logic_error);
  EXPECT_THROW(eng.add_flow(bad), std::logic_error);
  EXPECT_THROW((void)eng.evaluate_batch({bad}), std::logic_error);
  EXPECT_EQ(eng.flow_count(), 0u);
}

TEST(Engine, EvaluateBatchMatchesIndividualProbes) {
  const auto star = net::make_star_network(10, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  (void)eng.evaluate();

  std::vector<gmf::Flow> cands;
  cands.push_back(voip_between(star, 4, 5, "c0"));
  cands.push_back(voip_between(star, 6, 7, "c1"));
  cands.push_back(gmf::make_sporadic_flow(
      "hog", net::Route({star.hosts[8], star.sw, star.hosts[9]}),
      gmfnet::Time::ms(2), gmfnet::Time::ms(2), 15000 * 8));

  const auto batch = eng.evaluate_batch(cands);
  ASSERT_EQ(batch.size(), cands.size());
  EXPECT_EQ(eng.flow_count(), 2u);  // probes are independent, uncommitted

  for (std::size_t i = 0; i < cands.size(); ++i) {
    const WhatIfResult solo = eng.what_if(cands[i]);
    EXPECT_EQ(batch[i].admissible, solo.admissible) << "candidate " << i;
    EXPECT_EQ(batch[i].result().schedulable, solo.result().schedulable);
    if (solo.result().converged) {
      EXPECT_TRUE(batch[i].result().jitters == solo.result().jitters)
          << "candidate " << i;
    }
  }
  EXPECT_TRUE(batch[0].admissible);
  EXPECT_TRUE(batch[1].admissible);
  EXPECT_FALSE(batch[2].admissible);
}

TEST(Engine, EngineSurvivesUnschedulableResidentSet) {
  // add_flow is ungated, so the resident set can become unschedulable (or
  // even diverging); evaluate must report it and recover after removal.
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "ok"));
  eng.add_flow(gmf::make_sporadic_flow(
      "hog", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(2), gmfnet::Time::ms(2), 15000 * 8));
  EXPECT_FALSE(eng.evaluate().schedulable);
  EXPECT_TRUE(eng.remove_flow(1));
  const auto& r = eng.evaluate();
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedulable);
  ASSERT_EQ(r.flows.size(), 1u);
}

}  // namespace
}  // namespace gmfnet::engine
