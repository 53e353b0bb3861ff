// Gated admission (§3.5) through engine::AnalysisEngine: a flow is accepted
// iff, with it added, the holistic analysis converges and every frame of
// every flow still meets its deadline.
#include "engine/analysis_engine.hpp"

#include <gtest/gtest.h>

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

TEST(Admission, AcceptsFeasibleFlow) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine ac(star.net);
  const auto result = ac.try_admit(voip_between(star, 0, 1, "call0"));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->schedulable);
  EXPECT_EQ(ac.flow_count(), 1u);
}

TEST(Admission, RejectsOverload) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine ac(star.net);
  // 15000 bytes per 2 ms = 60 Mbit/s on a 10 Mbit/s link.
  gmf::Flow hog = gmf::make_sporadic_flow(
      "hog", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(2), gmfnet::Time::ms(2), 15000 * 8);
  EXPECT_FALSE(ac.try_admit(hog).has_value());
  EXPECT_EQ(ac.flow_count(), 0u);
}

TEST(Admission, RejectionLeavesAdmittedSetIntact) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine ac(star.net);
  ASSERT_TRUE(ac.try_admit(voip_between(star, 0, 1, "ok")).has_value());
  gmf::Flow hog = gmf::make_sporadic_flow(
      "hog", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(2), gmfnet::Time::ms(2), 15000 * 8);
  EXPECT_FALSE(ac.try_admit(hog).has_value());
  EXPECT_EQ(ac.flow_count(), 1u);
  EXPECT_EQ(ac.flow(0).name(), "ok");
  // Existing guarantees still hold.
  EXPECT_TRUE(ac.evaluate().schedulable);
}

TEST(Admission, ProtectsExistingFlows) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine ac(star.net);
  // An existing flow with a deadline just above its lone-flow bound...
  gmf::Flow fragile = gmf::make_sporadic_flow(
      "fragile", net::Route({star.hosts[0], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(30), gmfnet::Time::ms_f(3.0), 1000 * 8, 1);
  ASSERT_TRUE(ac.try_admit(fragile).has_value());
  // ...must be protected from a newcomer that would push it over, even if
  // the newcomer itself would be fine.
  gmf::Flow bully = gmf::make_sporadic_flow(
      "bully", net::Route({star.hosts[2], star.sw, star.hosts[1]}),
      gmfnet::Time::ms(30), gmfnet::Time::ms(30), 14000 * 8, 5);
  EXPECT_FALSE(ac.try_admit(bully).has_value());
  EXPECT_EQ(ac.flow_count(), 1u);
}

TEST(Admission, FillsUpThenSaturates) {
  const auto star = net::make_star_network(6, kSpeed);
  AnalysisEngine ac(star.net);
  // Admit voice calls 0->1 until the engine refuses; with 10 Mbit/s links
  // and ~0.8 Mbit/s per call including overheads, this must stop
  // eventually but accept at least one.
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    gmf::Flow call = voip_between(star, 0, 1, "c" + std::to_string(i));
    if (!ac.try_admit(call).has_value()) break;
    ++accepted;
  }
  EXPECT_GE(accepted, 1);
  EXPECT_LT(accepted, 100);
  EXPECT_EQ(ac.flow_count(), static_cast<std::size_t>(accepted));
}

TEST(Admission, RemoveFreesCapacity) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine ac(star.net);
  // Fill the 0->1 path.
  int accepted = 0;
  while (ac.try_admit(voip_between(star, 0, 1, "x")).has_value()) {
    ++accepted;
    ASSERT_LT(accepted, 200);
  }
  // Removing one admitted flow must allow a new one in again.
  EXPECT_TRUE(ac.remove_flow(0));
  EXPECT_TRUE(ac.try_admit(voip_between(star, 0, 1, "y")).has_value());
}

TEST(Admission, RemoveInRangeReturnsTrueAndShrinksSet) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine ac(star.net);
  ASSERT_TRUE(ac.try_admit(voip_between(star, 0, 1, "a")).has_value());
  ASSERT_TRUE(ac.try_admit(voip_between(star, 2, 3, "b")).has_value());
  EXPECT_TRUE(ac.remove_flow(0));
  ASSERT_EQ(ac.flow_count(), 1u);
  // Indices shift down: the surviving flow is now index 0.
  EXPECT_EQ(ac.flow(0).name(), "b");
}

TEST(Admission, RemoveOutOfRangeReturnsFalseAndIsNoop) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine ac(star.net);
  EXPECT_FALSE(ac.remove_flow(0));
  EXPECT_FALSE(ac.remove_flow(5));
  EXPECT_EQ(ac.flow_count(), 0u);
  ASSERT_TRUE(ac.try_admit(voip_between(star, 0, 1, "only")).has_value());
  // One past the end is still out of range.
  EXPECT_FALSE(ac.remove_flow(1));
  EXPECT_EQ(ac.flow_count(), 1u);
  EXPECT_EQ(ac.flow(0).name(), "only");
}

TEST(Admission, MalformedFlowThrowsInsteadOfRejecting) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine ac(star.net);
  gmf::Flow bad("bad", net::Route({star.hosts[0], star.hosts[1]}), {});
  EXPECT_THROW(ac.try_admit(bad), std::logic_error);
  EXPECT_EQ(ac.flow_count(), 0u);  // neither admitted nor silently dropped
}

}  // namespace
}  // namespace gmfnet::engine
