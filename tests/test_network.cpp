#include "net/network.hpp"

#include <gtest/gtest.h>

namespace gmfnet::net {
namespace {

TEST(Network, AddNodesAssignsSequentialIds) {
  Network n;
  const NodeId a = n.add_endhost("a");
  const NodeId b = n.add_switch("b");
  const NodeId c = n.add_router("c");
  EXPECT_EQ(a.v, 0);
  EXPECT_EQ(b.v, 1);
  EXPECT_EQ(c.v, 2);
  EXPECT_EQ(n.node_count(), 3u);
  EXPECT_EQ(n.node(a).kind, NodeKind::kEndHost);
  EXPECT_EQ(n.node(b).kind, NodeKind::kSwitch);
  EXPECT_EQ(n.node(c).kind, NodeKind::kRouter);
}

TEST(Network, AutoNamesWhenEmpty) {
  Network n;
  const NodeId a = n.add_endhost();
  EXPECT_EQ(n.node(a).name, "n0");
}

TEST(Network, SwitchParamsStored) {
  Network n;
  SwitchParams p;
  p.croute = gmfnet::Time::us(3);
  p.processors = 4;
  const NodeId s = n.add_switch("s", p);
  EXPECT_EQ(n.node(s).sw.croute, gmfnet::Time::us(3));
  EXPECT_EQ(n.node(s).sw.processors, 4);
}

TEST(Network, LinkAttributes) {
  Network n;
  const NodeId a = n.add_endhost();
  const NodeId s = n.add_switch();
  n.add_link(a, s, 10'000'000, gmfnet::Time::us(5));
  EXPECT_TRUE(n.has_link(a, s));
  EXPECT_FALSE(n.has_link(s, a));
  EXPECT_EQ(n.linkspeed(a, s), 10'000'000);
  EXPECT_EQ(n.prop(a, s), gmfnet::Time::us(5));
}

TEST(Network, DuplexAddsBothDirections) {
  Network n;
  const NodeId a = n.add_endhost();
  const NodeId s = n.add_switch();
  n.add_duplex_link(a, s, 1'000'000'000);
  EXPECT_TRUE(n.has_link(a, s));
  EXPECT_TRUE(n.has_link(s, a));
  EXPECT_EQ(n.link_count(), 2u);
}

TEST(Network, RejectsBadLinks) {
  Network n;
  const NodeId a = n.add_endhost();
  const NodeId s = n.add_switch();
  EXPECT_THROW(n.add_link(a, a, 1000), std::invalid_argument);
  EXPECT_THROW(n.add_link(a, NodeId(99), 1000), std::invalid_argument);
  EXPECT_THROW(n.add_link(a, s, 0), std::invalid_argument);
  EXPECT_THROW(n.add_link(a, s, -5), std::invalid_argument);
  EXPECT_THROW(n.add_link(a, s, 1000, gmfnet::Time(-1)),
               std::invalid_argument);
  n.add_link(a, s, 1000);
  EXPECT_THROW(n.add_link(a, s, 1000), std::invalid_argument);  // duplicate
}

TEST(Network, SuccessorsAndPredecessors) {
  Network n;
  const NodeId a = n.add_endhost();
  const NodeId s = n.add_switch();
  const NodeId b = n.add_endhost();
  n.add_duplex_link(a, s, 1000);
  n.add_link(s, b, 1000);
  EXPECT_EQ(n.successors(s).size(), 2u);
  EXPECT_EQ(n.predecessors(s).size(), 1u);
  EXPECT_EQ(n.predecessors(b).size(), 1u);
  EXPECT_TRUE(n.successors(b).empty());
}

TEST(Network, NinterfacesCountsDistinctNeighbours) {
  Network n;
  const NodeId s = n.add_switch();
  const NodeId a = n.add_endhost();
  const NodeId b = n.add_endhost();
  n.add_duplex_link(s, a, 1000);  // duplex cable = ONE interface
  n.add_link(s, b, 1000);         // simplex link still occupies a port
  EXPECT_EQ(n.ninterfaces(s), 2);
  EXPECT_EQ(n.ninterfaces(a), 1);
}

TEST(Network, NodesOfKind) {
  Network n;
  n.add_endhost();
  n.add_switch();
  n.add_switch();
  n.add_router();
  EXPECT_EQ(n.nodes_of_kind(NodeKind::kSwitch).size(), 2u);
  EXPECT_EQ(n.nodes_of_kind(NodeKind::kEndHost).size(), 1u);
  EXPECT_EQ(n.nodes_of_kind(NodeKind::kRouter).size(), 1u);
}

TEST(Network, ValidateRejectsIsolatedSwitch) {
  Network n;
  n.add_switch("lonely");
  EXPECT_THROW(n.validate(), std::logic_error);
}

TEST(Network, ValidateRejectsBadSwitchParams) {
  Network n;
  SwitchParams p;
  p.processors = 0;
  const NodeId s = n.add_switch("s", p);
  const NodeId a = n.add_endhost();
  n.add_duplex_link(s, a, 1000);
  EXPECT_THROW(n.validate(), std::logic_error);
}

TEST(Network, ValidateAcceptsWellFormed) {
  Network n;
  const NodeId s = n.add_switch();
  const NodeId a = n.add_endhost();
  n.add_duplex_link(s, a, 1000);
  EXPECT_NO_THROW(n.validate());
}

TEST(Network, OutOfRangeAccessThrows) {
  Network n;
  EXPECT_THROW((void)n.node(NodeId(0)), std::out_of_range);
  const NodeId a = n.add_endhost();
  const NodeId b = n.add_endhost();
  EXPECT_THROW((void)n.link(a, b), std::out_of_range);
  EXPECT_THROW((void)n.successors(NodeId(9)), std::out_of_range);
}

TEST(Network, LinkIdsAreInsertionIndicesAndRankInRefOrder) {
  Network n;
  const NodeId a = n.add_endhost("a");
  const NodeId b = n.add_switch("b");
  const NodeId c = n.add_endhost("c");
  // Added out of LinkRef order on purpose.
  n.add_link(b, c, 1'000'000);  // id 0
  n.add_link(a, b, 1'000'000);  // id 1
  n.add_link(b, a, 1'000'000);  // id 2
  n.add_link(c, b, 1'000'000);  // id 3
  EXPECT_EQ(n.link_id(b, c), 0u);
  EXPECT_EQ(n.link_id(LinkRef(a, b)), 1u);
  EXPECT_EQ(n.link_id(b, a), 2u);
  EXPECT_EQ(n.link_id(c, b), 3u);
  for (LinkId id = 0; id < n.link_count(); ++id) {
    const Link& l = n.links()[id];
    EXPECT_EQ(n.link_id(l.src, l.dst), id);
  }
  EXPECT_EQ(n.link_id(a, c), kNoLink);
  EXPECT_EQ(n.link_id(c, a), kNoLink);
  EXPECT_EQ(n.link_id(NodeId(7), a), kNoLink);
  EXPECT_FALSE(n.has_link(a, c));
  EXPECT_TRUE(n.has_link(c, b));

  // (a,b) < (b,a) < (b,c) < (c,b).
  EXPECT_EQ(n.link_ids_in_ref_order(), (std::vector<LinkId>{1, 2, 0, 3}));
  // Successors keep insertion order; only the lookup index is sorted.
  EXPECT_EQ(n.successors(b), (std::vector<NodeId>{c, a}));
}

}  // namespace
}  // namespace gmfnet::net
