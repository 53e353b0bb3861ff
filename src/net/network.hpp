// The modelled network: a directed graph of nodes and links.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "net/link.hpp"
#include "net/node.hpp"

namespace gmfnet::net {

/// Directed multigraph-free network graph.  Links are unique per (src, dst)
/// ordered pair; a full-duplex cable is added as two directed links (see
/// `add_duplex_link`).
class Network {
 public:
  /// Adds a node and returns its id. Names are for diagnostics only and need
  /// not be unique (empty gets an auto name like "n3").
  NodeId add_node(NodeKind kind, std::string name = {});
  NodeId add_endhost(std::string name = {}) {
    return add_node(NodeKind::kEndHost, std::move(name));
  }
  NodeId add_switch(std::string name = {}, SwitchParams params = {});
  NodeId add_router(std::string name = {}) {
    return add_node(NodeKind::kRouter, std::move(name));
  }

  /// Adds a directed link; rejects duplicates and self-loops (throws
  /// std::invalid_argument).
  void add_link(NodeId src, NodeId dst, ethernet::LinkSpeedBps speed_bps,
                gmfnet::Time prop = gmfnet::Time::zero());

  /// Adds both directions with identical attributes.
  void add_duplex_link(NodeId a, NodeId b, ethernet::LinkSpeedBps speed_bps,
                       gmfnet::Time prop = gmfnet::Time::zero());

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] bool has_node(NodeId id) const {
    return id.v >= 0 && static_cast<std::size_t>(id.v) < nodes_.size();
  }

  [[nodiscard]] bool has_link(NodeId src, NodeId dst) const {
    return link_id(src, dst) != kNoLink;
  }
  /// The dense id of link (src, dst) — its index in links() — or kNoLink.
  /// A search of src's outgoing links sorted by destination: no hashing.
  [[nodiscard]] LinkId link_id(NodeId src, NodeId dst) const;
  [[nodiscard]] LinkId link_id(LinkRef ref) const {
    return link_id(ref.src, ref.dst);
  }
  /// Every link id in LinkRef order (source, then destination), built in
  /// O(links) from the sorted adjacency.
  [[nodiscard]] std::vector<LinkId> link_ids_in_ref_order() const;
  [[nodiscard]] const Link& link(NodeId src, NodeId dst) const;
  [[nodiscard]] const Link& link(LinkRef ref) const {
    return link(ref.src, ref.dst);
  }

  /// linkspeed(N1,N2) / prop(N1,N2) accessors in the paper's vocabulary.
  [[nodiscard]] ethernet::LinkSpeedBps linkspeed(NodeId src, NodeId dst) const {
    return link(src, dst).speed_bps;
  }
  [[nodiscard]] gmfnet::Time prop(NodeId src, NodeId dst) const {
    return link(src, dst).prop;
  }

  /// Outgoing / incoming neighbor node ids.
  [[nodiscard]] const std::vector<NodeId>& successors(NodeId id) const;
  [[nodiscard]] const std::vector<NodeId>& predecessors(NodeId id) const;

  /// NINTERFACES(N): number of network interfaces on a node = its degree in
  /// the undirected sense (each attached cable is one interface).
  [[nodiscard]] int ninterfaces(NodeId id) const;

  /// All links, in insertion order.
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  /// All node ids of a given kind.
  [[nodiscard]] std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

  /// Structural sanity checks (every switch has >= 1 interface, speeds
  /// positive...). Throws std::logic_error with a description on failure.
  void validate() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  /// Per source node: its outgoing links as (destination, id), sorted by
  /// destination.
  struct OutLink {
    NodeId dst;
    LinkId id;
  };
  /// The first entry of `out` whose destination is not below `dst`.
  template <typename Vec>
  static auto lower_bound_dst(Vec& out, NodeId dst) {
    return std::lower_bound(
        out.begin(), out.end(), dst,
        [](const OutLink& o, NodeId d) { return o.dst < d; });
  }
  std::vector<std::vector<OutLink>> out_;
  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;
};

}  // namespace gmfnet::net
