#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmfnet::net {

NodeId Network::add_node(NodeKind kind, std::string name) {
  NodeId id(static_cast<std::int32_t>(nodes_.size()));
  Node n;
  n.kind = kind;
  n.name = name.empty() ? "n" + std::to_string(id.v) : std::move(name);
  nodes_.push_back(std::move(n));
  succ_.emplace_back();
  pred_.emplace_back();
  out_.emplace_back();
  return id;
}

NodeId Network::add_switch(std::string name, SwitchParams params) {
  NodeId id = add_node(NodeKind::kSwitch, std::move(name));
  nodes_[static_cast<std::size_t>(id.v)].sw = params;
  return id;
}

void Network::add_link(NodeId src, NodeId dst,
                       ethernet::LinkSpeedBps speed_bps, gmfnet::Time prop) {
  if (!has_node(src) || !has_node(dst)) {
    throw std::invalid_argument("add_link: unknown node");
  }
  if (src == dst) {
    throw std::invalid_argument("add_link: self-loop");
  }
  if (speed_bps <= 0) {
    throw std::invalid_argument("add_link: non-positive link speed");
  }
  if (prop < gmfnet::Time::zero()) {
    throw std::invalid_argument("add_link: negative propagation delay");
  }
  std::vector<OutLink>& out = out_[static_cast<std::size_t>(src.v)];
  const auto at = lower_bound_dst(out, dst);
  if (at != out.end() && at->dst == dst) {
    throw std::invalid_argument("add_link: duplicate link");
  }
  out.insert(at, OutLink{dst, static_cast<LinkId>(links_.size())});
  links_.push_back(Link{src, dst, speed_bps, prop});
  succ_[static_cast<std::size_t>(src.v)].push_back(dst);
  pred_[static_cast<std::size_t>(dst.v)].push_back(src);
}

void Network::add_duplex_link(NodeId a, NodeId b,
                              ethernet::LinkSpeedBps speed_bps,
                              gmfnet::Time prop) {
  add_link(a, b, speed_bps, prop);
  add_link(b, a, speed_bps, prop);
}

const Node& Network::node(NodeId id) const {
  if (!has_node(id)) throw std::out_of_range("node: bad id");
  return nodes_[static_cast<std::size_t>(id.v)];
}

Node& Network::node(NodeId id) {
  if (!has_node(id)) throw std::out_of_range("node: bad id");
  return nodes_[static_cast<std::size_t>(id.v)];
}

LinkId Network::link_id(NodeId src, NodeId dst) const {
  if (!has_node(src)) return kNoLink;
  const std::vector<OutLink>& out = out_[static_cast<std::size_t>(src.v)];
  const auto at = lower_bound_dst(out, dst);
  return at != out.end() && at->dst == dst ? at->id : kNoLink;
}

std::vector<LinkId> Network::link_ids_in_ref_order() const {
  std::vector<LinkId> ids;
  ids.reserve(links_.size());
  for (const std::vector<OutLink>& out : out_) {
    for (const OutLink& o : out) ids.push_back(o.id);
  }
  return ids;
}

const Link& Network::link(NodeId src, NodeId dst) const {
  const LinkId id = link_id(src, dst);
  if (id == kNoLink) {
    throw std::out_of_range("link: no such link " + std::to_string(src.v) +
                            "->" + std::to_string(dst.v));
  }
  return links_[id];
}

const std::vector<NodeId>& Network::successors(NodeId id) const {
  if (!has_node(id)) throw std::out_of_range("successors: bad id");
  return succ_[static_cast<std::size_t>(id.v)];
}

const std::vector<NodeId>& Network::predecessors(NodeId id) const {
  if (!has_node(id)) throw std::out_of_range("predecessors: bad id");
  return pred_[static_cast<std::size_t>(id.v)];
}

int Network::ninterfaces(NodeId id) const {
  // Count distinct neighbours over both directions: a full-duplex cable
  // (two directed links) is one physical interface.
  std::vector<NodeId> nbrs = successors(id);
  const auto& in = predecessors(id);
  nbrs.insert(nbrs.end(), in.begin(), in.end());
  std::sort(nbrs.begin(), nbrs.end());
  nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  return static_cast<int>(nbrs.size());
}

std::vector<NodeId> Network::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == kind) out.emplace_back(static_cast<std::int32_t>(i));
  }
  return out;
}

void Network::validate() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeId id(static_cast<std::int32_t>(i));
    const Node& n = nodes_[i];
    if (n.kind == NodeKind::kSwitch) {
      if (ninterfaces(id) < 1) {
        throw std::logic_error("validate: switch " + n.name +
                               " has no interfaces");
      }
      if (n.sw.processors < 1) {
        throw std::logic_error("validate: switch " + n.name +
                               " has no processors");
      }
      if (n.sw.croute <= gmfnet::Time::zero() ||
          n.sw.csend <= gmfnet::Time::zero()) {
        throw std::logic_error("validate: switch " + n.name +
                               " has non-positive task costs");
      }
    }
  }
  for (const Link& l : links_) {
    if (l.speed_bps <= 0) throw std::logic_error("validate: bad link speed");
  }
}

}  // namespace gmfnet::net
