// Strongly-typed identifiers for nodes and flows.
#pragma once

#include <cstdint>
#include <functional>

namespace gmfnet::net {

/// Index of a node within a Network; dense, assigned in insertion order.
struct NodeId {
  std::int32_t v = -1;

  constexpr NodeId() = default;
  constexpr explicit NodeId(std::int32_t value) : v(value) {}
  [[nodiscard]] constexpr bool valid() const { return v >= 0; }
  constexpr auto operator<=>(const NodeId&) const = default;
};

/// Index of a flow within a flow set.
struct FlowId {
  std::int32_t v = -1;

  constexpr FlowId() = default;
  constexpr explicit FlowId(std::int32_t value) : v(value) {}
  [[nodiscard]] constexpr bool valid() const { return v >= 0; }
  constexpr auto operator<=>(const FlowId&) const = default;
};

/// Dense index of a directed link within its Network: the position of the
/// link in Network::links(), assigned in insertion order.
using LinkId = std::uint32_t;
/// LinkId of a link the network does not have.
inline constexpr LinkId kNoLink = ~LinkId{0};

/// A directed link, identified by its endpoints.  The paper writes
/// link(N1,N2); each physical full-duplex Ethernet cable is two of these.
struct LinkRef {
  NodeId src;
  NodeId dst;

  constexpr LinkRef() = default;
  constexpr LinkRef(NodeId s, NodeId d) : src(s), dst(d) {}
  constexpr auto operator<=>(const LinkRef&) const = default;
};

}  // namespace gmfnet::net

template <>
struct std::hash<gmfnet::net::NodeId> {
  std::size_t operator()(gmfnet::net::NodeId id) const noexcept {
    return std::hash<std::int32_t>{}(id.v);
  }
};

template <>
struct std::hash<gmfnet::net::FlowId> {
  std::size_t operator()(gmfnet::net::FlowId id) const noexcept {
    return std::hash<std::int32_t>{}(id.v);
  }
};

