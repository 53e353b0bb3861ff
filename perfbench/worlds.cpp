#include "worlds.hpp"

#include <stdexcept>
#include <utility>

#include "campus_topology.hpp"
#include "net/shortest_path.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace perfbench {

using gmfnet::Rng;
using gmfnet::Time;
using gmfnet::gmf::Flow;
using gmfnet::gmf::FrameSpec;
using gmfnet::net::NodeId;
using gmfnet::net::Route;

namespace {

using gmfnet::benchtopo::Campus;
using gmfnet::benchtopo::kHostsPerCell;
using gmfnet::benchtopo::kSpeed;

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// The benchmark campus: make_campus with each cell's hosts relabelled by
/// the seed.  Star cells are symmetric, so every seed gives the same
/// analysis cost while flows land on different hosts.
Campus seeded_campus(int cells, Rng& rng) {
  Campus c = gmfnet::benchtopo::make_campus(cells);
  for (std::vector<NodeId>& hosts : c.hosts) shuffle(hosts, rng);
  return c;
}

Flow voip(std::string name, Route route, int deadline_ms,
          std::int64_t priority) {
  return gmfnet::workload::make_voip_flow(std::move(name), std::move(route),
                                          Time::ms(deadline_ms), priority);
}

Workload campus_poll(std::uint64_t seed) {
  constexpr int kCells = 64;
  constexpr int kResidents = 1024;  // 4 per host pair, calls and cameras
  Rng rng(seed);
  Campus c = seeded_campus(kCells, rng);
  Workload w;
  w.name = "campus_poll";
  int n = 0;
  for (; n < kResidents; ++n) {
    w.world.flows.push_back(gmfnet::benchtopo::resident_flow(c, kCells, n));
  }
  // Probes: the next resident of every host pair; churn: one more call in
  // each cell.
  for (int i = 0; i < 256; ++i, ++n) {
    w.candidates.push_back(gmfnet::benchtopo::resident_flow(c, kCells, n));
  }
  for (int j = 0; j < kCells; ++j, ++n) {
    w.churn.push_back(gmfnet::benchtopo::voip_resident_flow(c, kCells, n));
  }
  w.world.network = std::move(c.net);
  w.batch = 1;
  w.probe_conns = 2;
  w.probe_depth = 1;
  w.pace_us = 10000;
  w.busy_gen = 2;
  return w;
}

Workload hub_poll(std::uint64_t seed) {
  constexpr int kHubs = 4;
  constexpr int kSide = 4;
  constexpr int kPerHub = 64;
  Rng rng(seed);
  // Cells 0-3 are the hubs, 4-7 the quiet side cells the writer churns in.
  Campus c = seeded_campus(kHubs + kSide, rng);
  Workload w;
  w.name = "hub_poll";
  // av_hub_flow sources every flow of a hub at its host 0, so each hub is
  // one 64-flow locality domain near 80% uplink utilisation.
  for (int n = 0; n < kHubs * kPerHub; ++n) {
    w.world.flows.push_back(gmfnet::benchtopo::av_hub_flow(c, kHubs, n));
  }
  // Side cells: two calls each way per host pair.
  const auto side_call = [&c](int side, int pair, bool reverse,
                              const std::string& name) {
    const auto cell = static_cast<std::size_t>(kHubs + side);
    NodeId a = c.hosts[cell][static_cast<std::size_t>(2 * pair)];
    NodeId b = c.hosts[cell][static_cast<std::size_t>(2 * pair + 1)];
    if (reverse) std::swap(a, b);
    return voip(name, Route({a, c.switches[cell], b}), 20, 5);
  };
  for (int side = 0; side < kSide; ++side) {
    for (int pair = 0; pair < kHostsPerCell / 2; ++pair) {
      for (int k = 0; k < 4; ++k) {
        const std::string name = "side" + std::to_string(w.world.flows.size());
        w.world.flows.push_back(side_call(side, pair, k % 2 == 1, name));
      }
    }
  }
  // Batch g holds the next call of each hub domain (camera indices are
  // skipped, so every probe is a regional call).
  for (int m = kPerHub; w.candidates.size() < 256; ++m) {
    if (m % 4 == 0) continue;
    for (int h = 0; h < kHubs; ++h) {
      w.candidates.push_back(
          gmfnet::benchtopo::av_hub_flow(c, kHubs, m * kHubs + h));
    }
  }
  // One churn call per side cell: few enough that the mirror can answer
  // every probe in each world the closed-loop writer publishes.
  for (int j = 0; j < kSide; ++j) {
    const auto pair = static_cast<int>(rng.next_below(kHostsPerCell / 2));
    const bool reverse = rng.next_below(2) == 1;
    w.churn.push_back(side_call(j, pair, reverse, "churn" + std::to_string(j)));
  }
  w.world.network = std::move(c.net);
  w.batch = kHubs;
  w.probe_conns = 1;
  w.probe_depth = 1;
  w.pace_us = 0;
  w.busy_gen = 1;
  return w;
}

/// Deadline-monotonic priority: shorter deadline, higher priority; the
/// unique `tie` keeps priorities distinct, so the interference graph of
/// flows sharing links is acyclic.
std::int64_t dm_priority(int deadline_ms, int tie) {
  return static_cast<std::int64_t>(1000 - deadline_ms) * 1000 + tie;
}

/// One of four traffic classes of the tree workload.
Flow tree_flow(Route route, int cls, int tie, const std::string& name) {
  switch (cls) {
    case 0:  // control loop: 200 B every 10 ms, 10 ms deadline
      return gmfnet::gmf::make_sporadic_flow(name, std::move(route),
                                             Time::ms(10), Time::ms(10),
                                             200 * 8, dm_priority(10, tie));
    case 1:
      return voip(name, std::move(route), 20, dm_priority(20, tie));
    case 2:
      return voip(name, std::move(route), 40, dm_priority(40, tie));
    default: {  // camera_flow with an 8 kB I-frame
      std::vector<FrameSpec> frames =
          gmfnet::benchtopo::camera_flow(name, route).frames();
      frames[0].payload_bits = 8000 * 8;
      return Flow(name, std::move(route), std::move(frames),
                  dm_priority(100, tie));
    }
  }
}

Workload tree_churn(std::uint64_t seed) {
  constexpr std::size_t kHostsPerLeaf = 4;
  Rng rng(seed);
  gmfnet::net::TreeNetwork tree =
      gmfnet::net::make_tree_network(4, kHostsPerLeaf, kSpeed);
  Workload w;
  w.name = "tree_churn";
  // The flow pattern below is fixed; the seed picks one of the tree's
  // automorphisms to lay it out (swap the root's subtrees, swap sibling
  // subtrees and sibling leaves, permute each leaf's hosts), so every seed
  // gives different routes over an equally costly world.  Leaves 0-3 hang
  // under the root's left subtree, 4-7 under its right; leaves 2m and
  // 2m+1 share a parent.
  std::vector<std::size_t> leaf_of(8);
  const std::size_t flip_half = rng.next_below(2);
  for (std::size_t half = 0; half < 2; ++half) {
    const std::size_t flip_parent = rng.next_below(2);
    for (std::size_t parent = 0; parent < 2; ++parent) {
      const std::size_t flip_leaf = rng.next_below(2);
      for (std::size_t leaf = 0; leaf < 2; ++leaf) {
        leaf_of[half * 4 + parent * 2 + leaf] = (half ^ flip_half) * 4 +
                                                (parent ^ flip_parent) * 2 +
                                                (leaf ^ flip_leaf);
      }
    }
  }
  std::vector<std::vector<std::size_t>> host_of(8);
  for (std::vector<std::size_t>& hosts : host_of) {
    for (std::size_t h = 0; h < kHostsPerLeaf; ++h) hosts.push_back(h);
    shuffle(hosts, rng);
  }
  const auto host = [&](std::size_t leaf, std::size_t h) {
    const std::size_t l = leaf_of[leaf];
    return tree.hosts[l * kHostsPerLeaf + host_of[l][h % kHostsPerLeaf]];
  };
  const auto route_of = [&](NodeId a, NodeId b) {
    auto r = gmfnet::net::shortest_route(tree.net, a, b);
    if (!r) throw std::logic_error("tree_churn: hosts not connected");
    return *r;
  };
  // A route inside one subtree from `leaf`: to its sibling leaf (3
  // switches) or to a leaf under the other parent (5 switches).
  const auto inside = [&](std::size_t leaf, std::size_t src_host,
                          std::size_t dst_host, bool far) {
    const std::size_t base = leaf / 4 * 4;
    const std::size_t dst = far ? base + (leaf - base + 2) % 4 : leaf ^ 1;
    return route_of(host(leaf, src_host), host(dst, dst_host));
  };
  // Per subtree: every host sources 4 flows, half near and half far, and
  // every (leaf, distance) pair carries all four traffic classes.
  int tie = 0;
  for (std::size_t half = 0; half < 2; ++half) {
    for (std::size_t h = 0; h < kHostsPerLeaf; ++h) {
      for (std::size_t k = 0; k < 16; ++k) {
        const std::string name = "r" + std::to_string(tie);
        w.world.flows.push_back(
            tree_flow(inside(half * 4 + k % 4, h, h + 1 + k / 8, k / 4 % 2 == 1),
                      static_cast<int>((k / 4 + h) % 4), tie++, name));
      }
    }
  }
  tie = 200;
  for (std::size_t i = 0; i < 32; ++i) {
    const std::size_t h = (i / 16 + i) % kHostsPerLeaf;
    w.candidates.push_back(tree_flow(
        inside((i % 2) * 4 + (i / 2) % 4, h, h + 2, i / 8 % 2 == 1),
        static_cast<int>(1 + i % 2), tie++, "cand" + std::to_string(i)));
  }
  // Bridges cross the root: each admit merges the two subtree domains,
  // each remove splits them again.
  tie = 400;
  for (std::size_t j = 0; j < 8; ++j) {
    NodeId a = host(j % 4, j / 4);
    NodeId b = host(4 + (j + 1) % 4, j / 4 + 2);
    if (j % 2 == 1) std::swap(a, b);
    w.churn.push_back(voip("bridge" + std::to_string(j), route_of(a, b), 40,
                           dm_priority(40, tie++)));
  }
  w.world.network = std::move(tree.net);
  w.batch = 1;
  w.probe_conns = 1;
  w.probe_depth = 1;
  w.pace_us = 0;
  w.busy_gen = 2;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "campus_poll") return campus_poll(seed);
  if (name == "hub_poll") return hub_poll(seed);
  if (name == "tree_churn") return tree_churn(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<std::uint32_t> request_script(std::size_t pool_groups,
                                          std::uint64_t seed, int conn) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull +
          static_cast<std::uint64_t>(conn + 1) * 0xD1B54A32D192ED03ull);
  std::vector<std::uint32_t> order(pool_groups);
  for (std::size_t i = 0; i < pool_groups; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  shuffle(order, rng);
  return order;
}

}  // namespace perfbench
