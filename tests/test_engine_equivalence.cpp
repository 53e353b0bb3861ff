// The incremental engine's core contract, checked as a property over
// randomized scenarios: any sequence of add_flow / remove_flow followed by
// evaluate() produces a HolisticResult bit-identical to a from-scratch
// AnalysisContext + analyze_holistic run on the same flow set — same
// schedulability verdict, same worst responses, same fixed-point jitters.
//
// Soundness argument (see analysis_engine.hpp): both iterations drive the
// same monotone sweep operator to its unique least fixed point; the engine
// merely starts closer (warm start) and skips flows whose interference
// component is untouched.  This test is the executable version of that
// argument, across topology families, utilizations and mutation orders.
#include "engine/analysis_engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/priority.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::engine {
namespace {

core::HolisticResult from_scratch(const net::Network& net,
                                  const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  return core::analyze_holistic(ctx);
}

/// The pre-envelope reference: same from-scratch run with the per-hop
/// analyses forced onto the naive per-interferer MX/NX path (no merged
/// LevelEnvelope, no cursor).  Pinning the engine against this closes the
/// loop: engine (envelope) == cold (envelope) == cold (naive).
core::HolisticResult from_scratch_naive(const net::Network& net,
                                        const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  core::HolisticOptions opts;
  opts.hop.use_envelope = false;
  return core::analyze_holistic(ctx, opts);
}

void expect_bit_identical(const core::HolisticResult& inc,
                          const core::HolisticResult& cold,
                          const std::string& where) {
  ASSERT_EQ(inc.converged, cold.converged) << where;
  ASSERT_EQ(inc.schedulable, cold.schedulable) << where;
  // Without a fixed point the per-sweep partial state is not comparable.
  if (!inc.converged) return;
  EXPECT_TRUE(inc.jitters == cold.jitters)
      << where << ": jitter fixed points differ";
  ASSERT_EQ(inc.flows.size(), cold.flows.size()) << where;
  for (std::size_t f = 0; f < inc.flows.size(); ++f) {
    const core::FlowId id(static_cast<std::int32_t>(f));
    EXPECT_EQ(inc.worst_response(id), cold.worst_response(id))
        << where << ": flow " << f;
    ASSERT_EQ(inc.flows[f].frames.size(), cold.flows[f].frames.size());
    for (std::size_t k = 0; k < inc.flows[f].frames.size(); ++k) {
      EXPECT_EQ(inc.flows[f].frames[k].response,
                cold.flows[f].frames[k].response)
          << where << ": flow " << f << " frame " << k;
      EXPECT_EQ(inc.flows[f].frames[k].meets_deadline,
                cold.flows[f].frames[k].meets_deadline)
          << where << ": flow " << f << " frame " << k;
    }
  }
}

class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, IncrementalMatchesFromScratch) {
  const std::uint64_t seed = GetParam();
  Rng rng(0x5eed5eed + seed * 0x9E3779B9ull);

  // Rotate topology families for scenario diversity.
  net::Network net;
  std::vector<net::NodeId> hosts;
  switch (seed % 3) {
    case 0: {
      const auto fig = net::make_figure1_network(100'000'000);
      net = fig.net;
      hosts = {fig.host0, fig.host1, fig.host2, fig.host3};
      break;
    }
    case 1: {
      const auto star = net::make_star_network(6, 100'000'000);
      net = star.net;
      hosts = star.hosts;
      break;
    }
    default: {
      const auto line = net::make_line_network(3, 100'000'000);
      net = line.net;
      hosts = line.leaf_hosts;
      hosts.push_back(line.src_host);
      hosts.push_back(line.dst_host);
      break;
    }
  }

  workload::TasksetParams params;
  params.num_flows = 3 + static_cast<int>(rng.next_below(5));  // 3..7
  params.total_utilization = rng.uniform(0.15, 0.55);
  params.deadline_factor_lo = 2.0;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(net, hosts, params, rng);
  ASSERT_TRUE(ts.has_value());
  core::assign_priorities(ts->flows, core::PriorityScheme::kDeadlineMonotonic);

  AnalysisEngine eng(net);
  std::vector<gmf::Flow> mirror;  // ground truth for the cold rebuild

  // Incremental adds, compared to a cold rebuild at every step.
  for (std::size_t i = 0; i < ts->flows.size(); ++i) {
    eng.add_flow(ts->flows[i]);
    mirror.push_back(ts->flows[i]);
    expect_bit_identical(eng.evaluate(), from_scratch(net, mirror),
                         "seed " + std::to_string(seed) + " after add " +
                             std::to_string(i));
  }

  // Random removals (exercises the seeded descent from the old fixed
  // point; these key graphs are acyclic).
  const std::size_t removals = 1 + rng.next_below(2);
  for (std::size_t r = 0; r < removals && !mirror.empty(); ++r) {
    const auto idx = static_cast<std::size_t>(rng.next_below(mirror.size()));
    ASSERT_TRUE(eng.remove_flow(idx));
    mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(idx));
    if (mirror.empty()) break;
    expect_bit_identical(eng.evaluate(), from_scratch(net, mirror),
                         "seed " + std::to_string(seed) + " after remove " +
                             std::to_string(idx));
  }

  // Re-add after removal (warm start over a shrunk fixed point).
  eng.add_flow(ts->flows[0]);
  mirror.push_back(ts->flows[0]);
  expect_bit_identical(eng.evaluate(), from_scratch(net, mirror),
                       "seed " + std::to_string(seed) + " after re-add");

  // Envelope fast path vs the pre-envelope naive per-hop evaluation: the
  // cold runs above used the (default) envelope path; the naive reference
  // must agree bit-for-bit on the same final flow set.
  expect_bit_identical(from_scratch(net, mirror),
                       from_scratch_naive(net, mirror),
                       "seed " + std::to_string(seed) + " envelope parity");

  // Batch what-if probes match cold runs and commit nothing.
  std::vector<gmf::Flow> cands = {ts->flows.back(), ts->flows[0]};
  const auto batch = eng.evaluate_batch(cands);
  ASSERT_EQ(batch.size(), cands.size());
  EXPECT_EQ(eng.flow_count(), mirror.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    std::vector<gmf::Flow> with = mirror;
    with.push_back(cands[i]);
    expect_bit_identical(batch[i].result(), from_scratch(net, with),
                         "seed " + std::to_string(seed) + " batch candidate " +
                             std::to_string(i));
    expect_bit_identical(batch[i].result(), from_scratch_naive(net, with),
                         "seed " + std::to_string(seed) +
                             " batch candidate (naive parity) " +
                             std::to_string(i));
  }
}

// 100+ random scenarios (the acceptance floor for this property).
INSTANTIATE_TEST_SUITE_P(Scenarios, EngineEquivalence,
                         ::testing::Range<std::uint64_t>(0, 108));

// Equal-priority rings: the one family whose key graph (directed links,
// edges l_t -> l_{t+1} along every route) can be cyclic, so the fixed
// point need not be unique and the engine's removal path must not descend
// from the old fixed point there (it restarts the component's flows from
// their source jitters instead).  Each world is a ring of 4..6 switches with one
// host per switch.  The generator draws the frames; each flow then runs
// clockwise from a random switch over 2..n-1 ring links (shortest routes
// rarely chain all the way round), all flows at one priority.

/// True when the key graph of `flows` has a cycle (Kahn's algorithm).
bool key_graph_cyclic(const std::vector<gmf::Flow>& flows) {
  std::map<net::LinkRef, std::set<net::LinkRef>> succ;
  std::map<net::LinkRef, int> indegree;
  for (const gmf::Flow& f : flows) {
    const std::vector<net::LinkRef> links = f.route().links();
    for (std::size_t t = 0; t < links.size(); ++t) {
      indegree.emplace(links[t], 0);
      if (t + 1 < links.size() && succ[links[t]].insert(links[t + 1]).second) {
        ++indegree[links[t + 1]];
      }
    }
  }
  std::vector<net::LinkRef> ready;
  for (const auto& [l, d] : indegree) {
    if (d == 0) ready.push_back(l);
  }
  std::size_t placed = 0;
  while (!ready.empty()) {
    const net::LinkRef l = ready.back();
    ready.pop_back();
    ++placed;
    for (const net::LinkRef w : succ[l]) {
      if (--indegree[w] == 0) ready.push_back(w);
    }
  }
  return placed < indegree.size();
}

TEST(EngineEquivalenceRing, EqualPriorityRingsMatchFromScratch) {
  int cyclic_removals = 0;
  for (std::uint64_t seed = 0; seed < 36; ++seed) {
    Rng rng(0x4149'4e47ull + seed * 0x9E3779B9ull);
    const int switches = 4 + static_cast<int>(seed % 3);
    net::Network net;
    std::vector<net::NodeId> ring;
    std::vector<net::NodeId> hosts;
    for (int i = 0; i < switches; ++i) {
      ring.push_back(net.add_switch("s" + std::to_string(i)));
    }
    for (int i = 0; i < switches; ++i) {
      const auto next = static_cast<std::size_t>((i + 1) % switches);
      net.add_duplex_link(ring[static_cast<std::size_t>(i)], ring[next],
                          100'000'000);
      hosts.push_back(net.add_endhost("h" + std::to_string(i)));
      net.add_duplex_link(hosts.back(), ring[static_cast<std::size_t>(i)],
                          100'000'000);
    }
    net.validate();

    workload::TasksetParams params;
    params.num_flows = 4 + static_cast<int>(rng.next_below(5));  // 4..8
    params.total_utilization = rng.uniform(0.3, 0.9);
    params.deadline_factor_lo = 2.0;
    params.deadline_factor_hi = 4.0;
    auto ts = workload::generate_taskset(net, hosts, params, rng);
    ASSERT_TRUE(ts.has_value()) << "seed " << seed;
    const auto n = static_cast<std::size_t>(switches);
    for (gmf::Flow& f : ts->flows) {
      const std::size_t from = rng.next_below(n);
      const std::size_t hops = 2 + rng.next_below(n - 2);
      std::vector<net::NodeId> nodes = {hosts[from]};
      for (std::size_t t = 0; t <= hops; ++t) {
        nodes.push_back(ring[(from + t) % n]);
      }
      nodes.push_back(hosts[(from + hops) % n]);
      f = gmf::Flow(f.name(), net::Route(std::move(nodes)), f.frames(), 1);
    }
    const std::string where = "ring seed " + std::to_string(seed);

    AnalysisEngine eng(net);
    std::vector<gmf::Flow> mirror;
    for (std::size_t i = 0; i < ts->flows.size(); ++i) {
      eng.add_flow(ts->flows[i]);
      mirror.push_back(ts->flows[i]);
      expect_bit_identical(eng.evaluate(), from_scratch(net, mirror),
                           where + " after add " + std::to_string(i));
    }
    const std::size_t removals = 1 + rng.next_below(3);
    for (std::size_t r = 0; r < removals && mirror.size() > 1; ++r) {
      const auto idx = static_cast<std::size_t>(rng.next_below(mirror.size()));
      ASSERT_TRUE(eng.remove_flow(idx));
      mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(idx));
      const core::HolisticResult cold = from_scratch(net, mirror);
      if (cold.converged && key_graph_cyclic(mirror)) ++cyclic_removals;
      expect_bit_identical(eng.evaluate(), cold,
                           where + " after remove " + std::to_string(idx));
    }
    // Probes and a re-add against the shrunk world.
    const auto batch = eng.evaluate_batch({ts->flows[0]});
    std::vector<gmf::Flow> with = mirror;
    with.push_back(ts->flows[0]);
    expect_bit_identical(batch[0].result(), from_scratch(net, with),
                         where + " probe");
    eng.add_flow(ts->flows[0]);
    expect_bit_identical(eng.evaluate(), from_scratch(net, with),
                         where + " after re-add");
  }
  // The family must actually reach the cyclic removal path, with a fixed
  // point to compare.
  EXPECT_GE(cyclic_removals, 20);
}

}  // namespace
}  // namespace gmfnet::engine
