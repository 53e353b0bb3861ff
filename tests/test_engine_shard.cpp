// The sharded engine's contracts:
//
//  * Partition correctness: a shard is exactly one link-sharing component.
//    After every mutation path — add_flow, remove_flow, try_admit, lean
//    batch admissions and their end_batch, checkpoint restore — two
//    resident flows live in the same shard iff their routes share links
//    transitively (checked against a reference union-find over the global
//    flow set): shards merge when a flow bridges domains and split again
//    when a removal disconnects one (rebuild-on-remove).  Every solve
//    iterates all flows of its context, so this rule is what keeps a solve
//    proportional to one component.
//
//  * Bit-identical results: evaluate(), what_if() and snapshot probes match
//    a from-scratch AnalysisContext + analyze_holistic run on the same
//    global flow set — same verdicts, same per-frame responses, same
//    fixed-point jitters — across randomized multi-domain scenarios and
//    mutation orders.
//
//  * Snapshot consistency under concurrency: reader threads probing
//    published snapshots while the writer admits/removes always observe a
//    committed world — every probe bit-matches a from-scratch run over the
//    snapshot's own flow list (the same equivalence harness, applied to
//    whatever world the reader happened to catch).
//
//  * EngineStats: evaluations == full_runs + incremental_runs always (every
//    solver run is exactly one of the two), counters survive concurrent
//    batch probes, and reset_stats() zeroes them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::engine {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;

core::HolisticResult from_scratch(const net::Network& net,
                                  const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  return core::analyze_holistic(ctx);
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

/// Reference partition: union-find over the engine's resident flows by
/// transitive link sharing, used to check shard assignment.
std::vector<std::size_t> reference_partition(
    const net::Network& net, const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  const std::size_t n = flows.size();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t f = 0; f < n; ++f) {
    for (const net::LinkRef l :
         ctx.route_links(net::FlowId(static_cast<std::int32_t>(f)))) {
      for (const net::FlowId j : ctx.flows_on_link(l)) {
        const std::size_t a = find(f);
        const std::size_t b = find(static_cast<std::size_t>(j.v));
        if (a != b) parent[std::max(a, b)] = std::min(a, b);
      }
    }
  }
  std::vector<std::size_t> root(n);
  for (std::size_t f = 0; f < n; ++f) root[f] = find(f);
  return root;
}

void expect_partition_matches(const AnalysisEngine& eng,
                              const net::Network& net,
                              const std::vector<gmf::Flow>& flows,
                              const std::string& where) {
  ASSERT_EQ(eng.flow_count(), flows.size()) << where;
  const std::vector<std::size_t> root = reference_partition(net, flows);
  std::size_t domains = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) domains += root[f] == f;
  EXPECT_EQ(eng.shard_count(), domains) << where;
  for (std::size_t a = 0; a < flows.size(); ++a) {
    for (std::size_t b = a + 1; b < flows.size(); ++b) {
      EXPECT_EQ(eng.shard_of(a) == eng.shard_of(b), root[a] == root[b])
          << where << ": flows " << a << "," << b;
    }
  }
}

gmf::Flow voip_between(const net::StarNetwork& star, std::size_t a,
                       std::size_t b, const std::string& name) {
  return workload::make_voip_flow(
      name, net::Route({star.hosts[a], star.sw, star.hosts[b]}));
}

TEST(EngineShard, DisjointFlowsGetTheirOwnShards) {
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  eng.add_flow(voip_between(star, 4, 5, "c"));
  EXPECT_EQ(eng.shard_count(), 3u);
  EXPECT_NE(eng.shard_of(0), eng.shard_of(1));
  // Same host pair -> same links -> same shard.
  eng.add_flow(voip_between(star, 0, 1, "a2"));
  EXPECT_EQ(eng.shard_count(), 3u);
  EXPECT_EQ(eng.shard_of(0), eng.shard_of(3));
}

TEST(EngineShard, BridgeFlowMergesAndRemovalResplits) {
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  ASSERT_EQ(eng.shard_count(), 2u);
  // 0 -> 3 shares host0's uplink with "a" and host3's downlink with "b".
  const net::FlowId bridge = eng.add_flow(voip_between(star, 0, 3, "bridge"));
  EXPECT_EQ(eng.shard_count(), 1u);
  EXPECT_TRUE(eng.evaluate().schedulable);
  // Rebuild-on-remove: dropping the bridge disconnects the domain again.
  ASSERT_TRUE(eng.remove_flow(static_cast<std::size_t>(bridge.v)));
  EXPECT_EQ(eng.shard_count(), 2u);
  EXPECT_NE(eng.shard_of(0), eng.shard_of(1));
  EXPECT_TRUE(eng.evaluate().schedulable);
}

TEST(EngineShard, LeanBatchBridgeMergesShards) {
  // Lean admissions commit their shard surgery without publishing: the
  // partition must hold after each commit, before the batch publishes.
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  std::vector<gmf::Flow> mirror = {voip_between(star, 0, 1, "a"),
                                   voip_between(star, 2, 3, "b"),
                                   voip_between(star, 4, 5, "c")};
  for (const gmf::Flow& f : mirror) eng.add_flow(f);
  (void)eng.evaluate();
  ASSERT_EQ(eng.shard_count(), 3u);

  eng.begin_batch();
  // 0 -> 3 bridges the shards of "a" and "b"; 6 -> 7 opens a fourth.
  for (const gmf::Flow& cand :
       {voip_between(star, 0, 3, "bridge"), voip_between(star, 6, 7, "d")}) {
    ASSERT_TRUE(eng.try_admit_lean(cand)) << cand.name();
    mirror.push_back(cand);
    expect_partition_matches(eng, star.net, mirror,
                             "after lean admit of " + cand.name());
  }
  EXPECT_EQ(eng.shard_count(), 3u);
  expect_bit_identical(eng.end_batch(), from_scratch(star.net, mirror),
                       "lean batch");
  expect_partition_matches(eng, star.net, mirror, "after end_batch");
}

TEST(EngineShard, MergeKeepsWarmStateOfEvaluatedParts) {
  // Bridging two domains while one of them holds a flow added since its
  // last solve must not go cold: covered flows warm-start, only the
  // uncovered ones (and what their jitters move) restart.
  const auto star = net::make_star_network(8, kSpeed);
  AnalysisEngine eng(star.net);
  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  (void)eng.evaluate();
  eng.add_flow(voip_between(star, 0, 1, "a2"));  // domain A, not yet solved
  eng.add_flow(voip_between(star, 0, 3, "bridge"));  // merges A and B
  ASSERT_EQ(eng.shard_count(), 1u);

  const EngineStats before = eng.stats();
  const core::HolisticResult& merged = eng.evaluate();
  // The merge preserved the parts' converged state: an incremental run,
  // not a cold full one.
  EXPECT_EQ(eng.stats().full_runs, before.full_runs);
  EXPECT_EQ(eng.stats().incremental_runs, before.incremental_runs + 1);

  std::vector<gmf::Flow> mirror = {
      voip_between(star, 0, 1, "a"), voip_between(star, 2, 3, "b"),
      voip_between(star, 0, 1, "a2"), voip_between(star, 0, 3, "bridge")};
  expect_bit_identical(merged, from_scratch(star.net, mirror),
                       "merge with unevaluated add");
}

/// A small campus: `cells` independent stars, so scenarios have several
/// locality domains by construction.
struct Campus {
  net::Network net;
  std::vector<net::NodeId> hosts;  // all hosts, cell-major
  std::vector<net::NodeId> switches;
};

Campus make_campus(int cells, int hosts_per_cell) {
  Campus c;
  for (int cell = 0; cell < cells; ++cell) {
    const net::NodeId sw = c.net.add_switch("sw" + std::to_string(cell));
    c.switches.push_back(sw);
    for (int h = 0; h < hosts_per_cell; ++h) {
      const net::NodeId host = c.net.add_endhost(
          "c" + std::to_string(cell) + "h" + std::to_string(h));
      c.net.add_duplex_link(host, sw, kSpeed);
      c.hosts.push_back(host);
    }
  }
  return c;
}

class EngineShardEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineShardEquivalence, RandomMultiDomainScenarios) {
  const std::uint64_t seed = GetParam();
  Rng rng(0x51a4d5eed + seed * 0x9E3779B9ull);

  const int cells = 2 + static_cast<int>(seed % 3);  // 2..4 domains
  const Campus campus = make_campus(cells, 4);

  workload::TasksetParams params;
  params.num_flows = 4 + static_cast<int>(rng.next_below(6));  // 4..9
  params.total_utilization = rng.uniform(0.15, 0.5);
  params.deadline_factor_lo = 2.0;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(campus.net, campus.hosts, params, rng);
  ASSERT_TRUE(ts.has_value());
  core::assign_priorities(ts->flows, core::PriorityScheme::kDeadlineMonotonic);

  AnalysisEngine eng(campus.net);
  std::vector<gmf::Flow> mirror;
  const std::string at = "seed " + std::to_string(seed) + " ";

  const auto check = [&](AnalysisEngine& e, const std::string& where) {
    expect_bit_identical(e.evaluate(), from_scratch(campus.net, mirror),
                         where);
    expect_partition_matches(e, campus.net, mirror, where);
  };

  // Incremental adds across domains.
  for (std::size_t i = 0; i < ts->flows.size(); ++i) {
    eng.add_flow(ts->flows[i]);
    mirror.push_back(ts->flows[i]);
    check(eng, at + "after add " + std::to_string(i));
  }

  // Random removals (exercises split-on-remove and cache reindexing).
  const std::size_t removals = 1 + rng.next_below(3);
  for (std::size_t r = 0; r < removals && !mirror.empty(); ++r) {
    const auto idx = static_cast<std::size_t>(rng.next_below(mirror.size()));
    ASSERT_TRUE(eng.remove_flow(idx));
    mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(idx));
    if (mirror.empty()) break;
    check(eng, at + "after remove " + std::to_string(idx));
  }

  // Re-add after removal (warm start over a shrunk fixed point).
  eng.add_flow(ts->flows[0]);
  mirror.push_back(ts->flows[0]);
  check(eng, at + "after re-add");

  // Snapshot probes: lock-free reader path vs cold truth, full result.
  const auto snap = eng.snapshot();
  ASSERT_EQ(snap->flow_count(), mirror.size());
  std::vector<gmf::Flow> cands = {ts->flows.back(), ts->flows[0]};
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const WhatIfResult probe = snap->what_if(cands[i]);
    std::vector<gmf::Flow> with = mirror;
    with.push_back(cands[i]);
    expect_bit_identical(probe.result(), from_scratch(campus.net, with),
                         at + "snapshot candidate " + std::to_string(i));
    EXPECT_EQ(probe.admissible, probe.result().schedulable);
  }
  EXPECT_EQ(eng.flow_count(), mirror.size());  // probes committed nothing

  // Gated admission: an accepted probe is committed as one merged shard.
  if (eng.try_admit(cands[0])) mirror.push_back(cands[0]);
  check(eng, at + "after try_admit");

  // A lean batch: commits without publishing, then one publication.
  eng.begin_batch();
  for (std::size_t i = 1; i < ts->flows.size(); i += 2) {
    if (!eng.try_admit_lean(ts->flows[i])) continue;
    mirror.push_back(ts->flows[i]);
    expect_partition_matches(eng, campus.net, mirror,
                             at + "after lean admit " + std::to_string(i));
  }
  (void)eng.end_batch();
  check(eng, at + "after end_batch");

  // Checkpoint restore rebuilds the partition from the stream.
  std::stringstream blob;
  eng.save(blob);
  AnalysisEngine restored = AnalysisEngine::restore(blob);
  check(restored, at + "after restore");
}

INSTANTIATE_TEST_SUITE_P(Scenarios, EngineShardEquivalence,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(EngineShard, SnapshotStressReadersVsWriter) {
  // Writer thread admits/removes while reader threads probe whatever
  // snapshot is currently published.  Every probe must bit-match a
  // from-scratch run over the snapshot's own flow list — i.e. readers only
  // ever see committed worlds, never a half-applied mutation.
  const Campus campus = make_campus(3, 4);
  const auto flow_for = [&](int n, const std::string& prefix) {
    const int cell = n % 3;
    const std::size_t a = static_cast<std::size_t>(cell) * 4 +
                          static_cast<std::size_t>(n % 2) * 2;
    return workload::make_voip_flow(
        prefix + std::to_string(n),
        net::Route({campus.hosts[a],
                    campus.switches[static_cast<std::size_t>(cell)],
                    campus.hosts[a + 1]}),
        gmfnet::Time::ms(20), /*priority=*/5);
  };

  AnalysisEngine eng(campus.net);
  for (int n = 0; n < 6; ++n) eng.add_flow(flow_for(n, "seed"));
  (void)eng.evaluate();

  std::atomic<bool> stop{false};
  std::atomic<int> probes_ok{0};
  std::atomic<int> probes_bad{0};

  const int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = eng.published();
        const gmf::Flow cand = flow_for(100 + (r * 7 + i) % 11, "probe");
        const WhatIfResult w = snap->what_if(cand);
        // Verify against cold truth for the very flow set the snapshot
        // claims to hold (self-consistency of the published world).
        std::vector<gmf::Flow> with = snap->flows();
        with.push_back(cand);
        const core::HolisticResult cold = from_scratch(campus.net, with);
        const bool ok =
            w.converged() == cold.converged &&
            w.admissible == cold.schedulable &&
            w.flow_count() == cold.flows.size() &&
            (!cold.converged || w.result().jitters == cold.jitters);
        (ok ? probes_ok : probes_bad).fetch_add(1,
                                                std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // Writer: churn admissions and removals across all three domains, then
  // keep the readers alive until each has landed at least one probe (on a
  // single-core box the 40 rounds can finish before a reader ever runs).
  for (int round = 0; round < 40; ++round) {
    (void)eng.try_admit(flow_for(200 + round, "w"));
    if (eng.flow_count() > 8) {
      (void)eng.remove_flow(static_cast<std::size_t>(round) %
                            eng.flow_count());
    }
    (void)eng.evaluate();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (probes_ok.load() + probes_bad.load() < kReaders &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(probes_bad.load(), 0);
  EXPECT_GT(probes_ok.load(), 0);
}

TEST(EngineShard, LazyWholeSetResultIsAssembledOnceAcrossReaders) {
  // A publication does not assemble the whole-set result; the first
  // result() call does, once, however many readers race to it.
  const Campus campus = make_campus(3, 4);
  AnalysisEngine eng(campus.net);
  for (int n = 0; n < 9; ++n) {
    const int cell = n % 3;
    const std::size_t a = static_cast<std::size_t>(cell) * 4 +
                          static_cast<std::size_t>(n % 2) * 2;
    eng.add_flow(workload::make_voip_flow(
        "c" + std::to_string(n),
        net::Route({campus.hosts[a],
                    campus.switches[static_cast<std::size_t>(cell)],
                    campus.hosts[a + 1]}),
        gmfnet::Time::ms(20), /*priority=*/5));
  }
  const std::shared_ptr<const EngineSnapshot> snap = eng.snapshot();

  const int kReaders = 4;
  std::vector<const core::HolisticResult*> seen(kReaders, nullptr);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] { seen[r] = &snap->result(); });
  }
  for (std::thread& t : readers) t.join();
  for (int r = 1; r < kReaders; ++r) EXPECT_EQ(seen[r], seen[0]);
  expect_bit_identical(*seen[0], from_scratch(campus.net, snap->flows()),
                       "lazy whole-set result");
  EXPECT_EQ(&eng.evaluate(), seen[0]);  // nothing changed: same publication
}

TEST(EngineShard, StatsConsistencyAndReset) {
  const auto star = net::make_star_network(10, kSpeed);
  AnalysisEngine eng(star.net);
  const auto consistent = [&] {
    const EngineStats s = eng.stats();
    return s.evaluations == s.full_runs + s.incremental_runs;
  };
  EXPECT_TRUE(consistent());

  eng.add_flow(voip_between(star, 0, 1, "a"));
  eng.add_flow(voip_between(star, 2, 3, "b"));
  (void)eng.evaluate();
  EXPECT_TRUE(consistent());
  EXPECT_EQ(eng.stats().full_runs, 2u);  // one cold run per new domain

  (void)eng.what_if(voip_between(star, 0, 1, "probe"));
  EXPECT_TRUE(consistent());

  // Concurrent batch probes record through the atomic counters.
  std::vector<gmf::Flow> cands;
  for (int i = 0; i < 16; ++i) {
    cands.push_back(voip_between(star, 4, 5, "c" + std::to_string(i)));
  }
  const EngineStats before = eng.stats();
  const auto batch = eng.evaluate_batch(cands);
  ASSERT_EQ(batch.size(), cands.size());
  const EngineStats after = eng.stats();
  EXPECT_TRUE(consistent());
  EXPECT_EQ(after.evaluations - before.evaluations, cands.size());

  eng.reset_stats();
  const EngineStats zero = eng.stats();
  EXPECT_EQ(zero.evaluations, 0u);
  EXPECT_EQ(zero.full_runs, 0u);
  EXPECT_EQ(zero.incremental_runs, 0u);
  EXPECT_EQ(zero.flow_analyses, 0u);
  EXPECT_EQ(zero.flow_results_reused, 0u);
  EXPECT_EQ(zero.sweeps, 0u);
  EXPECT_TRUE(consistent());
}

}  // namespace
}  // namespace gmfnet::engine
