// One 64-bit digest of everything the holistic solve and the engine
// produce on a fixed set of generated worlds: every verdict, every
// per-stage HopResult field, every jitter map entry (slot count, which
// slots hold entries, each stage's frames in stage order), sweep counts and
// the engine's work counters.  The expected value was re-recorded when
// sweeps became per-component passes (a feed-forward solve takes 1 pass
// instead of 2, a cyclic one iterates only its cycle); the second test,
// without sweep counts, pins that nothing else moved.  Any change to a
// result, to the Gauss-Seidel visiting order or to the work the solve does
// (flow analyses, hops run and shared) moves the digest.
//
// Worlds: generated stars, trees and equal-priority rings
// (workload::generate_taskset, fixed seeds), the near-critical
// equal-priority ring of the order tests and a 65-flow AV hub.  Paths:
// whole-set Gauss-Seidel and Jacobi (with the naive level source and the
// paper's literal self-CIRC terms as well), then the engine running
// evaluate, what_if (engine and lock-free snapshot with a held
// ProbeScratch), evaluate_batch, try_admit, lean batches and removals.
//
// When a change is meant to move results, re-record the value and say why
// in the changelog; a digest that moves by accident is a regression.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/holistic.hpp"
#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet {
namespace {

class Digest {
 public:
  /// `sweeps`: fold sweep counts.  `work`: fold the solver's work counters
  /// (flow analyses, hops run and shared, kept results); it may be switched
  /// per world.
  explicit Digest(bool sweeps = true) : sweeps_(sweeps) {}
  void set_work(bool work) { work_ = work; }
  [[nodiscard]] bool sweeps() const { return sweeps_; }
  [[nodiscard]] bool work() const { return work_; }

  void add(std::uint64_t v) {
    h_ ^= v + 0x9E3779B97F4A7C15ull + (h_ << 6) + (h_ >> 2);
    h_ *= 0x100000001B3ull;
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }
  void add(gmfnet::Time t) { add(t.ps()); }

  void add(const core::StageKey& k) {
    add(static_cast<std::uint64_t>(k.kind));
    add(static_cast<std::int64_t>(k.a.v));
    add(static_cast<std::int64_t>(k.b.v));
  }

  void add(const core::HopResult& h) {
    add(h.response);
    add(h.converged);
    add(h.busy_period);
    add(h.instances);
    add(h.iterations);
  }

  void add(const core::FlowResult& fr) {
    add(fr.frames.size());
    for (const core::FrameResult& fk : fr.frames) {
      add(fk.response);
      add(fk.converged);
      add(fk.meets_deadline);
      add(fk.stages.size());
      for (const core::StageResponse& s : fk.stages) {
        add(s.stage);
        add(s.hop);
      }
    }
  }

  void add(const core::JitterMap& m) {
    add(m.flow_slots());
    for (std::size_t f = 0; f < m.flow_slots(); ++f) {
      const core::FlowId id(static_cast<std::int32_t>(f));
      add(m.has_entries(id));
      const core::JitterMap::StageEntries entries = m.stage_entries(id);
      add(entries.size());
      for (const auto& [stage, frames] : entries) {
        add(stage);
        add(frames.size());
        for (const gmfnet::Time t : frames) add(t);
      }
    }
  }

  void add(const core::HolisticResult& r) {
    add(r.converged);
    add(r.schedulable);
    if (sweeps_) add(r.sweeps);
    add(r.flows.size());
    for (const core::FlowResult& fr : r.flows) add(fr);
    add(r.jitters);
  }

  void add(const engine::WhatIfResult& w) {
    add(w.admissible);
    add(w.converged());
    if (sweeps_) add(w.sweeps());
    add(w.flow_count());
    add(w.result());
  }

  void add(const engine::EngineStats& s) {
    add(s.evaluations);
    add(s.full_runs);
    add(s.incremental_runs);
    if (work_) {
      add(s.flow_analyses);
      add(s.flow_results_reused);
    }
    if (sweeps_) add(s.sweeps);
    if (work_) {
      add(s.hops_run);
      add(s.hops_shared);
    }
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
  bool sweeps_ = true;
  bool work_ = true;
};

struct World {
  net::Network net;
  std::vector<gmf::Flow> flows;
  bool cyclic = false;  ///< the key graph may have a cycle (the rings)
};

std::vector<gmf::Flow> generated_flows(const net::Network& net,
                                       const std::vector<net::NodeId>& hosts,
                                       std::uint64_t seed,
                                       bool equal_priorities) {
  Rng rng(0x1D1D'0001ull + seed * 0x9E3779B9ull);
  workload::TasksetParams params;
  params.num_flows = 5 + static_cast<int>(rng.next_below(8));  // 5..12
  params.total_utilization = rng.uniform(0.5, 2.5);
  params.deadline_factor_lo = 1.5;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(net, hosts, params, rng);
  EXPECT_TRUE(ts.has_value()) << "seed " << seed;
  if (!ts) return {};
  std::vector<gmf::Flow> flows = std::move(ts->flows);
  if (equal_priorities) {
    for (gmf::Flow& f : flows) f.set_priority(1);
  } else {
    core::assign_priorities(flows, core::PriorityScheme::kDeadlineMonotonic);
  }
  return flows;
}

/// A ring of six switches, one host on each, carrying a generated flow
/// set whose routes are pinned clockwise: flow f enters at switch f mod 6
/// and crosses two or three ring links.  Six flows or more chain every
/// ring link to the next, so the key graph is cyclic.
World clockwise_ring(std::uint64_t seed) {
  World w;
  w.cyclic = true;
  net::Network& n = w.net;
  constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;
  constexpr std::size_t kSwitches = 6;
  std::vector<net::NodeId> sw;
  std::vector<net::NodeId> hosts;
  for (std::size_t i = 0; i < kSwitches; ++i) sw.push_back(n.add_switch());
  for (std::size_t i = 0; i < kSwitches; ++i) {
    n.add_duplex_link(sw[i], sw[(i + 1) % kSwitches], kSpeed);
    hosts.push_back(n.add_endhost());
    n.add_duplex_link(hosts.back(), sw[i], kSpeed);
  }
  n.validate();
  const std::vector<gmf::Flow> generated =
      generated_flows(n, hosts, seed, /*equal_priorities=*/true);
  for (std::size_t f = 0; f < generated.size(); ++f) {
    const std::size_t first = f % kSwitches;
    const std::size_t links = 2 + f % 2;
    std::vector<net::NodeId> nodes{hosts[first]};
    for (std::size_t t = 0; t <= links; ++t) {
      nodes.push_back(sw[(first + t) % kSwitches]);
    }
    nodes.push_back(hosts[(first + links) % kSwitches]);
    const gmf::Flow& g = generated[f];
    w.flows.emplace_back(g.name(), net::Route(std::move(nodes)), g.frames(),
                         g.priority());
  }
  return w;
}

/// The near-critical equal-priority ring of the order tests: A and B go
/// most of the way round in opposite halves, so the key graph is cyclic.
/// C (hA -> X -> Y -> hB2) optionally joins them.
World critical_ring(std::int64_t sep_us, bool with_c) {
  World w;
  w.cyclic = true;
  net::Network& n = w.net;
  const net::NodeId X = n.add_switch("X"), Y = n.add_switch("Y"),
                    M = n.add_switch("M"), Z = n.add_switch("Z"),
                    W = n.add_switch("W"), N = n.add_switch("N");
  const net::NodeId hA = n.add_endhost("hA"), hA2 = n.add_endhost("hA2"),
                    hB = n.add_endhost("hB"), hB2 = n.add_endhost("hB2");
  constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;
  n.add_duplex_link(X, Y, kSpeed);
  n.add_duplex_link(Y, M, kSpeed);
  n.add_duplex_link(M, Z, kSpeed);
  n.add_duplex_link(Z, W, kSpeed);
  n.add_duplex_link(W, N, kSpeed);
  n.add_duplex_link(N, X, kSpeed);
  n.add_duplex_link(hA, X, kSpeed);
  n.add_duplex_link(W, hA2, kSpeed);
  n.add_duplex_link(hB, Z, kSpeed);
  n.add_duplex_link(Y, hB2, kSpeed);
  n.validate();
  gmf::FrameSpec fs;
  fs.min_separation = gmfnet::Time::us(sep_us);
  fs.deadline = gmfnet::Time::ms(50);
  fs.jitter = gmfnet::Time::zero();
  fs.payload_bits = 1000 * 8;
  w.flows.emplace_back("A", net::Route({hA, X, Y, M, Z, W, hA2}),
                       std::vector<gmf::FrameSpec>{fs}, 3);
  w.flows.emplace_back("B", net::Route({hB, Z, W, N, X, Y, hB2}),
                       std::vector<gmf::FrameSpec>{fs}, 3);
  if (!with_c) return w;
  fs.min_separation = gmfnet::Time::us(2000);
  fs.payload_bits = 200 * 8;
  w.flows.emplace_back("C", net::Route({hA, X, Y, hB2}),
                       std::vector<gmf::FrameSpec>{fs}, 3);
  return w;
}

/// 64 residents on one uplink near 80% load (every 4th a four-frame
/// camera) plus a candidate call: a 65-flow hub.
World hub() {
  const auto star = net::make_star_network(8, 100'000'000);
  World w;
  w.net = star.net;
  for (int n = 0; n < 65; ++n) {
    net::Route route({star.hosts[0], star.sw,
                      star.hosts[static_cast<std::size_t>(1 + n % 7)]});
    if (n % 4 != 0 || n == 64) {
      w.flows.push_back(workload::make_voip_flow(
          "call" + std::to_string(n), std::move(route), gmfnet::Time::ms(80),
          5));
      continue;
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
    w.flows.emplace_back("cam" + std::to_string(n), std::move(route),
                         std::move(frames), 6);
  }
  return w;
}

std::vector<World> worlds() {
  std::vector<World> out;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto star = net::make_star_network(6 + static_cast<int>(seed % 3),
                                             100'000'000);
    out.push_back(
        {star.net, generated_flows(star.net, star.hosts, seed, seed % 3 == 2)});
  }
  const auto tree = net::make_tree_network(3, 2, 100'000'000);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    out.push_back({tree.net, generated_flows(tree.net, tree.hosts, seed + 100,
                                             seed % 2 == 1)});
  }
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    out.push_back(clockwise_ring(seed + 200));
  }
  out.push_back(critical_ring(400, /*with_c=*/true));
  out.push_back(critical_ring(205, /*with_c=*/false));
  out.push_back(hub());
  return out;
}

/// Whole-set solves: Gauss-Seidel and Jacobi, each also with the naive
/// level source and with the paper's literal self terms.
void fold_whole_set(Digest& d, const World& w) {
  const core::AnalysisContext ctx(w.net, w.flows);
  for (const bool jacobi : {false, true}) {
    for (int variant = 0; variant < 3; ++variant) {
      core::HolisticOptions opts;
      opts.hop.use_envelope = variant != 1;
      opts.hop.charge_self_circ = variant != 2;
      core::IncrementalStats stats;
      d.add(jacobi ? core::solve_jacobi(ctx, opts, &stats)
                   : core::solve_holistic(ctx, {}, opts, &stats));
      if (d.work()) d.add(stats.flow_analyses);
      if (d.sweeps()) d.add(stats.sweeps);
      if (d.work()) {
        d.add(stats.hops_run);
        d.add(stats.hops_shared);
      }
    }
  }
}

/// The engine paths over the world's flows: the last flow is the
/// candidate, the rest are residents.
void fold_engine(Digest& d, const World& w) {
  if (w.flows.size() < 2) return;
  const std::vector<gmf::Flow> residents(w.flows.begin(), w.flows.end() - 1);
  const gmf::Flow& candidate = w.flows.back();

  engine::AnalysisEngine eng(w.net);
  for (const gmf::Flow& f : residents) eng.add_flow(f);
  d.add(eng.evaluate());
  d.add(eng.stats());

  d.add(eng.what_if(candidate));
  engine::ProbeScratch scratch;
  const auto snap = eng.snapshot();
  for (int rep = 0; rep < 2; ++rep) d.add(snap->what_if(candidate, scratch));
  d.add(snap->what_if(residents.front(), scratch));
  for (const engine::WhatIfResult& r :
       eng.evaluate_batch({candidate, residents.front(), residents.back()})) {
    d.add(r);
  }
  d.add(eng.stats());

  const auto admitted = eng.try_admit(candidate);
  d.add(admitted.has_value());
  if (admitted) d.add(*admitted);
  d.add(eng.stats());

  // Removals: the first resident, then one from the middle.
  for (int rep = 0; rep < 2 && eng.flow_count() > 0; ++rep) {
    ASSERT_TRUE(eng.remove_flow(rep == 0 ? 0 : eng.flow_count() / 2));
    d.add(eng.evaluate());
  }
  d.add(eng.stats());

  // A lean batch re-admitting what was removed, plus the candidate again.
  eng.begin_batch();
  d.add(eng.try_admit_lean(residents.front()));
  d.add(eng.try_admit_lean(residents[residents.size() / 2]));
  d.add(eng.try_admit_lean(candidate));
  d.add(eng.end_batch());
  d.add(eng.stats());
}

TEST(IdentityDigest, SolvesAndEnginePathsMatchRecordedValue) {
  Digest d;
  for (const World& w : worlds()) {
    d.add(w.flows.size());
    fold_whole_set(d, w);
    fold_engine(d, w);
  }
  EXPECT_EQ(d.value(), 0xA45C6A0F3B591D43ull)
      << std::hex << "digest 0x" << d.value();
}

// The same worlds and paths without any sweep count, and with the solver's
// work counters folded only on the acyclic worlds (stars, trees, the hub).
// Sweep counts and the work of a cyclic solve depend on the visiting
// order; verdicts, per-stage results, jitter maps and the work of a
// feed-forward solve do not.  Recorded when sweeps became per-component
// passes, from the solver before that change.
TEST(IdentityDigest, ResultsAndAcyclicWorkMatchRecordedValue) {
  Digest d(/*sweeps=*/false);
  for (const World& w : worlds()) {
    d.set_work(!w.cyclic);
    d.add(w.flows.size());
    fold_whole_set(d, w);
    fold_engine(d, w);
  }
  EXPECT_EQ(d.value(), 0x0D185F8B9BF6C4EEull)
      << std::hex << "digest 0x" << d.value();
}

}  // namespace
}  // namespace gmfnet
