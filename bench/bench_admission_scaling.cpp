// Experiment E10: admission-decision cost as the resident flow set grows —
// the seed's from-scratch controller (rebuild AnalysisContext + cold
// holistic fixed point per query) vs the incremental sharded AnalysisEngine
// (one context per link-sharing component, route-based dirty tracking,
// warm-started fixed point, published snapshots).
//
// Two scenarios:
//
//  * "campus": independent star cells (one switch + 8 phones each), flows
//    on rotating host pairs — many small locality domains, the shape an
//    operator's admission controller actually serves.  From-scratch cost
//    grows with the total resident count; sharded cost only with the
//    touched domain.
//
//  * "four_domain": 4 cells whose flows all fan out of one hub host, so
//    the engine discovers exactly 4 locality domains of 64 flows each at
//    256 residents.  Domains this large are the hard case for incremental
//    admission (the touched component is a quarter of the world), which is
//    what the >= 3x single-admission bar is measured on.
//
//   $ ./bench_admission_scaling [probes_per_size]
//
// Both tables also print the sharded engine's per-frame hop analyses per
// probe, run and served from an identical node's result (informational).
//
// Exits non-zero if sharded admission is not >= 5x faster than
// from-scratch at 64+ campus residents, not >= 3x faster than from-scratch
// on the 4-domain 256-resident scenario, or if any two paths disagree on a
// verdict.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/campus_topology.hpp"
#include "core/holistic.hpp"
#include "engine/analysis_engine.hpp"
#include "net/network.hpp"
#include "util/bench_json.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

using namespace gmfnet;
using benchtopo::Campus;
using benchtopo::hub_flow;
using benchtopo::make_campus;
using benchtopo::resident_flow;

namespace {

constexpr int kCells = 8;

double wall_us(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(),
                   v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const int probes = std::max(1, argc > 1 ? std::atoi(argv[1]) : 32);
  std::printf("=== E10: admission cost scaling — from-scratch vs sharded "
              "engine (%d-cell campus, %d probes per size) ===\n\n",
              kCells, probes);

  const Campus campus = make_campus(kCells);

  Table t("Per-admission decision cost (median over probes)");
  t.set_columns({"resident flows", "from-scratch us", "sharded us", "speedup",
                 "hops run / shared", "verdicts agree"});
  CsvWriter csv({"section", "residents", "scratch_us", "incremental_us",
                 "speedup"});
  BenchJsonWriter json("admission_scaling");

  bool bar_met = true;
  bool verdicts_agree = true;
  for (const int residents : {8, 16, 32, 64, 128, 256}) {
    std::vector<gmf::Flow> flows;
    flows.reserve(static_cast<std::size_t>(residents));
    for (int n = 0; n < residents; ++n) {
      flows.push_back(resident_flow(campus, kCells, n));
    }

    // The sharded engine carries its converged state between arrivals.
    engine::AnalysisEngine eng(campus.net);
    for (const gmf::Flow& f : flows) eng.add_flow(f);
    (void)eng.evaluate();  // settle the warm cache (not timed)

    // Median over probes: robust against scheduler spikes on busy hosts.
    std::vector<double> scratch_samples, incremental_samples;
    scratch_samples.reserve(static_cast<std::size_t>(probes));
    incremental_samples.reserve(static_cast<std::size_t>(probes));
    bool size_agree = true;
    const engine::EngineStats before = eng.stats();
    for (int p = 0; p < probes; ++p) {
      const gmf::Flow cand = resident_flow(campus, kCells, residents + p);

      // Seed behaviour: rebuild the world, iterate from cold.
      core::HolisticResult cold;
      scratch_samples.push_back(wall_us([&] {
        std::vector<gmf::Flow> candidate_set = flows;
        candidate_set.push_back(cand);
        const core::AnalysisContext ctx(campus.net, candidate_set);
        cold = core::analyze_holistic(ctx);
      }));

      // Engine behaviour: copy of the touched shard only, its component
      // only, warm start from the published fixed point.
      engine::WhatIfResult warm;
      incremental_samples.push_back(wall_us([&] { warm = eng.what_if(cand); }));

      size_agree &= warm.admissible == cold.schedulable;
      size_agree &=
          warm.worst_response(
              core::FlowId(static_cast<std::int32_t>(residents))) ==
          cold.worst_response(
              core::FlowId(static_cast<std::int32_t>(residents)));
    }
    verdicts_agree &= size_agree;
    const engine::EngineStats after = eng.stats();
    const double hops_run =
        static_cast<double>(after.hops_run - before.hops_run) / probes;
    const double hops_shared =
        static_cast<double>(after.hops_shared - before.hops_shared) / probes;
    const double scratch_us = median(std::move(scratch_samples));
    const double incremental_us = median(std::move(incremental_samples));
    const double speedup = scratch_us / incremental_us;
    if (residents >= 64 && speedup < 5.0) bar_met = false;

    t.add_row({std::to_string(residents), Table::fixed(scratch_us, 1),
               Table::fixed(incremental_us, 1), Table::fixed(speedup, 1) + "x",
               Table::fixed(hops_run, 1) + " / " + Table::fixed(hops_shared, 1),
               size_agree ? "yes" : "NO"});
    csv.begin_row();
    csv.add(std::string("campus"));
    csv.add(residents);
    csv.add(scratch_us);
    csv.add(incremental_us);
    csv.add(speedup);
    json.begin_row();
    json.add("section", std::string("campus"));
    json.add("residents", residents);
    json.add("scratch_us", scratch_us);
    json.add("incremental_us", incremental_us);
    json.add("speedup", speedup);
    json.add("hops_run_per_probe", hops_run);
    json.add("hops_shared_per_probe", hops_shared);
    json.add("verdicts_agree", size_agree);
  }
  t.print();

  // --- four_domain: 4 hub cells, 64-flow locality domains at 256 flows ---
  std::printf("\n=== four_domain: 4 locality domains x 64 residents — "
              "the large-domain hard case ===\n\n");
  constexpr int kFourCells = 4;
  constexpr int kFourResidents = 256;
  const Campus hub = make_campus(kFourCells);
  std::vector<gmf::Flow> hub_flows;
  for (int n = 0; n < kFourResidents; ++n) {
    hub_flows.push_back(hub_flow(hub, kFourCells, n));
  }
  engine::AnalysisEngine sharded(hub.net);
  for (const gmf::Flow& f : hub_flows) sharded.add_flow(f);
  (void)sharded.evaluate();
  std::printf("engine discovered %zu locality domains\n",
              sharded.shard_count());

  // Untimed warm-up: the first probe against each locality domain builds
  // the engine's writer scratch entry, a one-off setup per domain.
  for (int p = 0; p < kFourCells; ++p) {
    (void)sharded.what_if(hub_flow(hub, kFourCells, kFourResidents + p));
  }

  std::vector<double> fs_s, shard_s;
  bool hub_agree = true;
  const engine::EngineStats hub_before = sharded.stats();
  const int fs_probes = std::min(probes, 8);  // from-scratch is slow here
  for (int p = 0; p < probes; ++p) {
    const gmf::Flow cand = hub_flow(hub, kFourCells, kFourResidents + p);
    core::HolisticResult cold;
    if (p < fs_probes) {
      fs_s.push_back(wall_us([&] {
        std::vector<gmf::Flow> candidate_set = hub_flows;
        candidate_set.push_back(cand);
        const core::AnalysisContext ctx(hub.net, candidate_set);
        cold = core::analyze_holistic(ctx);
      }));
    }
    engine::WhatIfResult ws;
    shard_s.push_back(wall_us([&] { ws = sharded.what_if(cand); }));
    if (p < fs_probes) hub_agree &= ws.admissible == cold.schedulable;
  }
  verdicts_agree &= hub_agree;
  const engine::EngineStats hub_after = sharded.stats();
  const double hub_hops_run =
      static_cast<double>(hub_after.hops_run - hub_before.hops_run) / probes;
  const double hub_hops_shared =
      static_cast<double>(hub_after.hops_shared - hub_before.hops_shared) /
      probes;
  const double fs_us = median(fs_s);
  const double shard_us = median(shard_s);
  const double hub_speedup = fs_us / shard_us;
  const bool hub_bar = hub_speedup >= 3.0;
  bar_met &= hub_bar;

  Table t4("4-domain 256-resident single-admission cost (median)");
  t4.set_columns({"path", "us", "speedup vs from-scratch"});
  t4.add_row({"from-scratch", Table::fixed(fs_us, 1), "1.0x"});
  t4.add_row({"sharded engine", Table::fixed(shard_us, 1),
              Table::fixed(hub_speedup, 1) + "x"});
  t4.print();
  std::printf("sharded engine per probe: %.1f hop analyses run, %.1f served "
              "from an identical node's result\n",
              hub_hops_run, hub_hops_shared);
  csv.begin_row();
  csv.add(std::string("four_domain"));
  csv.add(kFourResidents);
  csv.add(fs_us);
  csv.add(shard_us);
  csv.add(hub_speedup);
  json.begin_row();
  json.add("section", std::string("four_domain"));
  json.add("residents", kFourResidents);
  json.add("scratch_us", fs_us);
  json.add("incremental_us", shard_us);
  json.add("speedup", hub_speedup);
  json.add("hops_run_per_probe", hub_hops_run);
  json.add("hops_shared_per_probe", hub_hops_shared);
  json.add("verdicts_agree", hub_agree);

  csv.save("bench_admission_scaling.csv");
  if (json.save()) {
    std::printf("\nCSV written to bench_admission_scaling.csv, JSON to %s\n",
                json.path().c_str());
  } else {
    std::printf("\nFAIL: could not write %s\n", json.path().c_str());
    return 1;
  }

  if (!verdicts_agree) {
    std::printf("FAIL: engine and from-scratch verdicts disagree.\n");
    return 1;
  }
  if (!bar_met) {
    std::printf("FAIL: speedup bars missed (need >= 5x at 64+ campus "
                "residents, >= 3x on 4-domain 256).\n");
    return 1;
  }
  std::printf("PASS: sharded admission >= 5x faster at 64+ campus residents, "
              ">= 3x on the 4-domain 256-resident scenario, verdicts "
              "identical.\n");
  return 0;
}
