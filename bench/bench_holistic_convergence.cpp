// Experiment E8: convergence behaviour of the holistic fixed point
// ("Putting it all together"): passes to convergence vs. utilization and
// the link-ordered Gauss-Seidel vs. the serial Jacobi oracle, on
// generated deadline-monotonic sets over the Figure-1 topology.  Prints the
// link-ordered sweep's per-frame hop analyses run and served from an
// identical node's result, and writes every row to
// BENCH_holistic_convergence.json.
//
// The bench fails itself on counts, which hold on any host: every
// converged Gauss-Seidel solve must take exactly 1 pass (the Figure-1 key
// graph is acyclic, so each strongly connected component is one key,
// analysed once with final inputs) and reach exactly Jacobi's jitter map,
// and both orders must agree on convergence.  Cyclic key graphs are pinned
// in tier-1 (HolisticOrder.*, GeneratedRings.*).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/holistic.hpp"
#include "core/priority.hpp"
#include "net/topology.hpp"
#include "util/bench_json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/taskset_gen.hpp"

using namespace gmfnet;

namespace {

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = argc > 1 ? std::atoi(argv[1]) : 20;
  std::printf("=== E8: holistic fixed-point convergence "
              "(%d task sets per level, Figure-1 topology) ===\n\n",
              trials);

  const auto fig = net::make_figure1_network(100'000'000);
  const std::vector<net::NodeId> hosts = {fig.host0, fig.host1, fig.host2,
                                          fig.host3};

  Table t("Passes to convergence and wall time");
  t.set_columns({"utilization", "converged", "GS passes (mean/max)",
                 "Jacobi sweeps (mean/max)", "GS ms", "Jacobi ms",
                 "GS hops run / shared", "gate"});
  BenchJsonWriter json("holistic_convergence");
  bool ok = true;

  for (const double util : {0.1, 0.3, 0.5, 0.7, 0.85}) {
    OnlineStats gs_passes, jc_sweeps;
    double gs_ms = 0, jc_ms = 0;
    core::IncrementalStats gs_stats;
    int converged = 0, total = 0;
    bool pass_ok = true;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(0xc0ffee + static_cast<std::uint64_t>(trial) * 31 +
              static_cast<std::uint64_t>(util * 1000));
      workload::TasksetParams params;
      params.num_flows = 10;
      params.total_utilization = util;
      params.deadline_factor_lo = 2.0;
      params.deadline_factor_hi = 4.0;
      auto ts = workload::generate_taskset(fig.net, hosts, params, rng);
      if (!ts) continue;
      core::assign_priorities(ts->flows,
                              core::PriorityScheme::kDeadlineMonotonic);
      core::AnalysisContext ctx(fig.net, ts->flows);
      ++total;

      core::HolisticResult rg, rj;
      gs_ms += wall_ms(
          [&] { rg = core::solve_holistic(ctx, {}, {}, &gs_stats); });
      jc_ms += wall_ms([&] { rj = core::solve_jacobi(ctx); });
      pass_ok &= rj.converged == rg.converged;
      if (!rg.converged) continue;
      ++converged;
      gs_passes.add(rg.sweeps);
      jc_sweeps.add(rj.sweeps);
      pass_ok &= rg.sweeps == 1 && rg.jitters == rj.jitters;
    }
    const double converged_frac =
        total ? static_cast<double>(converged) / total : 0.0;
    t.add_row({Table::fixed(util, 2), Table::fixed(converged_frac, 2),
               Table::fixed(gs_passes.mean(), 1) + " / " +
                   Table::num(gs_passes.max()),
               Table::fixed(jc_sweeps.mean(), 1) + " / " +
                   Table::num(jc_sweeps.max()),
               Table::fixed(gs_ms, 1), Table::fixed(jc_ms, 1),
               Table::num(static_cast<double>(gs_stats.hops_run)) + " / " +
                   Table::num(static_cast<double>(gs_stats.hops_shared)),
               pass_ok ? "ok" : "FAIL"});
    json.begin_row();
    json.add("utilization", util);
    json.add("converged_frac", converged_frac);
    json.add("gs_passes_mean", gs_passes.mean());
    json.add("gs_passes_max", gs_passes.max());
    json.add("jc_sweeps_mean", jc_sweeps.mean());
    json.add("jc_sweeps_max", jc_sweeps.max());
    json.add("gs_ms", gs_ms);
    json.add("jc_ms", jc_ms);
    json.add("gs_hops_run", static_cast<std::int64_t>(gs_stats.hops_run));
    json.add("gs_hops_shared",
             static_cast<std::int64_t>(gs_stats.hops_shared));
    json.add("gate_ok", pass_ok);
    ok &= pass_ok;
  }
  t.print();
  if (!json.save()) {
    std::printf("cannot write %s\n", json.path().c_str());
    return 1;
  }
  std::printf("\nJSON written to %s\n", json.path().c_str());
  if (!ok) {
    std::printf("GATE FAILED: a converged Gauss-Seidel solve took more than "
                "1 pass, or Gauss-Seidel and Jacobi disagreed.\n");
    return 1;
  }
  return 0;
}
