// Experiment E8: convergence behaviour of the holistic fixed point
// ("Putting it all together"): sweeps to convergence vs. utilization and
// the link-ordered Gauss-Seidel vs. Jacobi (parallel) ablation.  The bench
// fails itself when the two orders reach different fixed points.
//
// Plus a context section: plain Gauss-Seidel on a near-critical
// interference ring (two equal-priority flows crossing two shared links in
// opposite route order — the jitter feedback cycle whose lap gain
// approaches 1 as the frame separation drops toward saturation, turning the
// climb into a slow geometric ratchet).  Emits the ring's sweep counts and
// wall times to BENCH_holistic_convergence.json; no gate reads them (the
// tier-1 HolisticOrder.CyclicRingMatchesJacobi test pins the sweep counts).
// Both sections also print the link-ordered sweep's per-frame hop analyses
// run and served from an identical node's result (informational).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/holistic.hpp"
#include "core/priority.hpp"
#include "net/topology.hpp"
#include "util/bench_json.hpp"
#include "util/csv.hpp"
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

struct Ring {
  net::Network net;
  std::vector<gmf::Flow> flows;
};

// Same construction as HolisticOrder.CyclicRingMatchesJacobi: a 6-switch ring,
// flows A and B share X->Y and Z->W in opposite route order at equal
// priority, closing the dependency cycle R_A@XY <- J_B@XY <- R_B@ZW <-
// J_A@ZW <- R_A@XY.  `separation_us` tunes the cycle's lap gain: 202us is
// just above the divergence threshold (~190us) on 100 Mbps links.
Ring make_near_critical_ring(std::int64_t separation_us) {
  Ring r;
  net::Network& netw = r.net;
  const auto X = netw.add_switch("X"), Y = netw.add_switch("Y");
  const auto M = netw.add_switch("M"), Z = netw.add_switch("Z");
  const auto W = netw.add_switch("W"), N = netw.add_switch("N");
  const auto hA = netw.add_endhost("hA"), hA2 = netw.add_endhost("hA2");
  const auto hB = netw.add_endhost("hB"), hB2 = netw.add_endhost("hB2");
  const ethernet::LinkSpeedBps sp = 100'000'000;
  netw.add_duplex_link(X, Y, sp);
  netw.add_duplex_link(Y, M, sp);
  netw.add_duplex_link(M, Z, sp);
  netw.add_duplex_link(Z, W, sp);
  netw.add_duplex_link(W, N, sp);
  netw.add_duplex_link(N, X, sp);
  netw.add_duplex_link(hA, X, sp);
  netw.add_duplex_link(W, hA2, sp);
  netw.add_duplex_link(hB, Z, sp);
  netw.add_duplex_link(Y, hB2, sp);
  netw.validate();
  gmf::FrameSpec fs;
  fs.min_separation = Time::us(separation_us);
  fs.deadline = Time::ms(500);
  fs.jitter = Time::ms(2);
  fs.payload_bits = 1000 * 8;
  r.flows.emplace_back("A", net::Route({hA, X, Y, M, Z, W, hA2}),
                       std::vector<gmf::FrameSpec>{fs}, 3);
  r.flows.emplace_back("B", net::Route({hB, Z, W, N, X, Y, hB2}),
                       std::vector<gmf::FrameSpec>{fs}, 3);
  return r;
}

int run_near_critical_section(BenchJsonWriter& json) {
  std::printf("\n=== Plain Gauss-Seidel on the near-critical ring ===\n\n");
  Table t("Near-saturation ratchet: sweeps and wall time");
  t.set_columns({"separation", "sweeps", "ms", "hops run / shared"});

  for (const std::int64_t sep_us : {205, 202, 200}) {
    const Ring r = make_near_critical_ring(sep_us);
    const core::AnalysisContext ctx(r.net, r.flows);
    core::HolisticOptions plain;
    plain.max_sweeps = 512;

    core::HolisticResult rp;
    core::IncrementalStats st;
    double plain_ms = 1e100;
    for (int rep = 0; rep < 5; ++rep) {
      st = {};
      plain_ms = std::min(plain_ms, wall_ms([&] {
                            rp = core::solve_holistic(ctx, {}, plain, &st);
                          }));
    }
    if (!rp.converged) {
      std::printf("plain solve did not converge at %lldus — bench bug\n",
                  static_cast<long long>(sep_us));
      return 1;
    }
    t.add_row({Table::num(sep_us) + "us", Table::num(rp.sweeps),
               Table::fixed(plain_ms, 2),
               Table::num(static_cast<double>(st.hops_run)) + " / " +
                   Table::num(static_cast<double>(st.hops_shared))});
    json.begin_row();
    json.add("section", std::string("near_critical_ring"));
    json.add("separation_us", static_cast<std::int64_t>(sep_us));
    json.add("plain_sweeps", rp.sweeps);
    json.add("plain_ms", plain_ms);
    json.add("hops_run", static_cast<std::int64_t>(st.hops_run));
    json.add("hops_shared", static_cast<std::int64_t>(st.hops_shared));
  }
  t.print();
  return 0;
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

  Table t("Sweeps to convergence and wall time");
  t.set_columns({"utilization", "converged", "GS sweeps (mean/max)",
                 "Jacobi sweeps (mean/max)", "GS ms", "Jacobi ms",
                 "GS hops run / shared", "fixed points agree"});
  CsvWriter csv({"utilization", "converged_frac", "gs_sweeps_mean",
                 "gs_sweeps_max", "jc_sweeps_mean", "jc_sweeps_max", "gs_ms",
                 "jc_ms", "gs_hops_run", "gs_hops_shared", "agree"});

  for (const double util : {0.1, 0.3, 0.5, 0.7, 0.85}) {
    OnlineStats gs_sweeps, jc_sweeps;
    double gs_ms = 0, jc_ms = 0;
    core::IncrementalStats gs_stats;
    int converged = 0, total = 0;
    bool agree = true;
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

      core::HolisticOptions gs;
      core::HolisticOptions jc;
      jc.order = core::SweepOrder::kJacobi;
      core::HolisticResult rg, rj;
      gs_ms += wall_ms(
          [&] { rg = core::solve_holistic(ctx, {}, gs, &gs_stats); });
      jc_ms += wall_ms([&] { rj = core::analyze_holistic(ctx, jc); });
      agree &= rj.converged == rg.converged;
      if (rg.converged) {
        ++converged;
        gs_sweeps.add(rg.sweeps);
        if (rj.converged) {
          jc_sweeps.add(rj.sweeps);
          agree &= rg.jitters == rj.jitters;
        }
      }
    }
    t.add_row({Table::fixed(util, 2),
               Table::fixed(total ? static_cast<double>(converged) / total
                                  : 0.0,
                            2),
               Table::fixed(gs_sweeps.mean(), 1) + " / " +
                   Table::num(gs_sweeps.max()),
               Table::fixed(jc_sweeps.mean(), 1) + " / " +
                   Table::num(jc_sweeps.max()),
               Table::fixed(gs_ms, 1), Table::fixed(jc_ms, 1),
               Table::num(static_cast<double>(gs_stats.hops_run)) +
                   " / " +
                   Table::num(static_cast<double>(gs_stats.hops_shared)),
               agree ? "yes" : "NO"});
    csv.begin_row();
    csv.add(util);
    csv.add(total ? static_cast<double>(converged) / total : 0.0);
    csv.add(gs_sweeps.mean());
    csv.add(gs_sweeps.max());
    csv.add(jc_sweeps.mean());
    csv.add(jc_sweeps.max());
    csv.add(gs_ms);
    csv.add(jc_ms);
    csv.add(static_cast<std::int64_t>(gs_stats.hops_run));
    csv.add(static_cast<std::int64_t>(gs_stats.hops_shared));
    csv.add(agree ? "1" : "0");
    if (!agree) {
      t.print();
      std::printf("Gauss-Seidel and Jacobi disagreed — bug.\n");
      return 1;
    }
  }
  t.print();
  csv.save("bench_holistic_convergence.csv");
  std::printf("\nCSV written to bench_holistic_convergence.csv\n");

  BenchJsonWriter json("holistic_convergence");
  const int rc = run_near_critical_section(json);
  if (!json.save()) {
    std::printf("cannot write %s\n", json.path().c_str());
    return 1;
  }
  std::printf("\nJSON written to %s\n", json.path().c_str());
  return rc;
}
