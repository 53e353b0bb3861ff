// Online admission control for VoIP, the paper's motivating application
// (the "Telefonkaos" incident: telephony over Ethernet without delay
// guarantees).  An operator's switch admits calls one by one, each with a
// guaranteed network delay, and refuses the call that would break any
// guarantee.
//
// Decisions run on the incremental AnalysisEngine: the analysis world and
// its converged jitter fixed point live across arrivals, so each verdict
// re-analyses only the component the call touches, warm-started — the
// per-decision latency column is the point.
//
//   $ ./voip_admission [max_calls]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/analysis_engine.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

using namespace gmfnet;

int main(int argc, char** argv) {
  const int max_calls = argc > 1 ? std::atoi(argv[1]) : 64;

  // An office: one software switch, 10 phones, 10 Mbit/s cabling.
  const auto star = net::make_star_network(10, 10'000'000);
  engine::AnalysisEngine controller(star.net);

  std::printf("Admitting G.711 calls (160-byte RTP payload every 20 ms, "
              "20 ms network deadline)\nonto a 10-port software switch, "
              "10 Mbit/s links...\n\n");

  Table t("Admission log");
  t.set_columns({"call", "endpoints", "verdict", "decision us",
                 "worst bound after"});
  Rng rng(7);
  int admitted = 0;
  int rejected = 0;
  for (int c = 0; c < max_calls; ++c) {
    const auto a = static_cast<std::size_t>(rng.next_below(10));
    auto b = a;
    while (b == a) b = static_cast<std::size_t>(rng.next_below(10));

    const gmf::Flow call = workload::make_voip_flow(
        "call" + std::to_string(c),
        net::Route({star.hosts[a], star.sw, star.hosts[b]}));
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = controller.try_admit(call);
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    std::string worst = "-";
    if (result) {
      ++admitted;
      Time w = Time::zero();
      for (std::size_t f = 0; f < result->flows.size(); ++f) {
        w = max(w, result->flows[f].worst_response());
      }
      worst = w.str();
    } else {
      ++rejected;
    }
    t.add_row({std::to_string(c),
               "h" + std::to_string(a) + " -> h" + std::to_string(b),
               result ? "ADMIT" : "reject", Table::fixed(us, 1), worst});
    if (!result && admitted + 8 < c) break;  // saturated; stop logging
  }
  t.print();

  const engine::EngineStats stats = controller.stats();
  std::printf("\n%d calls admitted, %d rejected.\n", admitted, rejected);
  std::printf("Engine: %zu per-flow analyses run, %zu cached flow results "
              "reused, %zu sweeps total\n        across %zu evaluations "
              "(%zu cold, %zu incremental).\n",
              stats.flow_analyses, stats.flow_results_reused, stats.sweeps,
              stats.evaluations, stats.full_runs, stats.incremental_runs);
  std::printf("Every admitted call keeps a proven end-to-end bound below "
              "its 20 ms budget —\nthe guarantee the incident's network "
              "lacked.\n");
  return admitted > 0 ? 0 : 1;
}
