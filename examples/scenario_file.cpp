// Operator workflow: scenarios live in config files, not C++.  Loads a
// scenario (from a path given on the command line, or a built-in demo
// written to a temp file first), analyses it, prints a slack report, then
// answers the operator's next question — "what else would fit?" — with a
// batch of incremental what-if probes against the cached analysis state.
//
//   $ ./scenario_file [scenario.txt]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/sensitivity.hpp"
#include "engine/analysis_engine.hpp"
#include "io/scenario_io.hpp"
#include "util/table.hpp"

using namespace gmfnet;

namespace {

const char* kDemo = R"(# demo: two buildings, two switches, mixed traffic
endhost cam1
endhost cam2
endhost nvr
endhost phone1
endhost phone2
switch  sw-a croute_ns=2700 csend_ns=1000
switch  sw-b croute_ns=2700 csend_ns=1000
duplex  cam1 sw-a 100000000
duplex  cam2 sw-a 100000000
duplex  phone1 sw-a 100000000
duplex  sw-a sw-b 100000000
duplex  nvr sw-b 100000000
duplex  phone2 sw-b 100000000

# surveillance video: 20 kB I-frame then three 3 kB P-frames, 25 fps
flow cam1-feed prio=1 route=cam1,sw-a,sw-b,nvr
frame t_ms=40 d_ms=80 gj_ms=1 payload_bytes=20000
frame t_ms=40 d_ms=80 gj_ms=1 payload_bytes=3000
frame t_ms=40 d_ms=80 gj_ms=1 payload_bytes=3000
frame t_ms=40 d_ms=80 gj_ms=1 payload_bytes=3000

flow cam2-feed prio=1 route=cam2,sw-a,sw-b,nvr
frame t_ms=40 d_ms=80 gj_ms=1 payload_bytes=20000
frame t_ms=40 d_ms=80 gj_ms=1 payload_bytes=3000
frame t_ms=40 d_ms=80 gj_ms=1 payload_bytes=3000
frame t_ms=40 d_ms=80 gj_ms=1 payload_bytes=3000

# telephony across the trunk
flow call prio=5 rtp route=phone1,sw-a,sw-b,phone2
frame t_ms=20 d_ms=20 gj_us=500 payload_bytes=160
flow call-back prio=5 rtp route=phone2,sw-b,sw-a,phone1
frame t_ms=20 d_ms=20 gj_us=500 payload_bytes=160
)";

std::string stage_name(const workload::Scenario& s,
                       const core::StageKey& st) {
  if (st.is_link()) {
    return "link(" + s.network.node(st.a).name + " -> " +
           s.network.node(st.b).name + ")";
  }
  return "in(" + s.network.node(st.a).name + ")";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = std::string(std::getenv("TMPDIR") ? std::getenv("TMPDIR")
                                             : "/tmp") +
           "/gmfnet_demo_scenario.txt";
    const auto demo = io::parse_scenario(kDemo);
    if (!io::save_scenario(demo, path)) {
      std::printf("cannot write demo scenario to %s\n", path.c_str());
      return 1;
    }
    std::printf("(no file given; wrote the built-in demo to %s)\n\n",
                path.c_str());
  }

  workload::Scenario scenario;
  try {
    scenario = io::load_scenario(path);
  } catch (const std::exception& e) {
    std::printf("failed to load %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::printf("loaded %zu nodes, %zu links, %zu flows from %s\n\n",
              scenario.network.node_count(), scenario.network.link_count(),
              scenario.flows.size(), path.c_str());

  // The engine owns the sharded analysis world; the what-if probes below
  // reuse its published fixed point.  The slack sweep wants one whole-set
  // context, so it builds and solves its own: the same least fixed point.
  engine::AnalysisEngine eng(scenario.network);
  for (const gmf::Flow& f : scenario.flows) eng.add_flow(f);

  const core::AnalysisContext slack_ctx(scenario.network, scenario.flows);
  const auto slack = core::compute_slack(slack_ctx);
  if (!slack) {
    std::printf("analysis diverged: the configuration is overloaded\n");
    return 1;
  }

  Table t("Guarantee report");
  t.set_columns({"flow", "slack", "verdict", "bottleneck"});
  bool all_ok = true;
  for (const core::FlowSlack& fs : *slack) {
    const auto& flow = scenario.flows[static_cast<std::size_t>(fs.flow.v)];
    const bool ok = fs.slack >= Time::zero();
    all_ok &= ok;
    t.add_row({flow.name(), fs.slack.str(), ok ? "GUARANTEED" : "AT RISK",
               stage_name(scenario, fs.bottleneck)});
  }
  t.print();
  std::printf("\noverall: %s\n", all_ok ? "all deadlines guaranteed"
                                        : "NOT schedulable as configured");

  // What-if: would a clone of each flow (one more camera, one more call on
  // the same route) still be guaranteed?  One batch, fanned over the
  // thread pool, each probe warm-started from the cached fixed point.
  std::vector<gmf::Flow> candidates;
  for (const gmf::Flow& f : scenario.flows) {
    gmf::Flow clone = f;
    clone.set_name(f.name() + "+1");
    candidates.push_back(std::move(clone));
  }
  const auto probes = eng.evaluate_batch(candidates);

  Table w("What-if: one more of each");
  w.set_columns({"candidate", "verdict", "its worst bound"});
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto cand_id =
        core::FlowId(static_cast<std::int32_t>(scenario.flows.size()));
    w.add_row({candidates[i].name(),
               probes[i].admissible ? "would fit" : "would NOT fit",
               probes[i].converged()
                   ? probes[i].worst_response(cand_id).str()
                   : "diverges"});
  }
  std::printf("\n");
  w.print();
  return all_ok ? 0 : 1;
}
