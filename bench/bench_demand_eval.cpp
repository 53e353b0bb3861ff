// Demand-evaluation cost: merged LevelEnvelope + monotone cursor vs the
// naive per-interferer MX/NX path inside the per-hop busy-period and
// queueing recurrences (eqs 14-18 / 21-27 / 28-35), plus the DemandCurve
// construction microbench for the dedupe-before-sort build.
//
// Scenario: k interfering GMF flows sharing one first-hop link, one switch
// ingress and one egress link with the analysed flow — the per-hop loop
// then pays k demand lookups per fixed-point iteration on every stage.
// Both paths run the identical analysis (bit-identical results, asserted);
// only the demand evaluation strategy differs.  The gated section uses k
// distinct video flows (k interferer classes); an ungated section repeats
// it with k identical VoIP legs, which the link tables count as one class.
//
//   $ ./bench_demand_eval [reps]
//
// Exits non-zero if the envelope path is not >= 3x faster on hop analysis
// at 32+ interferers, or if the two paths ever disagree.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/end_to_end.hpp"
#include "core/holistic.hpp"
#include "gmf/demand.hpp"
#include "gmf/link_params.hpp"
#include "net/topology.hpp"
#include "util/bench_json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

using namespace gmfnet;

namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 1'000'000'000;

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

/// A 12-frame MPEG-like GMF cycle with varied separations and sizes: the
/// staircases get dozens of distinct spans, which is what makes the naive
/// per-iteration binary searches expensive.  `scale` multiplies payloads so
/// every interferer count runs the link at the same (high) utilization —
/// the regime where admission decisions are actually interesting and the
/// busy-period chains are long.
gmf::Flow video_flow(const std::string& name, net::Route route, Rng& rng) {
  std::vector<gmf::FrameSpec> frames(12);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    frames[f].min_separation = gmfnet::Time::us(rng.uniform_i64(5'000, 20'000));
    frames[f].deadline = gmfnet::Time::sec(2);
    frames[f].jitter = gmfnet::Time::us(rng.uniform_i64(0, 2'000));
    frames[f].payload_bits =
        (f == 0 ? 15'000 : rng.uniform_i64(2'000, 5'000)) * 8;
  }
  return gmf::Flow(name, std::move(route), std::move(frames), /*priority=*/3);
}

/// One hop-analysis measurement: median per-flow analysis time of the naive
/// and the envelope path, and whether their results agreed.
struct HopRow {
  bool converged = false;
  bool identical = true;
  double naive_us = 0.0;
  double envelope_us = 0.0;
  [[nodiscard]] double speedup() const { return naive_us / envelope_us; }
};

/// k interferers sharing one first-hop link, one switch ingress and one
/// egress link with the analysed flow (flow 0), each of about `rate_bps`.
/// The link speed puts the shared link at ~60% utilization for every k —
/// the near-capacity regime admission control exists for, with
/// realistically long busy-period chains.  Both paths re-analyse flow 0
/// against the converged jitters: the steady state every sweep after the
/// first, and every engine what-if probe, actually runs.
template <typename MakeFlow>
HopRow hop_row(int k, double rate_bps, int reps, MakeFlow&& make) {
  const auto speed =
      static_cast<ethernet::LinkSpeedBps>((k + 1) * rate_bps / 0.60);
  const auto star = net::make_star_network(2, speed);
  core::AnalysisContext ctx(star.net);
  for (int f = 0; f < k + 1; ++f) {
    ctx.add_flow(make("v" + std::to_string(f),
                      net::Route({star.hosts[0], star.sw, star.hosts[1]})));
  }

  HopRow row;
  core::HolisticOptions hopts;
  const core::HolisticResult base = core::analyze_holistic(ctx, hopts);
  row.converged = base.converged;
  if (!base.converged) return row;

  const core::FlowId probe_flow(0);
  core::HopOptions naive_opts;
  naive_opts.use_envelope = false;
  core::HopOptions env_opts;  // default: envelope on

  core::FlowResult naive_result, env_result;
  std::vector<double> naive_us, env_us;
  naive_us.reserve(static_cast<std::size_t>(reps));
  env_us.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    core::JitterMap jm = base.jitters;
    naive_us.push_back(wall_us([&] {
      naive_result =
          core::analyze_flow_end_to_end(ctx, jm, probe_flow, naive_opts);
    }));
    core::JitterMap jm2 = base.jitters;
    env_us.push_back(wall_us([&] {
      env_result =
          core::analyze_flow_end_to_end(ctx, jm2, probe_flow, env_opts);
    }));
    row.identical &=
        naive_result.worst_response() == env_result.worst_response();
    for (std::size_t fr = 0; fr < naive_result.frames.size(); ++fr) {
      row.identical &=
          naive_result.frames[fr].response == env_result.frames[fr].response;
    }
  }
  row.naive_us = median(std::move(naive_us));
  row.envelope_us = median(std::move(env_us));
  return row;
}

void add_hop_row(Table& t, BenchJsonWriter& json, const std::string& section,
                 int k, const HopRow& row) {
  t.add_row({std::to_string(k), Table::fixed(row.naive_us, 1),
             Table::fixed(row.envelope_us, 1),
             Table::fixed(row.speedup(), 2) + "x",
             row.identical ? "yes" : "NO"});
  json.begin_row();
  json.add("section", section);
  json.add("interferers", k);
  json.add("naive_us", row.naive_us);
  json.add("envelope_us", row.envelope_us);
  json.add("speedup", row.speedup());
  json.add("identical", row.identical);
}

/// Reference pre-dedupe DemandCurve build: enumerate all n^2 windows, sort
/// them all, collapse to the staircase — what the constructor did before
/// the per-span dedupe.  Kept here (not in the library) purely as the
/// microbench baseline.
std::size_t reference_build(const gmf::FlowLinkParams& p) {
  struct Raw {
    gmfnet::Time::rep span, cost;
    std::int64_t count;
  };
  const std::size_t n = p.frame_count();
  std::vector<Raw> raw;
  raw.reserve(n * n);
  for (std::size_t k1 = 0; k1 < n; ++k1) {
    for (std::size_t k2 = 1; k2 <= n; ++k2) {
      raw.push_back(Raw{p.tsum_window(k1, k2).ps(), p.csum_window(k1, k2).ps(),
                        p.nsum_window(k1, k2)});
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const Raw& a, const Raw& b) { return a.span < b.span; });
  struct Step {
    gmfnet::Time::rep span, cost;
    std::int64_t count;
  };
  std::vector<Step> steps;
  gmfnet::Time::rep best_cost = 0;
  std::int64_t best_count = 0;
  for (const Raw& r : raw) {
    best_cost = std::max(best_cost, r.cost);
    best_count = std::max(best_count, r.count);
    if (!steps.empty() && steps.back().span == r.span) {
      steps.back().cost = best_cost;
      steps.back().count = best_count;
    } else {
      steps.push_back(Step{r.span, best_cost, best_count});
    }
  }
  return steps.size();
}

/// Constant-rate trace of `n` frames — the dedupe-friendly shape every
/// fixed-fps video source produces (only n distinct spans out of n^2).
gmf::Flow trace_flow(int n, net::Route route) {
  std::vector<gmf::FrameSpec> frames(static_cast<std::size_t>(n));
  for (std::size_t f = 0; f < frames.size(); ++f) {
    frames[f].min_separation = gmfnet::Time::ms(40);
    frames[f].deadline = gmfnet::Time::sec(2);
    frames[f].jitter = gmfnet::Time::zero();
    frames[f].payload_bits =
        (f % 12 == 0 ? 20'000 : 3'000 + static_cast<std::int64_t>(f % 7) * 500) * 8;
  }
  return gmf::Flow("trace" + std::to_string(n), std::move(route),
                   std::move(frames), /*priority=*/3);
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 64;
  std::printf(
      "=== Demand evaluation: merged envelope + cursor vs naive MX/NX "
      "(%d reps) ===\n\n", reps);

  BenchJsonWriter json("demand_eval");
  bool ok = true;

  // ---- hop analysis: naive vs envelope ------------------------------------
  // Distinct video flows: every interferer is its own class, so this gates
  // the envelope + cursor itself.
  Table t("Per-flow hop analysis (first hop + ingress + egress, median us)");
  t.set_columns({"interferers", "naive us", "envelope us", "speedup",
                 "identical"});
  double speedup_at_32 = 0.0;
  for (const int k : {8, 16, 32, 64}) {
    Rng rng(0xbe7c + static_cast<std::uint64_t>(k));
    const auto video = [&](const std::string& name, net::Route route) {
      return video_flow(name, std::move(route), rng);
    };
    const HopRow row = hop_row(k, /*rate_bps=*/2.85e6, reps, video);
    if (!row.converged) {
      std::printf("FAIL: base scenario did not converge at k=%d\n", k);
      return 1;
    }
    if (k == 32) speedup_at_32 = row.speedup();
    if (k >= 32 && row.speedup() < 3.0) ok = false;
    if (!row.identical) ok = false;
    add_hop_row(t, json, "hop_analysis", k, row);
  }
  t.print();
  std::printf("\n");

  // ---- hop analysis over one interferer class (ungated) --------------------
  // k identical VoIP legs: the link tables collapse them into one class of
  // multiplicity k, so envelope_us should stay flat in k while the naive
  // path grows linearly.
  Table tu("Per-flow hop analysis, k identical VoIP interferers (median us)");
  tu.set_columns({"interferers", "naive us", "envelope us", "speedup",
                  "identical"});
  const auto voip = [](const std::string& name, net::Route route) {
    return workload::make_voip_flow(name, std::move(route),
                                    gmfnet::Time::ms(50), 3);
  };
  const auto rate_star = net::make_star_network(2, kSpeed);
  const double voip_bps =
      gmf::FlowLinkParams(voip("rate", net::Route({rate_star.hosts[0],
                                                    rate_star.sw,
                                                    rate_star.hosts[1]})),
                          kSpeed)
          .utilization() *
      static_cast<double>(kSpeed);
  for (const int k : {8, 16, 32, 64}) {
    const HopRow row = hop_row(k, voip_bps, reps, voip);
    if (!row.converged) {
      std::printf("FAIL: uniform scenario did not converge at k=%d\n", k);
      return 1;
    }
    if (!row.identical) ok = false;
    add_hop_row(tu, json, "hop_analysis_uniform", k, row);
  }
  tu.print();
  std::printf("\n");

  // ---- DemandCurve construction: dedupe-before-sort -----------------------
  Table tc("DemandCurve construction (median us)");
  tc.set_columns({"frames", "windows", "steps", "presorted us", "dedup us",
                  "speedup"});
  const auto star = net::make_star_network(2, kSpeed);
  for (const int n : {12, 48, 96, 192}) {
    const gmf::Flow flow =
        trace_flow(n, net::Route({star.hosts[0], star.sw, star.hosts[1]}));
    const gmf::FlowLinkParams p(flow, kSpeed);

    std::size_t ref_steps = 0;
    std::size_t steps = 0;
    std::vector<double> ref_us, new_us;
    for (int r = 0; r < std::max(reps / 4, 4); ++r) {
      ref_us.push_back(wall_us([&] { ref_steps = reference_build(p); }));
      new_us.push_back(wall_us([&] {
        const gmf::DemandCurve d(p);
        steps = d.steps().size();
      }));
    }
    const double rm = median(std::move(ref_us));
    const double dm = median(std::move(new_us));
    tc.add_row({std::to_string(n), std::to_string(n * n),
                std::to_string(steps), Table::fixed(rm, 1),
                Table::fixed(dm, 1), Table::fixed(rm / dm, 2) + "x"});
    json.begin_row();
    json.add("section", std::string("construction"));
    json.add("frames", n);
    json.add("windows", n * n);
    json.add("ref_steps", static_cast<std::int64_t>(ref_steps));
    json.add("steps", static_cast<std::int64_t>(steps));
    json.add("presorted_us", rm);
    json.add("dedup_us", dm);
    json.add("speedup", rm / dm);
  }
  tc.print();

  if (json.save()) {
    std::printf("\nJSON written to %s\n", json.path().c_str());
  } else {
    std::printf("\nFAIL: could not write %s\n", json.path().c_str());
    return 1;
  }

  if (!ok) {
    std::printf(
        "FAIL: envelope hop analysis is not >= 3x faster at 32+ interferers "
        "(speedup@32 = %.2fx) or results diverged.\n", speedup_at_32);
    return 1;
  }
  std::printf(
      "PASS: envelope hop analysis >= 3x faster at 32+ interferers, "
      "bit-identical results.\n");
  return 0;
}
