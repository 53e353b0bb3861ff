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
// The gate is the envelope's own speed, read against a fixed reference
// kernel timed in the same run (`vs_reference` = reference us / envelope
// us): k synthetic staircases read by binary search at a fixed sequence of
// points, defined in this file, so neither a faster naive oracle nor any
// other library change moves it.  The naive/envelope `speedup` is printed
// for context only: it moves whenever the oracle does.
//
//   $ ./bench_demand_eval [reps]
//
// Exits non-zero if `vs_reference` falls under its floor at 32+
// interferers, or if the two paths ever disagree.
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
/// Self floor on vs_reference at 32+ interferers.  Eight runs on a quiet
/// 4-vCPU host read 1.40-1.52 at k = 32 and 0.94-0.99 at k = 64 (1.04-1.12
/// and 0.68-0.76 while a 4-job compile shared the host); a copy whose
/// envelope re-anchors its cursor before every evaluation read 0.62-0.75
/// and 0.39-0.41 (0.55-0.59 and 0.33-0.35 under the compile).
/// bench/check_bench_regression.py gates every row within 25% of its
/// baseline.
constexpr double kMinVsReference = 0.5;

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
/// and the envelope path, whether their results agreed, and the reference
/// kernel's median time at the same k.
struct HopRow {
  bool converged = false;
  bool identical = true;
  double naive_us = 0.0;
  double envelope_us = 0.0;
  double reference_us = 0.0;
  [[nodiscard]] double speedup() const { return naive_us / envelope_us; }
  [[nodiscard]] double vs_reference() const {
    return reference_us / envelope_us;
  }
};

/// The fixed reference kernel: k staircases of 24 steps (spans increasing,
/// costs and counts their prefix maxima, drawn from a fixed seed), each
/// read with one binary search and a wrap into its cycle at `points`
/// increasing points per run — the shape of a naive per-curve demand sum,
/// one point per demand read of the analysis it is timed against.  Nothing
/// here calls the library, so its time tracks only the host.
class ReferenceKernel {
 public:
  explicit ReferenceKernel(int k) {
    constexpr std::size_t kSteps = 24;
    Rng rng(0x5EFu + static_cast<std::uint64_t>(k));
    curves_.resize(static_cast<std::size_t>(k));
    for (Curve& c : curves_) {
      std::int64_t span = 0, cost = 0, count = 0;
      for (std::size_t s = 0; s < kSteps; ++s) {
        span += rng.uniform_i64(1'000, 20'000'000);
        cost += rng.uniform_i64(10'000, 200'000);
        count += 1 + static_cast<std::int64_t>(rng.next_below(3));
        c.span.push_back(span);
        c.cost.push_back(cost);
        c.count.push_back(count);
      }
      c.cycle = span + rng.uniform_i64(1'000, 20'000'000);
      c.cycle_cost = cost;
      c.cycle_count = count;
    }
  }

  /// Sums every curve at `points` points; returns a checksum, so the work
  /// cannot be elided.
  std::int64_t run(std::int64_t points) const {
    std::int64_t sink = 0;
    std::int64_t t = 0;
    for (std::int64_t p = 0; p < points; ++p) {
      t += 37'000 + (p % 7) * 11'000;
      std::int64_t cost = 0, count = 0;
      for (const Curve& c : curves_) {
        const std::int64_t cycles = t / c.cycle;
        const std::int64_t rem = t - cycles * c.cycle;
        const auto it = std::upper_bound(c.span.begin(), c.span.end(), rem);
        const auto i = static_cast<std::size_t>(it - c.span.begin());
        cost += cycles * c.cycle_cost + (i == 0 ? 0 : c.cost[i - 1]);
        count += cycles * c.cycle_count + (i == 0 ? 0 : c.count[i - 1]);
      }
      sink += cost ^ count;
    }
    return sink;
  }

 private:
  struct Curve {
    std::vector<std::int64_t> span, cost, count;
    std::int64_t cycle = 0, cycle_cost = 0, cycle_count = 0;
  };
  std::vector<Curve> curves_;
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

  // One reference point per interferer-demand read of the analysis: each
  // fixed-point iteration of every stage reads the others' demand once.
  std::int64_t reads = 0;
  core::JitterMap counted = base.jitters;
  const core::FlowResult once =
      core::analyze_flow_end_to_end(ctx, counted, probe_flow, env_opts);
  for (const core::FrameResult& fr : once.frames) {
    for (const core::StageResponse& st : fr.stages) reads += st.hop.iterations;
  }
  const ReferenceKernel reference(k);

  // The three are timed back to back in every rep, so a host slowdown hits
  // them alike.
  core::FlowResult naive_result, env_result;
  std::vector<double> naive_us, env_us, ref_us;
  std::int64_t sink = 0;
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
    ref_us.push_back(wall_us([&] { sink += reference.run(reads); }));
    row.identical &=
        naive_result.worst_response() == env_result.worst_response();
    for (std::size_t fr = 0; fr < naive_result.frames.size(); ++fr) {
      row.identical &=
          naive_result.frames[fr].response == env_result.frames[fr].response;
    }
  }
  std::printf("%s", sink == 42 ? " " : "");  // keeps the checksums live
  row.naive_us = median(std::move(naive_us));
  row.envelope_us = median(std::move(env_us));
  row.reference_us = median(std::move(ref_us));
  return row;
}

void add_hop_row(Table& t, BenchJsonWriter& json, const std::string& section,
                 int k, const HopRow& row) {
  t.add_row({std::to_string(k), Table::fixed(row.naive_us, 1),
             Table::fixed(row.envelope_us, 1),
             Table::fixed(row.speedup(), 2) + "x",
             Table::fixed(row.reference_us, 1),
             Table::fixed(row.vs_reference(), 2) + "x",
             row.identical ? "yes" : "NO"});
  json.begin_row();
  json.add("section", section);
  json.add("interferers", k);
  json.add("naive_us", row.naive_us);
  json.add("envelope_us", row.envelope_us);
  json.add("speedup", row.speedup());
  json.add("reference_us", row.reference_us);
  json.add("vs_reference", row.vs_reference());
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
                 "reference us", "vs reference", "identical"});
  double vs_reference_at_32 = 0.0;
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
    if (k == 32) vs_reference_at_32 = row.vs_reference();
    if (k >= 32 && row.vs_reference() < kMinVsReference) ok = false;
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
                  "reference us", "vs reference", "identical"});
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
        "FAIL: envelope hop analysis under %.2fx the reference kernel at 32+ "
        "interferers (vs_reference@32 = %.2fx) or results diverged.\n",
        kMinVsReference, vs_reference_at_32);
    return 1;
  }
  std::printf(
      "PASS: envelope hop analysis >= %.2fx the reference kernel at 32+ "
      "interferers, bit-identical results.\n", kMinVsReference);
  return 0;
}
