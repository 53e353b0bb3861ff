// Experiment E9: cost of the analysis itself (google-benchmark).
//
// The admission controller runs online, so its latency matters: we measure
// the demand-curve queries (eqs 10-13), a single per-hop analysis, a full
// Figure-6 pass, and the holistic fixed point as functions of flow count,
// GMF cycle length and hop count.
#include <benchmark/benchmark.h>

#include "core/first_hop.hpp"
#include "core/holistic.hpp"
#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "net/shortest_path.hpp"
#include "net/topology.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

using namespace gmfnet;

namespace {

workload::GeneratedTaskset make_taskset(const net::StarNetwork& star,
                                        int flows, int frames,
                                        std::uint64_t seed) {
  Rng rng(seed);
  workload::TasksetParams params;
  params.num_flows = flows;
  params.total_utilization = 0.4;
  params.min_frames = frames;
  params.max_frames = frames;
  params.deadline_factor_lo = 2.0;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(star.net, star.hosts, params, rng);
  if (!ts) std::abort();
  return *ts;
}

void BM_DemandCurveBuild(benchmark::State& state) {
  const auto frames = static_cast<int>(state.range(0));
  const auto star = net::make_star_network(4, 100'000'000);
  auto ts = make_taskset(star, 1, frames, 42);
  const gmf::FlowLinkParams params(ts.flows[0], 100'000'000);
  for (auto _ : state) {
    gmf::DemandCurve curve(params);
    benchmark::DoNotOptimize(curve);
  }
  state.SetComplexityN(frames);
}
BENCHMARK(BM_DemandCurveBuild)->RangeMultiplier(2)->Range(1, 64)
    ->Complexity(benchmark::oNSquared);

void BM_DemandCurveQuery(benchmark::State& state) {
  const auto star = net::make_star_network(4, 100'000'000);
  auto ts = make_taskset(star, 1, static_cast<int>(state.range(0)), 43);
  const gmf::FlowLinkParams params(ts.flows[0], 100'000'000);
  const gmf::DemandCurve curve(params);
  Time t = Time::us(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.mx(t));
    t += Time::us(313);
    if (t > Time::sec(1)) t = Time::us(17);
  }
}
BENCHMARK(BM_DemandCurveQuery)->RangeMultiplier(4)->Range(1, 64);

void BM_FirstHop(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  const auto star = net::make_star_network(4, 100'000'000);
  auto ts = make_taskset(star, flows, 4, 44);
  // Pack every flow onto the same source host to maximise interference.
  core::AnalysisContext ctx(star.net, ts.flows);
  const core::JitterMap jm = core::JitterMap::initial(ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::analyze_first_hop(ctx, jm, core::FlowId(0), 0));
  }
}
BENCHMARK(BM_FirstHop)->RangeMultiplier(2)->Range(2, 16);

void BM_Figure6SinglePass(benchmark::State& state) {
  const auto hops = static_cast<int>(state.range(0));
  const auto line = net::make_line_network(hops, 100'000'000);
  std::vector<gmf::Flow> flows = {workload::make_voip_flow(
      "v", *net::shortest_route(line.net, line.src_host, line.dst_host))};
  core::AnalysisContext ctx(line.net, flows);
  for (auto _ : state) {
    core::JitterMap jm = core::JitterMap::initial(ctx);
    benchmark::DoNotOptimize(
        core::analyze_frame_end_to_end(ctx, jm, core::FlowId(0), 0));
  }
  state.SetComplexityN(hops);
}
BENCHMARK(BM_Figure6SinglePass)->DenseRange(1, 8)->Complexity(benchmark::oN);

void BM_HolisticFixedPoint(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  const auto star = net::make_star_network(8, 100'000'000);
  auto ts = make_taskset(star, flows, 4, 45);
  core::assign_priorities(ts.flows,
                          core::PriorityScheme::kDeadlineMonotonic);
  core::AnalysisContext ctx(star.net, ts.flows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze_holistic(ctx));
  }
  state.SetComplexityN(flows);
}
BENCHMARK(BM_HolisticFixedPoint)->RangeMultiplier(2)->Range(2, 32);

void BM_AdmissionDecision(benchmark::State& state) {
  // Cost of one online admission test at a realistic operating point.
  const auto s = workload::make_videoconf_scenario(100'000'000);
  for (auto _ : state) {
    engine::AnalysisEngine ac(s.network);
    for (const auto& f : s.flows) {
      benchmark::DoNotOptimize(ac.try_admit(f));
    }
  }
}
BENCHMARK(BM_AdmissionDecision);

void BM_ContextConstruction(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  const auto star = net::make_star_network(8, 100'000'000);
  auto ts = make_taskset(star, flows, 8, 46);
  for (auto _ : state) {
    core::AnalysisContext ctx(star.net, ts.flows);
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_ContextConstruction)->RangeMultiplier(2)->Range(2, 32);

}  // namespace

BENCHMARK_MAIN();
