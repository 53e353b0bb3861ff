#include "engine/shard.hpp"

#include <algorithm>
#include <utility>

namespace gmfnet::engine {

std::vector<MergeEnt> merge_order(
    const std::vector<std::uint32_t>& parts,
    const std::function<const std::vector<net::FlowId>&(std::uint32_t)>&
        to_global_of) {
  std::vector<MergeEnt> ents;
  for (const std::uint32_t part : parts) {
    const std::vector<net::FlowId>& to_global = to_global_of(part);
    for (std::uint32_t l = 0; l < to_global.size(); ++l) {
      ents.push_back(MergeEnt{to_global[l], part, l});
    }
  }
  std::sort(ents.begin(), ents.end(),
            [](const MergeEnt& a, const MergeEnt& b) {
              return a.global.v < b.global.v;
            });
  return ents;
}

void finalize_schedulable(core::HolisticResult& r) {
  if (!r.converged) return;
  r.schedulable = true;
  for (const core::FlowResult& fr : r.flows) {
    if (!fr.schedulable()) {
      r.schedulable = false;
      break;
    }
  }
}

std::vector<bool> dirty_closure(const core::AnalysisContext& ctx,
                                std::vector<bool> dirty,
                                const std::set<net::LinkRef>& dirty_links,
                                std::size_t cached_flows) {
  const std::size_t n = ctx.flow_count();
  dirty.resize(n, false);
  // Flows without a cached FlowResult must be dirty: the incremental run
  // reuses cache entries for clean flows.
  for (std::size_t f = cached_flows; f < n; ++f) dirty[f] = true;

  std::vector<net::FlowId> worklist;
  for (std::size_t f = 0; f < n; ++f) {
    if (dirty[f]) {
      worklist.push_back(net::FlowId(static_cast<std::int32_t>(f)));
      continue;
    }
    for (const net::LinkRef l :
         ctx.route_links(net::FlowId(static_cast<std::int32_t>(f)))) {
      if (dirty_links.count(l) != 0) {
        dirty[f] = true;
        worklist.push_back(net::FlowId(static_cast<std::int32_t>(f)));
        break;
      }
    }
  }
  // Transitive closure over link sharing: interference only travels across
  // shared links, so everything outside the closure keeps its fixed point.
  while (!worklist.empty()) {
    const net::FlowId i = worklist.back();
    worklist.pop_back();
    for (const net::LinkRef l : ctx.route_links(i)) {
      for (const net::FlowId j : ctx.flows_on_link(l)) {
        const auto jf = static_cast<std::size_t>(j.v);
        if (!dirty[jf]) {
          dirty[jf] = true;
          worklist.push_back(j);
        }
      }
    }
  }
  return dirty;
}

void seed_source_jitters(const core::AnalysisContext& ctx, net::FlowId id,
                         core::JitterMap& map) {
  map.clear_flow(id);
  const gmf::Flow& flow = ctx.flow(id);
  const core::StageKey& source = ctx.stages(id).front();
  for (std::size_t k = 0; k < flow.frame_count(); ++k) {
    map.set_jitter(id, source, k, flow.frame(k).jitter);
  }
}

core::JitterMap warm_start(const core::AnalysisContext& ctx,
                           const core::JitterMap& cached,
                           std::size_t cached_flows,
                           const std::vector<bool>& dirty, bool reset_dirty) {
  // Clean flows sit exactly at their (unchanged) fixed point; dirty flows
  // after an add start from the old fixed point, a sound
  // under-approximation of the new one.  Start from one copy of the cached
  // map and reset only the flows that must restart from the initial state
  // (flows with no cached entries, and the dirty component after a
  // removal).
  core::JitterMap start = cached;
  for (std::size_t f = 0; f < ctx.flow_count(); ++f) {
    if (f < cached_flows && !(dirty[f] && reset_dirty)) continue;
    seed_source_jitters(ctx, net::FlowId(static_cast<std::int32_t>(f)), start);
  }
  return start;
}

RunStats Shard::run(const core::HolisticOptions& opts) {
  RunStats rs;
  const std::size_t n = flow_count();
  const bool clean = cache_valid() && dirty_links.empty() &&
                     !removal_pending && cache->flows.size() == n;
  if (clean) return rs;
  rs.ran = true;

  std::vector<bool> dirty;
  core::JitterMap start;
  if (!cache_valid()) {
    // No converged state to start from: cold run, everything dirty.  With
    // all flows dirty and the initial map this is exactly the cold
    // Gauss-Seidel analyze_holistic sweep.
    rs.full = true;
    dirty.assign(n, true);
    start = core::JitterMap::initial(*ctx);
  } else {
    dirty = dirty_closure(*ctx, std::vector<bool>(n, false), dirty_links,
                          cache->flows.size());
    start = warm_start(*ctx, cache->jitters, cache->flows.size(), dirty,
                       removal_pending);
  }

  core::IncrementalStats is;
  core::SolveRequest req;
  req.dirty = &dirty;
  req.start = core::WarmStartView(start);
  core::HolisticResult result = core::solve_holistic(*ctx, req, opts, &is);
  rs.flow_analyses = is.flow_analyses;
  rs.sweeps = is.sweeps;

  // Clean flows keep their converged results verbatim.
  for (std::size_t f = 0; f < n; ++f) {
    if (!dirty[f]) {
      result.flows[f] = cache->flows[f];
      ++rs.flow_results_reused;
    }
  }
  finalize_schedulable(result);

  cache = std::make_shared<const core::HolisticResult>(std::move(result));
  dirty_links.clear();
  removal_pending = false;
  return rs;
}

}  // namespace gmfnet::engine
