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

  // Per link id: 1 = a dirty link, 2 = its flows already joined the
  // worklist.
  std::vector<std::uint8_t> mark(ctx.network().link_count(), 0);
  for (const net::LinkRef l : dirty_links) {
    const net::LinkId id = ctx.link_id(l);
    if (id != net::kNoLink) mark[id] = 1;
  }
  std::vector<net::FlowId> worklist;
  for (std::size_t f = 0; f < n; ++f) {
    const net::FlowId id(static_cast<std::int32_t>(f));
    if (!dirty[f]) {
      for (const net::LinkId l : ctx.route_link_ids(id)) {
        if (mark[l] == 1) {
          dirty[f] = true;
          break;
        }
      }
    }
    if (dirty[f]) worklist.push_back(id);
  }
  // Transitive closure over link sharing: interference only travels across
  // shared links, so everything outside the closure keeps its fixed point.
  // Each link's flows are scanned once.
  while (!worklist.empty()) {
    const net::FlowId i = worklist.back();
    worklist.pop_back();
    for (const net::LinkId l : ctx.route_link_ids(i)) {
      if (mark[l] == 2) continue;
      mark[l] = 2;
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

RunStats Shard::run(const core::HolisticOptions& opts) {
  RunStats rs;
  const std::size_t n = flow_count();
  const bool clean = cache_valid() && dirty_links.empty() &&
                     !removal_pending && cache->flows.size() == n;
  if (clean) return rs;
  rs.ran = true;

  std::vector<bool> dirty;
  core::JitterMap start;
  std::vector<const core::FlowResult*> seed;
  core::SolveRequest req;
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
    // Warm start: clean flows sit exactly at their (unchanged) fixed point;
    // dirty flows start from the old one, jitters and stage results alike —
    // below the new fixed point after an add, above it after a removal,
    // which the solve honours only on an acyclic key graph.  Only the nodes
    // on dirty links, and those downstream of a jitter that moves, are
    // re-analysed.  Flows with no cached entries start from their source
    // jitters, unseeded.
    start = cache->jitters;
    for (std::size_t f = cache->flows.size(); f < n; ++f) {
      start.reset_to_source(*ctx, net::FlowId(static_cast<std::int32_t>(f)));
    }
    seed.reserve(cache->flows.size());
    for (const core::FlowResult& fr : cache->flows) seed.push_back(&fr);
    req.seed = &seed;
    req.changed_links = &dirty_links;
    req.seed_above = removal_pending;
  }

  core::IncrementalStats is;
  req.dirty = &dirty;
  req.start = core::WarmStartView(start);
  core::HolisticResult result = core::solve_holistic(*ctx, req, opts, &is);
  rs.flow_analyses = is.flow_analyses;
  rs.sweeps = is.sweeps;
  rs.flow_results_reused = is.results_kept;
  rs.hops_run = is.hops_run;
  rs.hops_shared = is.hops_shared;
  rs.jsum_writes = is.jsum_writes;

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
