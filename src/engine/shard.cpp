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

std::vector<std::uint32_t> owning_shards(
    const net::Network& net, const std::vector<std::uint32_t>& link_shard,
    const std::vector<net::LinkRef>& links) {
  std::vector<std::uint32_t> out;
  for (const net::LinkRef l : links) {
    const net::LinkId id = net.link_id(l);
    if (id != net::kNoLink && link_shard[id] != kNoShard) {
      out.push_back(link_shard[id]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

RunStats Shard::run(const core::HolisticOptions& opts) {
  RunStats rs;
  if (!needs_run()) return rs;
  rs.ran = true;

  core::JitterMap start;
  std::vector<const core::FlowResult*> seed;
  core::SolveRequest req;
  if (!cache_valid()) {
    // No converged state to start from: cold run from the initial map —
    // exactly the cold Gauss-Seidel analyze_holistic sweep.
    rs.full = true;
  } else {
    // Warm start: every flow starts from the old fixed point, jitters and
    // stage results alike — below the new fixed point after an add, above
    // it after a removal, which the solve honours only where the forward
    // closure of the dirty links is acyclic.  Only the nodes on dirty
    // links, and those downstream of a jitter that moves, are re-analysed.
    // Flows with no cached entries start from their source jitters,
    // unseeded.
    start = cache->jitters;
    for (std::size_t f = cache->flows.size(); f < flow_count(); ++f) {
      start.reset_to_source(*ctx, net::FlowId(static_cast<std::int32_t>(f)));
    }
    seed.reserve(cache->flows.size());
    for (const core::FlowResult& fr : cache->flows) seed.push_back(&fr);
    req.start = &start;
    req.seed = &seed;
    req.changed_links = &dirty_links;
    req.seed_above = removal_pending;
  }

  core::IncrementalStats is;
  core::HolisticResult result = core::solve_holistic(*ctx, req, opts, &is);
  rs.flow_analyses = is.flow_analyses;
  rs.sweeps = is.sweeps;
  rs.flow_results_reused = is.results_kept;
  rs.hops_run = is.hops_run;
  rs.hops_shared = is.hops_shared;
  rs.jsum_writes = is.jsum_writes;

  cache = std::make_shared<const core::HolisticResult>(std::move(result));
  dirty_links.clear();
  removal_pending = false;
  return rs;
}

}  // namespace gmfnet::engine
