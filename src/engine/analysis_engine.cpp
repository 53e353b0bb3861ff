#include "engine/analysis_engine.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <thread>
#include <utility>

namespace gmfnet::engine {

AnalysisEngine::AnalysisEngine(net::Network network, core::HolisticOptions opts)
    : empty_ctx_(std::make_shared<const core::AnalysisContext>(
          std::move(network))),
      opts_(opts) {
  link_shard_.assign(empty_ctx_->network().link_count(), kNoShard);
  publish();  // publish the (empty) world
}

const gmf::Flow& AnalysisEngine::flow(std::size_t index) const {
  const FlowLoc& loc = locs_.at(index);
  return shards_[loc.shard].ctx->flow(
      net::FlowId(static_cast<std::int32_t>(loc.local)));
}

EngineStats AnalysisEngine::stats() const {
  EngineStats out;
  out.evaluations = stats_.evaluations.v.load(std::memory_order_relaxed);
  out.full_runs = stats_.full_runs.v.load(std::memory_order_relaxed);
  out.incremental_runs =
      stats_.incremental_runs.v.load(std::memory_order_relaxed);
  out.flow_analyses = stats_.flow_analyses.v.load(std::memory_order_relaxed);
  out.flow_results_reused =
      stats_.flow_results_reused.v.load(std::memory_order_relaxed);
  out.sweeps = stats_.sweeps.v.load(std::memory_order_relaxed);
  out.hops_run = stats_.hops_run.v.load(std::memory_order_relaxed);
  out.hops_shared = stats_.hops_shared.v.load(std::memory_order_relaxed);
  out.jsum_writes = stats_.jsum_writes.v.load(std::memory_order_relaxed);
  return out;
}

void AnalysisEngine::reset_stats() {
  stats_.evaluations.v.store(0, std::memory_order_relaxed);
  stats_.full_runs.v.store(0, std::memory_order_relaxed);
  stats_.incremental_runs.v.store(0, std::memory_order_relaxed);
  stats_.flow_analyses.v.store(0, std::memory_order_relaxed);
  stats_.flow_results_reused.v.store(0, std::memory_order_relaxed);
  stats_.sweeps.v.store(0, std::memory_order_relaxed);
  stats_.hops_run.v.store(0, std::memory_order_relaxed);
  stats_.hops_shared.v.store(0, std::memory_order_relaxed);
  stats_.jsum_writes.v.store(0, std::memory_order_relaxed);
}

void AnalysisEngine::record_run(const RunStats& rs) {
  if (!rs.ran) return;
  stats_.evaluations.v.fetch_add(1, std::memory_order_relaxed);
  if (rs.full) {
    stats_.full_runs.v.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.incremental_runs.v.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.flow_analyses.v.fetch_add(rs.flow_analyses,
                                   std::memory_order_relaxed);
  stats_.flow_results_reused.v.fetch_add(rs.flow_results_reused,
                                         std::memory_order_relaxed);
  stats_.sweeps.v.fetch_add(rs.sweeps, std::memory_order_relaxed);
  stats_.hops_run.v.fetch_add(rs.hops_run, std::memory_order_relaxed);
  stats_.hops_shared.v.fetch_add(rs.hops_shared, std::memory_order_relaxed);
  stats_.jsum_writes.v.fetch_add(rs.jsum_writes, std::memory_order_relaxed);
}

std::uint32_t AnalysisEngine::merge_shards(
    const std::vector<std::uint32_t>& parts) {
  Shard merged;
  core::AnalysisContext ctx = core::AnalysisContext::empty_clone(*empty_ctx_);

  // The merged cache keeps every part's warm state: flows a part's
  // converged cache covers are adopted at their (unchanged) fixed point;
  // uncovered flows — parts never solved, or flows added since a part's
  // last solve — get a padded entry seeded with the holistic initial state
  // and their route links dirtied, so the next run restarts exactly them
  // (and what their jitters move) instead of the whole merged domain going
  // cold.  A part whose cache exists but did not converge invalidates the
  // merge (its entries are mid-iteration): the merged shard then solves
  // cold, the same as the pre-shard engine's invalid cache.
  bool converged = true;
  bool sched = true;
  for (const std::uint32_t pi : parts) {
    if (shards_[pi].cache) {
      converged &= shards_[pi].cache->converged;
      sched &= shards_[pi].cache->schedulable;
    }
  }

  // Merge in the canonical global-id order (see merge_order): the
  // Gauss-Seidel sweep order inside a merged component matches the
  // one-context engine's exactly.
  const std::vector<MergeEnt> ents = merge_order(
      parts, [this](std::uint32_t part) -> const std::vector<net::FlowId>& {
        return shards_[part].to_global;
      });

  core::HolisticResult cache;
  cache.converged = converged;
  cache.schedulable = sched;
  std::vector<std::size_t> uncovered;
  for (std::size_t pos = 0; pos < ents.size(); ++pos) {
    const MergeEnt& e = ents[pos];
    const Shard& part = shards_[e.shard];
    ctx.adopt_flow_deferred(*part.ctx,
                            net::FlowId(static_cast<std::int32_t>(e.local)));
    merged.to_global.push_back(e.global);
    if (part.cache_valid() && e.local < part.cache->flows.size()) {
      cache.flows.push_back(part.cache->flows[e.local]);
      cache.jitters.adopt_flow(part.cache->jitters,
                               net::FlowId(static_cast<std::int32_t>(e.local)),
                               net::FlowId(static_cast<std::int32_t>(pos)));
    } else {
      cache.flows.emplace_back();
      uncovered.push_back(pos);
    }
  }
  // All parts registered: one aggregate pass per link (see
  // adopt_flow_deferred), bit-identical to per-adopt recomputation.
  ctx.recompute_all_aggregates();
  // With no covered flow at all there is no warm state to keep: leave the
  // cache null so the run goes (and is counted) cold.
  const bool any_covered = uncovered.size() < ents.size();
  if (any_covered) {
    for (const std::size_t pos : uncovered) {
      const net::FlowId local(static_cast<std::int32_t>(pos));
      cache.jitters.reset_to_source(ctx, local);
      for (const net::LinkRef l : ctx.route_links(local)) {
        merged.dirty_links.insert(l);
      }
    }
  }
  for (const std::uint32_t pi : parts) {
    Shard& part = shards_[pi];
    if (part.cache) {
      cache.sweeps = std::max(cache.sweeps, part.cache->sweeps);
    }
    merged.dirty_links.insert(part.dirty_links.begin(),
                              part.dirty_links.end());
    merged.removal_pending |= part.removal_pending;
  }
  merged.ctx = std::make_shared<const core::AnalysisContext>(std::move(ctx));
  if (any_covered) {
    merged.cache =
        std::make_shared<const core::HolisticResult>(std::move(cache));
  }

  // parts is ascending: erase back-to-front so indices stay valid, then
  // renumber the survivors and index the merged shard that absorbed the
  // erased parts' flows and links.
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  renumber_shards(parts);
  shards_.push_back(std::move(merged));
  const auto merged_idx = static_cast<std::uint32_t>(shards_.size() - 1);
  index_shard(merged_idx);
  return merged_idx;
}

bool AnalysisEngine::split_if_disconnected(
    std::uint32_t idx, std::optional<std::uint32_t> gone) {
  Shard& s = shards_[idx];
  const core::AnalysisContext& ctx = *s.ctx;
  const std::size_t n = ctx.flow_count();
  if (n <= 1) return false;

  // Union-find (path halving) over local flow ids: the flows on one link
  // are united by chaining its consecutive members, O(sum of members).  A
  // union keeps the smaller root, so each root is its component's
  // smallest local id.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  ctx.for_each_used_link([&](net::LinkId l) {
    const std::vector<net::FlowId>& on = ctx.flows_on_link(l);
    for (std::size_t k = 1; k < on.size(); ++k) {
      unite(static_cast<std::uint32_t>(on[k - 1].v),
            static_cast<std::uint32_t>(on[k].v));
    }
  });

  // Components in first-appearance (local id) order: each part's flows keep
  // their relative local order, preserving per-link flow order.
  std::vector<std::vector<std::uint32_t>> members;
  std::vector<std::uint32_t> part_of_root(n, kNoShard);  // none yet
  for (std::uint32_t f = 0; f < n; ++f) {
    std::uint32_t& part = part_of_root[find(f)];
    if (part == kNoShard) {
      part = static_cast<std::uint32_t>(members.size());
      members.emplace_back();
    }
    members[part].push_back(f);
  }
  if (members.size() <= 1) return false;

  // The cache entry of local id f: one further on past the removed flow's
  // entry, when the cache still holds it.
  const auto entry = [&](std::uint32_t f) {
    return gone && f >= *gone ? f + 1 : f;
  };
  const bool cache_full = s.cache && s.cache->converged &&
                          s.cache->flows.size() == n + (gone ? 1 : 0);
  std::vector<Shard> parts;
  parts.reserve(members.size());
  for (const std::vector<std::uint32_t>& m : members) {
    Shard part;
    core::AnalysisContext pctx = core::AnalysisContext::empty_clone(*empty_ctx_);
    for (const std::uint32_t f : m) {
      pctx.adopt_flow_deferred(ctx, net::FlowId(static_cast<std::int32_t>(f)));
      part.to_global.push_back(s.to_global[f]);
    }
    pctx.recompute_all_aggregates();
    if (cache_full) {
      // The parent fixed point restricted to a disconnected component is
      // exactly that component's fixed point.
      core::HolisticResult c;
      c.converged = true;
      c.sweeps = s.cache->sweeps;
      bool sched = true;
      for (std::size_t k = 0; k < m.size(); ++k) {
        const std::uint32_t e = entry(m[k]);
        c.flows.push_back(s.cache->flows[e]);
        c.jitters.adopt_flow(s.cache->jitters,
                             net::FlowId(static_cast<std::int32_t>(e)),
                             net::FlowId(static_cast<std::int32_t>(k)));
        sched &= c.flows.back().schedulable();
      }
      c.schedulable = sched;
      part.cache = std::make_shared<const core::HolisticResult>(std::move(c));
    }
    for (std::size_t k = 0; k < m.size(); ++k) {
      for (const net::LinkRef l :
           pctx.route_links(net::FlowId(static_cast<std::int32_t>(k)))) {
        if (s.dirty_links.count(l) != 0) part.dirty_links.insert(l);
      }
    }
    part.removal_pending = s.removal_pending && !part.dirty_links.empty();
    part.ctx = std::make_shared<const core::AnalysisContext>(std::move(pctx));
    parts.push_back(std::move(part));
  }
  shards_[idx] = std::move(parts.front());
  for (std::size_t k = 1; k < parts.size(); ++k) {
    shards_.push_back(std::move(parts[k]));
  }
  return true;
}

void AnalysisEngine::index_shard(std::uint32_t sid) {
  const Shard& s = shards_[sid];
  for (std::uint32_t l = 0; l < s.to_global.size(); ++l) {
    locs_[static_cast<std::size_t>(s.to_global[l].v)] = FlowLoc{sid, l};
  }
  s.ctx->for_each_used_link([&](net::LinkId l) { link_shard_[l] = sid; });
}

void AnalysisEngine::renumber_shards(const std::vector<std::uint32_t>& erased) {
  // remap[old position] -> new position after the erasures.
  const std::size_t old_count = shards_.size() + erased.size();
  std::vector<std::uint32_t> remap(old_count, 0);
  std::size_t gone = 0;
  for (std::uint32_t i = 0; i < old_count; ++i) {
    if (gone < erased.size() && erased[gone] == i) {
      ++gone;  // remap stays 0; the caller re-indexes the absorbing shard
    } else {
      remap[i] = i - static_cast<std::uint32_t>(gone);
    }
  }
  for (FlowLoc& fl : locs_) fl.shard = remap[fl.shard];
  for (std::uint32_t& sid : link_shard_) {
    if (sid != kNoShard) sid = remap[sid];
  }
}

net::FlowId AnalysisEngine::add_flow(gmf::Flow flow) {
  flow.validate(network());
  const net::FlowId global(static_cast<std::int32_t>(locs_.size()));

  const std::vector<std::uint32_t> touched =
      owning_shards(network(), link_shard_, flow.route().links());
  std::uint32_t target;
  if (touched.empty()) {
    target = static_cast<std::uint32_t>(shards_.size());
    Shard fresh;
    fresh.ctx = std::make_shared<const core::AnalysisContext>(
        core::AnalysisContext::empty_clone(*empty_ctx_));
    shards_.push_back(std::move(fresh));
  } else if (touched.size() == 1) {
    target = touched.front();
  } else {
    // The new flow bridges several domains: union them first.
    target = merge_shards(touched);
  }

  Shard& s = shards_[target];
  core::AnalysisContext work = *s.ctx;
  const net::FlowId local = work.add_flow(std::move(flow));
  for (const net::LinkRef l : work.route_links(local)) s.dirty_links.insert(l);
  for (const net::LinkId l : work.route_link_ids(local)) {
    link_shard_[l] = target;
  }
  s.ctx = std::make_shared<const core::AnalysisContext>(std::move(work));
  s.to_global.push_back(global);
  locs_.push_back(FlowLoc{target, static_cast<std::uint32_t>(local.v)});
  publish_stale_ = true;
  lean_stale_ = true;
  return global;
}

bool AnalysisEngine::remove_flow(std::size_t index) {
  if (index >= locs_.size()) return false;
  const FlowLoc loc = locs_[index];
  Shard& s = shards_[loc.shard];
  const net::FlowId local(static_cast<std::int32_t>(loc.local));
  const std::vector<net::LinkRef> touched_links = s.ctx->route_links(local);
  const std::vector<net::LinkId> touched_ids = s.ctx->route_link_ids(local);

  core::AnalysisContext work = *s.ctx;
  work.remove_flow(loc.local);
  s.ctx = std::make_shared<const core::AnalysisContext>(std::move(work));
  s.to_global.erase(s.to_global.begin() +
                    static_cast<std::ptrdiff_t>(loc.local));
  // The cache keeps the removed flow's entry until the split check below:
  // a split cuts its parts from it directly, otherwise the entry is
  // erased there.
  const bool cached = s.cache && loc.local < s.cache->flows.size();
  for (const net::LinkRef l : touched_links) s.dirty_links.insert(l);
  s.removal_pending = true;

  // Global ids above the removed one shift down by one, in every shard —
  // flat integer passes (forced by the index-shifting removal contract);
  // all structural rework stays domain-local.
  for (Shard& sh : shards_) {
    for (net::FlowId& g : sh.to_global) {
      if (static_cast<std::size_t>(g.v) > index) g = net::FlowId(g.v - 1);
    }
  }
  locs_.erase(locs_.begin() + static_cast<std::ptrdiff_t>(index));

  // Links that lost their last flow leave the link->shard index.
  for (const net::LinkId l : touched_ids) {
    if (s.ctx->flows_on_link(l).empty()) link_shard_[l] = kNoShard;
  }

  if (s.flow_count() == 0) {
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(loc.shard));
    renumber_shards({loc.shard});
  } else {
    // Locals above the removed one shifted down within the shard.
    for (std::uint32_t l = loc.local;
         l < shards_[loc.shard].to_global.size(); ++l) {
      locs_[static_cast<std::size_t>(shards_[loc.shard].to_global[l].v)] =
          FlowLoc{loc.shard, l};
    }
    // Rebuild-on-remove: the removal may have disconnected the domain.
    const std::size_t before_split = shards_.size();
    if (split_if_disconnected(loc.shard, cached ? std::optional(loc.local)
                                                : std::nullopt)) {
      index_shard(loc.shard);
      for (auto k = static_cast<std::uint32_t>(before_split);
           k < shards_.size(); ++k) {
        index_shard(k);
      }
    } else if (cached) {
      // Keep the cache parallel to the shifted local ids; the surviving
      // entries remain the converged state of their (clean) components.
      Shard& kept = shards_[loc.shard];
      core::HolisticResult c = *kept.cache;
      c.flows.erase(c.flows.begin() + static_cast<std::ptrdiff_t>(loc.local));
      c.jitters.erase_flow(local);
      kept.cache = std::make_shared<const core::HolisticResult>(std::move(c));
    }
  }
  publish_stale_ = true;
  lean_stale_ = true;
  return true;
}

std::size_t AnalysisEngine::effective_threads() const {
  return pool_ ? pool_->size()
               : std::max(1u, std::thread::hardware_concurrency());
}

void AnalysisEngine::ensure_pool() {
  if (!pool_) {
    pool_ = std::make_unique<ThreadPool>();
    // One probe workspace per parallel_for_slotted slot (workers + the
    // calling thread's inline slot).
    batch_scratch_ = std::vector<ProbeScratch>(pool_->size() + 1);
  }
}

std::shared_ptr<EngineSnapshot> AnalysisEngine::build_snapshot() const {
  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->empty_ctx_ = empty_ctx_;
  snap->opts_ = opts_;
  snap->shards_.reserve(shards_.size());
  for (const Shard& s : shards_) {
    snap->shards_.push_back(
        EngineSnapshot::ShardView{s.ctx, s.cache, s.to_global});
  }
  snap->locs_ = locs_;
  snap->link_shard_ = link_shard_;
  return snap;
}

void AnalysisEngine::publish() {
  std::atomic_store(&published_,
                    std::shared_ptr<const EngineSnapshot>(build_snapshot()));
  publish_stale_ = false;
  // A batch ends at its publication: drop the lean view and the shard
  // states it pins.
  lean_snap_.reset();
  lean_stale_ = true;
}

bool AnalysisEngine::solve_dirty() {
  std::vector<std::size_t> dirty;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].needs_run()) dirty.push_back(i);
  }
  if (dirty.empty()) return false;

  std::vector<RunStats> rs(dirty.size());
  if (dirty.size() > 1 && effective_threads() > 1) {
    // Independent domains: fan the dirty shards over the pool.  Shard runs
    // touch disjoint state.
    ensure_pool();
    pool_->parallel_for(dirty.size(), [&](std::size_t k) {
      rs[k] = shards_[dirty[k]].run(opts_);
    });
  } else {
    // One dirty shard — or one effective worker: the pool round trip buys
    // nothing, solve inline on the writer thread.
    for (std::size_t k = 0; k < dirty.size(); ++k) {
      rs[k] = shards_[dirty[k]].run(opts_);
    }
  }
  for (const RunStats& r : rs) record_run(r);

  // Flows of untouched shards are adopted verbatim at assembly.
  std::size_t run_flows = 0;
  for (const std::size_t i : dirty) run_flows += shards_[i].flow_count();
  stats_.flow_results_reused.v.fetch_add(locs_.size() - run_flows,
                                         std::memory_order_relaxed);

  // A run installs fresh shard caches: any lean snapshot's ShardViews now
  // point at stale state.
  lean_stale_ = true;
  return true;
}

const core::HolisticResult& AnalysisEngine::evaluate() {
  // published_ keeps the snapshot, and so the result, alive until the next
  // publication.
  return snapshot()->result();
}

std::shared_ptr<const EngineSnapshot> AnalysisEngine::snapshot() {
  if (solve_dirty() || publish_stale_) publish();
  return published();
}

WhatIfResult AnalysisEngine::what_if(const gmf::Flow& candidate) {
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();
  EngineSnapshot::Probe probe =
      snap->run_probe(candidate, writer_scratch_, /*retain_ctx=*/false);
  // Untouched shards' flows enter the full result verbatim: count them as
  // reused alongside the probe's kept seeded flows.
  probe.rs.flow_results_reused += flow_count() + 1 - probe.to_global.size();
  record_run(probe.rs);
  return snap->finish_probe(std::move(probe));
}

std::optional<core::HolisticResult> AnalysisEngine::try_admit(
    gmf::Flow candidate) {
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();
  // retain_ctx: an accepted probe is committed wholesale, so its context
  // (candidate included) and complete local result must leave the scratch.
  EngineSnapshot::Probe probe =
      snap->run_probe(candidate, writer_scratch_, /*retain_ctx=*/true);
  probe.rs.flow_results_reused += flow_count() + 1 - probe.to_global.size();
  record_run(probe.rs);
  if (!snap->probe_admissible(probe)) return std::nullopt;

  // Commit: adopt the probe's context and converged state wholesale; the
  // next arrival warm-starts from here.
  commit_probe(std::move(probe));
  return published()->result();
}

void AnalysisEngine::commit_probe(EngineSnapshot::Probe probe,
                                  bool publish_now) {
  assert(probe.base_converged);
  Shard merged;
  merged.to_global = std::move(probe.to_global);
  merged.ctx =
      std::make_shared<const core::AnalysisContext>(std::move(*probe.ctx));
  merged.cache =
      std::make_shared<const core::HolisticResult>(std::move(probe.local));
  // probe.touched is ascending: erase back-to-front, renumber survivors,
  // then index the committed shard (which includes the new candidate, so
  // locs_ grows by one first).
  for (auto it = probe.touched.rbegin(); it != probe.touched.rend(); ++it) {
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  renumber_shards(probe.touched);
  locs_.push_back(FlowLoc{});
  shards_.push_back(std::move(merged));
  index_shard(static_cast<std::uint32_t>(shards_.size() - 1));
  lean_stale_ = true;
  if (publish_now) {
    publish();
  } else {
    // Lean batch commit: the shard surgery is done but the published
    // snapshot stays stale until the batch publishes once.
    publish_stale_ = true;
  }
}

void AnalysisEngine::begin_batch() {
  // Lean probes must not run against a snapshot predating the batch.
  lean_stale_ = true;
}

void AnalysisEngine::refresh_lean_snapshot() {
  lean_snap_ = build_snapshot();
  lean_stale_ = false;
}

bool AnalysisEngine::try_admit_lean(gmf::Flow candidate) {
  (void)solve_dirty();
  // Until the batch's first commit the publication is current and serves;
  // after it, a writer-private view of the unpublished shard state does.
  std::shared_ptr<const EngineSnapshot> snap;
  if (!publish_stale_) {
    snap = published();
  } else {
    if (lean_stale_ || !lean_snap_) refresh_lean_snapshot();
    snap = lean_snap_;
  }
  // retain_ctx: an accepted probe is committed wholesale, as in try_admit.
  EngineSnapshot::Probe probe =
      snap->run_probe(candidate, writer_scratch_, /*retain_ctx=*/true);
  probe.rs.flow_results_reused += flow_count() + 1 - probe.to_global.size();
  record_run(probe.rs);
  if (!snap->probe_admissible(probe)) return false;
  commit_probe(std::move(probe), /*publish=*/false);
  return true;
}

const core::HolisticResult& AnalysisEngine::end_batch() {
  // Any lean commit marked the publication stale, so this publishes exactly
  // once; a batch that committed nothing keeps the current publication.
  return evaluate();
}

std::vector<WhatIfResult> AnalysisEngine::evaluate_batch(
    const std::vector<gmf::Flow>& candidates) {
  const std::shared_ptr<const EngineSnapshot> snap = snapshot();
  std::vector<WhatIfResult> out(candidates.size());
  if (candidates.empty()) return out;

  // Surface validation errors to the caller before any analysis runs.
  for (const gmf::Flow& c : candidates) c.validate(network());

  ensure_pool();
  // Each slot owns one ProbeScratch (batch_scratch_ has pool size + 1
  // entries; slot size() is the single-worker inline path), so repeated
  // candidates against the same shards reuse a warm probe base.
  pool_->parallel_for_slotted(
      candidates.size(), [&](std::size_t slot, std::size_t i) {
        EngineSnapshot::Probe probe =
            snap->run_probe(candidates[i], batch_scratch_[slot],
                            /*retain_ctx=*/false);
        probe.rs.flow_results_reused +=
            snap->flow_count() + 1 - probe.to_global.size();
        record_run(probe.rs);
        out[i] = snap->finish_probe(std::move(probe));
      });
  return out;
}

}  // namespace gmfnet::engine
