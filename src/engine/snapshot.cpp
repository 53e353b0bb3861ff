#include "engine/snapshot.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

namespace gmfnet::engine {

const gmf::Flow& EngineSnapshot::flow(std::size_t index) const {
  const FlowLoc& loc = locs_.at(index);
  return shards_[loc.shard].ctx->flow(
      net::FlowId(static_cast<std::int32_t>(loc.local)));
}

std::vector<gmf::Flow> EngineSnapshot::flows() const {
  std::vector<gmf::Flow> out;
  out.reserve(locs_.size());
  for (std::size_t g = 0; g < locs_.size(); ++g) out.push_back(flow(g));
  return out;
}

const core::FlowResult& EngineSnapshot::flow_result(std::size_t index) const {
  const FlowLoc& loc = locs_.at(index);
  return shards_[loc.shard].result->flows[loc.local];
}

const core::HolisticResult& EngineSnapshot::result() const {
  std::call_once(global_once_, [this] {
    core::HolisticResult g;
    g.converged = true;
    g.sweeps = 0;
    g.flows.resize(locs_.size());
    bool sched = true;
    for (const ShardView& s : shards_) {
      // Every published shard holds a result: the engine solves all dirty
      // shards before publishing, and a run always installs one (even
      // diverged).
      g.converged &= s.result->converged;
      sched &= s.result->schedulable;
      g.sweeps = std::max(g.sweeps, s.result->sweeps);
      for (std::size_t l = 0; l < s.to_global.size(); ++l) {
        const auto gid = static_cast<std::size_t>(s.to_global[l].v);
        g.flows[gid] = s.result->flows[l];
        g.jitters.adopt_flow(s.result->jitters,
                             net::FlowId(static_cast<std::int32_t>(l)),
                             net::FlowId(static_cast<std::int32_t>(gid)));
      }
    }
    g.schedulable = g.converged && sched;
    global_ = std::move(g);
  });
  return *global_;
}

// --------------------------------------------------------- WhatIfResult --

const core::FlowResult& WhatIfResult::flow_result(net::FlowId global) const {
  if (verdict_only_) {
    throw std::logic_error(
        "verdict-only what-if result carries no per-flow payload");
  }
  if (full_) return full_->flows.at(static_cast<std::size_t>(global.v));
  if (!base_) return result().flows.at(static_cast<std::size_t>(global.v));
  const auto it =
      std::lower_bound(to_global_.begin(), to_global_.end(), global,
                       [](net::FlowId a, net::FlowId b) { return a.v < b.v; });
  if (it != to_global_.end() && it->v == global.v) {
    return local_.flows[static_cast<std::size_t>(it - to_global_.begin())];
  }
  return base_->flow_result(static_cast<std::size_t>(global.v));
}

const core::HolisticResult& WhatIfResult::result() const {
  if (verdict_only_) {
    throw std::logic_error(
        "verdict-only what-if result carries no per-flow payload");
  }
  if (full_) return *full_;
  if (!base_) {
    // Default-constructed value (or a cold probe that stored the complete
    // global-order result in local_).
    full_ = std::make_shared<const core::HolisticResult>(local_);
    return *full_;
  }
  core::HolisticResult r;
  r.converged = converged_;
  r.sweeps = sweeps_;
  // Untouched flows are adopted wholesale from the snapshot's whole-set
  // result: one flows-vector copy plus one copy-on-write pointer per flow —
  // paid only here, never on the probe hot path.
  const core::HolisticResult& base = base_->result();
  r.flows = base.flows;
  r.flows.resize(total_flows_);
  r.jitters = base.jitters;
  for (std::size_t f = 0; f < to_global_.size(); ++f) {
    const auto g = static_cast<std::size_t>(to_global_[f].v);
    r.flows[g] = local_.flows[f];
    r.jitters.adopt_flow(local_.jitters,
                         net::FlowId(static_cast<std::int32_t>(f)),
                         net::FlowId(static_cast<std::int32_t>(g)));
  }
  r.schedulable = admissible;
  full_ = std::make_shared<const core::HolisticResult>(std::move(r));
  return *full_;
}

WhatIfResult WhatIfResult::from_full(bool admissible,
                                     core::HolisticResult full) {
  WhatIfResult out;
  out.admissible = admissible;
  out.converged_ = full.converged;
  out.sweeps_ = full.sweeps;
  out.total_flows_ = full.flows.size();
  out.full_ = std::make_shared<const core::HolisticResult>(std::move(full));
  return out;
}

WhatIfResult WhatIfResult::verdict_only(bool admissible, bool converged,
                                        int sweeps, std::size_t flow_count) {
  WhatIfResult out;
  out.admissible = admissible;
  out.converged_ = converged;
  out.sweeps_ = sweeps;
  out.total_flows_ = flow_count;
  out.verdict_only_ = true;
  return out;
}

// ------------------------------------------------------- scratch entries --

ProbeScratch::Entry* EngineSnapshot::find_entry(
    ProbeScratch& scratch, const std::vector<std::uint32_t>& touched) const {
  for (ProbeScratch::Entry& e : scratch.entries_) {
    if (e.ctxs.size() != touched.size()) continue;
    bool match = true;
    for (std::size_t k = 0; k < touched.size(); ++k) {
      const ShardView& s = shards_[touched[k]];
      if (e.ctxs[k].get() != s.ctx.get() ||
          e.results[k].get() != s.result.get()) {
        match = false;
        break;
      }
    }
    if (match) return &e;
  }
  return nullptr;
}

ProbeScratch::Entry& EngineSnapshot::build_entry(
    ProbeScratch& scratch, const std::vector<std::uint32_t>& touched) const {
  ProbeScratch::Entry e;
  e.ctxs.reserve(touched.size());
  e.results.reserve(touched.size());
  for (const std::uint32_t s : touched) {
    e.ctxs.push_back(shards_[s].ctx);
    e.results.push_back(shards_[s].result);
  }

  // Assemble the residents-only base in the canonical global-id order (see
  // merge_order): the Gauss-Seidel sweep order inside the probed component
  // — and every per-link flow list, floating-point aggregate and envelope
  // merge — matches the one-context engine exactly.
  if (touched.size() == 1) {
    // Single touched domain (the common case): one context copy — paid
    // once per (scratch, shard state), amortized over every probe hit.
    const ShardView& s = shards_[touched.front()];
    e.base = *s.ctx;
    e.srcs.reserve(s.to_global.size());
    for (std::uint32_t l = 0; l < s.to_global.size(); ++l) {
      e.srcs.push_back(MergeEnt{s.to_global[l], 0, l});
    }
  } else {
    e.srcs = merge_order(
        touched,
        [this](std::uint32_t part) -> const std::vector<net::FlowId>& {
          return shards_[part].to_global;
        });
    // Re-key each entry to its position among the touched parts — the
    // index into the pinned ctxs/results, stable across republishes.
    for (MergeEnt& m : e.srcs) {
      m.shard = static_cast<std::uint32_t>(
          std::lower_bound(touched.begin(), touched.end(), m.shard) -
          touched.begin());
    }
    core::AnalysisContext base =
        core::AnalysisContext::empty_clone(*empty_ctx_);
    // Bulk adoption: register every flow, then recompute each link's
    // aggregates once — O(flows) aggregate work instead of the per-adopt
    // quadratic, bit-identical (the recompute sums from scratch in flow-id
    // order, exactly like add_flows).
    for (const MergeEnt& m : e.srcs) {
      base.adopt_flow_deferred(*e.ctxs[m.shard],
                               net::FlowId(static_cast<std::int32_t>(m.local)));
    }
    base.recompute_all_aggregates();
    e.base = std::move(base);
  }

  // Converged warm start and seed over the base: every resident sits at
  // its shard's published fixed point.
  e.base_seed.reserve(e.srcs.size());
  for (std::size_t pos = 0; pos < e.srcs.size(); ++pos) {
    const MergeEnt& m = e.srcs[pos];
    e.base_start.adopt_flow(e.results[m.shard]->jitters,
                            net::FlowId(static_cast<std::int32_t>(m.local)),
                            net::FlowId(static_cast<std::int32_t>(pos)));
    e.base_seed.push_back(&e.results[m.shard]->flows[m.local]);
  }

  if (scratch.entries_.size() >= ProbeScratch::kMaxEntries) {
    // Evict the least recently used base (and the shard state it pins) —
    // bounds scratch memory across republishes and engine swaps.
    auto victim = scratch.entries_.begin();
    for (auto it = scratch.entries_.begin(); it != scratch.entries_.end();
         ++it) {
      if (it->stamp < victim->stamp) victim = it;
    }
    scratch.entries_.erase(victim);
  }
  scratch.entries_.push_back(std::move(e));
  return scratch.entries_.back();
}

// ---------------------------------------------------------------- probes --

EngineSnapshot::Probe EngineSnapshot::run_probe(const gmf::Flow& candidate,
                                                ProbeScratch& scratch,
                                                bool retain_ctx) const {
  // Surface malformed candidates before any assembly work.
  candidate.validate(network());

  Probe p;
  p.rs.ran = true;

  bool base_converged = true;
  for (const ShardView& s : shards_) {
    if (!s.result || !s.result->converged) {
      base_converged = false;
      break;
    }
  }
  if (!base_converged) {
    // Some component never converged: there is no fixed point to warm-start
    // from, so run the whole set + candidate cold, in global order —
    // bit-identical to the from-scratch analysis.
    p.base_converged = false;
    p.rs.full = true;
    core::AnalysisContext full =
        core::AnalysisContext::empty_clone(*empty_ctx_);
    for (std::size_t g = 0; g < locs_.size(); ++g) {
      const FlowLoc& loc = locs_[g];
      full.adopt_flow_deferred(*shards_[loc.shard].ctx,
                               net::FlowId(static_cast<std::int32_t>(loc.local)));
      p.to_global.push_back(net::FlowId(static_cast<std::int32_t>(g)));
    }
    full.recompute_all_aggregates();
    full.add_flow(candidate);
    p.to_global.push_back(net::FlowId(static_cast<std::int32_t>(locs_.size())));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      p.touched.push_back(static_cast<std::uint32_t>(s));
    }
    p.local = core::solve_holistic(full, core::SolveRequest{}, opts_);
    p.rs.sweeps = static_cast<std::size_t>(p.local.sweeps);
    p.ctx = std::move(full);
    return p;
  }

  // The shards the candidate's route links already belong to; the probe
  // world is exactly their union + the candidate: one link-sharing
  // component, since the candidate shares a link with every part.
  p.touched = owning_shards(network(), link_shard_, candidate.route().links());

  ProbeScratch::Entry* entry = find_entry(scratch, p.touched);
  if (entry == nullptr) entry = &build_entry(scratch, p.touched);
  entry->stamp = ++scratch.clock_;

  // Current global ids of the base's flows.  The entry pins the touched
  // shards' states, and global-id shifts while a shard is unchanged are
  // order-preserving (removals elsewhere shift uniformly down, additions
  // append larger ids), so the merge order cached at build time is still
  // canonical.  Guard it anyway: a non-ascending sequence rebuilds the
  // entry against the live snapshot.
  const auto fill_to_global = [&](const ProbeScratch::Entry& en) {
    p.to_global.clear();
    p.to_global.reserve(en.srcs.size() + 1);
    for (const MergeEnt& m : en.srcs) {
      p.to_global.push_back(shards_[p.touched[m.shard]].to_global[m.local]);
    }
  };
  const auto strictly_ascending = [](const std::vector<net::FlowId>& v) {
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (v[i - 1].v >= v[i].v) return false;
    }
    return true;
  };
  fill_to_global(*entry);
  if (!strictly_ascending(p.to_global)) {
    scratch.entries_.erase(scratch.entries_.begin() +
                           (entry - scratch.entries_.data()));
    entry = &build_entry(scratch, p.touched);
    entry->stamp = ++scratch.clock_;
    fill_to_global(*entry);
  }

  // The probe mutates the cached base in place: add the candidate, solve
  // the component, then restore the residents-only world (or hand the
  // candidate-bearing context to the commit path).  Any failure mid-probe
  // drops the entry — a half-mutated base must never be reused.
  const std::size_t entry_idx =
      static_cast<std::size_t>(entry - scratch.entries_.data());
  core::AnalysisContext& ctx = *entry->base;
  try {
    const net::FlowId cand_local = ctx.add_flow(candidate);
    p.to_global.push_back(
        net::FlowId(static_cast<std::int32_t>(locs_.size())));

    // Warm start: every resident sits at its converged fixed point, the
    // candidate at its source jitters.  Copying the cached map costs one
    // shared pointer per resident.
    core::JitterMap start = entry->base_start;
    start.reset_to_source(ctx, cand_local);

    // Residents also start from their converged stage results, climbing
    // from below: only the candidate's route links gained a flow, so the
    // solve re-analyses the nodes there and downstream of a jitter the
    // candidate moves, and keeps the rest of the component.
    const std::vector<net::LinkRef>& route = candidate.route().links();
    const std::set<net::LinkRef> changed(route.begin(), route.end());
    core::IncrementalStats is;
    core::SolveRequest req;
    req.start = &start;
    req.seed = &entry->base_seed;
    req.changed_links = &changed;
    p.local = core::solve_holistic(ctx, req, opts_, &is);
    p.rs.flow_analyses = is.flow_analyses;
    p.rs.sweeps = is.sweeps;
    p.rs.flow_results_reused = is.results_kept;
    p.rs.hops_run = is.hops_run;
    p.rs.hops_shared = is.hops_shared;
    p.rs.jsum_writes = is.jsum_writes;

    if (!retain_ctx) {
      // Restore the base to the residents-only world for the next probe:
      // removing the (last-id) candidate erases its derived entry, drops it
      // from its route links (erasing links it alone introduced) and
      // recomputes exactly the touched aggregates from scratch —
      // bit-identical to the pre-add state.
      ctx.remove_flow(static_cast<std::size_t>(cand_local.v));
    }
  } catch (...) {
    scratch.entries_.erase(scratch.entries_.begin() +
                           static_cast<std::ptrdiff_t>(entry_idx));
    throw;
  }
  if (retain_ctx) {
    p.ctx = std::move(*entry->base);
    scratch.entries_.erase(scratch.entries_.begin() +
                           static_cast<std::ptrdiff_t>(entry_idx));
  }
  return p;
}

bool EngineSnapshot::probe_admissible(const Probe& p) const {
  // The probed component's verdict, then the untouched shards' published
  // ones; p.touched is ascending, so one two-pointer sweep covers all
  // shards (a cold probe touched every shard).
  if (!p.local.schedulable) return false;
  std::size_t t = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (t < p.touched.size() &&
        p.touched[t] == static_cast<std::uint32_t>(s)) {
      ++t;
      continue;
    }
    if (!shards_[s].result->schedulable) return false;
  }
  return true;
}

WhatIfResult EngineSnapshot::finish_probe(Probe&& p) const {
  const bool admissible = probe_admissible(p);
  if (!p.base_converged) {
    // The cold whole-set run is already the full result in global order.
    return WhatIfResult::from_full(admissible, std::move(p.local));
  }
  WhatIfResult out;
  out.admissible = admissible;
  out.base_ = shared_from_this();
  out.converged_ = p.local.converged;
  out.sweeps_ = p.local.sweeps;
  out.local_ = std::move(p.local);
  out.to_global_ = std::move(p.to_global);
  out.total_flows_ = locs_.size() + 1;
  return out;
}

WhatIfResult EngineSnapshot::what_if(const gmf::Flow& candidate) const {
  // One-shot probe: a throwaway scratch keeps the semantics; callers on hot
  // paths should hold a per-thread ProbeScratch and use the overload below.
  ProbeScratch scratch;
  return what_if(candidate, scratch);
}

WhatIfResult EngineSnapshot::what_if(const gmf::Flow& candidate,
                                     ProbeScratch& scratch) const {
  return finish_probe(run_probe(candidate, scratch, /*retain_ctx=*/false));
}

}  // namespace gmfnet::engine
