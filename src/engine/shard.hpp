// EngineShard: one link-sharing component of the resident set.
//
// The holistic fixed point decomposes over the connected components of the
// link-sharing graph: interference only travels across shared links, so two
// flows whose routes are link-disjoint (transitively) have independent
// fixed points.  The engine keeps one rule: a shard is exactly one such
// component — its own AnalysisContext (shard-local flow ids), its own
// converged HolisticResult and its own dirty-link set.  An add that bridges
// shards merges them, a removal that disconnects one splits it, so a solve
// of a shard (or a probe of the shards a candidate touches) iterates every
// flow it holds, and an admission touching one domain re-analyses only that
// shard.  A full-set evaluation fans the dirty shards over a thread pool.
//
// Committed state (`ctx`, `cache`) is immutable and reference-counted:
// publishing an EngineSnapshot shares the pointers with concurrent readers
// for free, and every mutation builds a *new* context/result and swaps the
// pointer, RCU-style — readers holding the old pointers are never raced.
// The Shard object itself (dirty bookkeeping, the pointers) is owned by the
// single writer thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "core/context.hpp"
#include "core/holistic.hpp"

namespace gmfnet::engine {

/// Counters of one solver run (folded into EngineStats).
struct RunStats {
  bool ran = false;   ///< a solver run actually executed
  bool full = false;  ///< cold run (no usable warm cache) vs incremental
  std::size_t flow_analyses = 0;
  std::size_t sweeps = 0;
  /// FlowResults carried over with no node analysed: seeded flows the
  /// solve kept.
  std::size_t flow_results_reused = 0;
  std::size_t hops_run = 0;     ///< core::IncrementalStats::hops_run
  std::size_t hops_shared = 0;  ///< core::IncrementalStats::hops_shared
  std::size_t jsum_writes = 0;  ///< core::IncrementalStats::jsum_writes
};

/// A link no resident flow uses has no owning shard.
inline constexpr std::uint32_t kNoShard = ~std::uint32_t{0};

/// The shards owning `links` (ascending, deduplicated) under `link_shard`,
/// the owning shard by dense link id of `net` (kNoShard: none).
[[nodiscard]] std::vector<std::uint32_t> owning_shards(
    const net::Network& net, const std::vector<std::uint32_t>& link_shard,
    const std::vector<net::LinkRef>& links);

/// Where one global flow id lives: which shard, and at which shard-local id.
struct FlowLoc {
  std::uint32_t shard = 0;
  std::uint32_t local = 0;
};

/// One entry of a multi-shard merge, in global-id order.
struct MergeEnt {
  net::FlowId global;
  std::uint32_t shard = 0;  ///< part index (caller's shard id)
  std::uint32_t local = 0;  ///< local flow id within that part
};

/// The canonical merge order for combining several shards into one flow
/// sequence: all parts' flows sorted by global id.  Every shard keeps its
/// locals sorted by global id, so this is exactly the one-context engine's
/// flow order — the bit-identical-results guarantee (per-link FP sums,
/// Gauss-Seidel sweep order) depends on both the engine's shard merges and
/// the snapshot's probe assembly using this single definition.
/// `to_global_of(part)` returns a part's local-to-global map.
[[nodiscard]] std::vector<MergeEnt> merge_order(
    const std::vector<std::uint32_t>& parts,
    const std::function<const std::vector<net::FlowId>&(std::uint32_t)>&
        to_global_of);

/// One link-sharing component.  Mutations (performed by AnalysisEngine)
/// follow the copy-and-swap discipline described above; `run` re-solves the
/// shard's fixed point incrementally and installs the fresh result as
/// `cache`.
struct Shard {
  /// Committed context over this shard's flows (shard-local ids), shared
  /// with published snapshots.  Never mutated in place.
  std::shared_ptr<const core::AnalysisContext> ctx;
  /// Last solved result for `ctx`'s flow set (null before the first run).
  /// `cache->converged` gates warm starting; a non-converged cache forces
  /// the next run cold, exactly like the pre-shard engine's invalid cache.
  std::shared_ptr<const core::HolisticResult> cache;
  /// Shard-local flow id -> global flow id, in local order.  Local order
  /// preserves global insertion order among this shard's flows, which keeps
  /// every per-link flow list — and hence every floating-point aggregate
  /// and envelope merge — bit-identical to the one-context engine.
  std::vector<net::FlowId> to_global;

  // Writer-side dirty bookkeeping (not part of snapshots).
  std::set<net::LinkRef> dirty_links;
  bool removal_pending = false;

  [[nodiscard]] std::size_t flow_count() const {
    return ctx ? ctx->flow_count() : 0;
  }

  /// True when `cache` is a converged fixed point usable as a warm start.
  [[nodiscard]] bool cache_valid() const { return cache && cache->converged; }

  /// True when the next evaluate() must (re-)solve this shard.
  [[nodiscard]] bool needs_run() const {
    return !cache_valid() || !dirty_links.empty() || removal_pending ||
           cache->flows.size() != flow_count();
  }

  /// Solves the shard: no-op unless needs_run(), a warm-started run seeded
  /// from the cache when it is usable, a cold Gauss-Seidel run otherwise.
  /// Installs the result as the new `cache` and clears the dirty
  /// bookkeeping.  Bit-identical to a from-scratch analyze_holistic over the
  /// shard's flow set.
  RunStats run(const core::HolisticOptions& opts);
};

}  // namespace gmfnet::engine
