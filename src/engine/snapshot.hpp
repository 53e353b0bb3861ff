// EngineSnapshot: an immutable, published view of the engine's committed
// world — every shard's context and converged fixed point and the global
// flow index.  The whole-set result is assembled from the shard results on
// its first read (once, thread-safe), never at publication: a commit whose
// readers only want verdicts — lean batch admissions, removals, what-if
// probes — never pays the O(resident) deep copy.
//
// RCU-style concurrency: the writer thread publishes a new snapshot (one
// atomic shared_ptr swap) after every committed mutation; reader threads
// load the pointer and run what-if probes against the snapshot with no
// locking whatsoever — every byte reachable from a snapshot is immutable,
// all shared state is either const or copy-on-write (a probe's writes
// clone before touching anything shared), so N operator threads issue
// concurrent what-ifs while the writer keeps admitting.  A reader's view
// is consistent-but-possibly-stale: it sees the resident set as of the
// last publication, never a half-applied mutation.
//
// A probe touches only the shards the candidate's route links belong to.
// Each shard is one link-sharing component and the candidate shares a link
// with each of them, so their union plus the candidate is exactly the
// candidate's component.  The probe assembles a context from those shards
// (adopting their immutable derived state, O(touched) not O(residents)),
// warm-starts from their converged jitters and stage results, and solves
// that component — re-analysing only the nodes on the candidate's route
// links and downstream of a jitter the candidate moves.
// Results are bit-identical to a from-scratch whole-set analysis
// (tests/test_engine_shard.cpp).
//
// Probe cost amortization: a ProbeScratch keeps the assembled probe base
// (context + warm-start map) alive between probes, keyed on the pinned
// identity of the touched shards' committed state.  A scratch hit turns a
// probe's setup into one add_flow/remove_flow pair on the cached base —
// the per-probe O(touched flows) context copy and jitter adoption are paid
// once per (reader, shard-state) instead of once per probe.  One scratch
// per reader thread, never shared (see ProbeScratch).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/context.hpp"
#include "core/holistic.hpp"
#include "engine/shard.hpp"
#include "gmf/flow.hpp"
#include "net/network.hpp"

namespace gmfnet::engine {

class AnalysisEngine;
class EngineSnapshot;

/// Reusable per-reader probe workspace: caches assembled probe bases
/// (context + converged warm-start map) keyed on the pinned identity of
/// the touched shards' committed state, so repeated probes against the
/// same world skip the per-probe context assembly entirely.
///
/// Contract: one scratch per thread, NEVER shared between concurrent
/// probes — the scratch is mutated in place (the cached base temporarily
/// holds the candidate mid-probe).  A scratch may be reused freely across
/// candidates, snapshots and even engines: entries are validated against
/// the probed snapshot's shard-state pointers (held alive by the entry, so
/// pointer identity is ABA-safe) and rebuilt on mismatch.  Results are
/// bit-identical with and without scratch reuse
/// (tests/test_probe_scratch.cpp).
class ProbeScratch {
 public:
  ProbeScratch() = default;
  ProbeScratch(ProbeScratch&&) noexcept = default;
  ProbeScratch& operator=(ProbeScratch&&) noexcept = default;
  ProbeScratch(const ProbeScratch&) = delete;
  ProbeScratch& operator=(const ProbeScratch&) = delete;

  /// Drops every cached base (and the shard state it pins).
  void clear() { entries_.clear(); }

 private:
  friend class EngineSnapshot;

  /// One cached probe base: the residents-only context and warm-start map
  /// assembled from a specific set of committed shard states.  The pinned
  /// ctx/result pointers are both the cache key and the lifetime guard —
  /// while the entry holds them, their addresses cannot be reused, so raw
  /// pointer equality against a snapshot's shards is a sound identity test.
  struct Entry {
    std::vector<std::shared_ptr<const core::AnalysisContext>> ctxs;
    std::vector<std::shared_ptr<const core::HolisticResult>> results;
    /// Residents of the touched shards in canonical merge order (optional
    /// only for default-constructibility; always engaged once cached).
    std::optional<core::AnalysisContext> base;
    /// Converged warm start over `base` (never mutated; copied per probe).
    core::JitterMap base_start;
    /// The residents' converged results, in `base` order — the probe's
    /// seed (pointers into the pinned `results`).
    std::vector<const core::FlowResult*> base_seed;
    /// Merge order; `shard` indexes ctxs/results, not snapshot shards.
    std::vector<MergeEnt> srcs;
    std::uint64_t stamp = 0;  ///< LRU clock value of the last use
  };

  static constexpr std::size_t kMaxEntries = 8;

  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
};

/// A mutex-guarded free list of ProbeScratch objects for callers whose
/// probing threads are not long-lived (e.g. one RPC connection thread per
/// client): acquire() hands out a warm scratch (or a fresh one when none
/// is free) and the RAII Lease returns it on destruction.
class ProbeScratchPool {
 public:
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), scratch_(std::move(other.scratch_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->release(std::move(scratch_));
    }

    [[nodiscard]] ProbeScratch& get() const { return *scratch_; }

   private:
    friend class ProbeScratchPool;
    Lease(ProbeScratchPool* pool, std::unique_ptr<ProbeScratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}

    ProbeScratchPool* pool_;
    std::unique_ptr<ProbeScratch> scratch_;
  };

  [[nodiscard]] Lease acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return Lease(this, std::make_unique<ProbeScratch>());
    std::unique_ptr<ProbeScratch> s = std::move(free_.back());
    free_.pop_back();
    return Lease(this, std::move(s));
  }

 private:
  void release(std::unique_ptr<ProbeScratch> s) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(s));
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<ProbeScratch>> free_;
};

/// Outcome of one non-committing what-if admission probe.
///
/// Copy-free by construction: instead of materializing the full-set
/// HolisticResult per probe (a deep copy of every resident's FlowResult
/// plus the jitter map), the probe returns the verdict, its component-local
/// solve, and a handle to the probed snapshot.  Cheap accessors
/// (worst_response, converged, sweeps) answer directly from those pieces;
/// result() assembles — and caches — the full HolisticResult only when a
/// caller actually wants all of it.
///
/// Thread safety: a WhatIfResult value is NOT safe to share between
/// threads without synchronization (result() caches lazily); the underlying
/// published state it references is immutable and safely shared.
class WhatIfResult {
 public:
  WhatIfResult() = default;

  /// True when the combined set is schedulable — the admission verdict.
  bool admissible = false;

  /// True when the probe's fixed point converged.
  [[nodiscard]] bool converged() const { return converged_; }
  /// Sweeps the probe's solve executed.
  [[nodiscard]] int sweeps() const { return sweeps_; }
  /// Flows in the probed world (residents + candidate; the candidate is
  /// the last flow id).
  [[nodiscard]] std::size_t flow_count() const { return total_flows_; }

  /// Per-flow result by global flow id, without materializing the full
  /// result: flows in the probed component come from the probe's solve,
  /// everything else from the shared published state.
  [[nodiscard]] const core::FlowResult& flow_result(net::FlowId global) const;
  /// Worst end-to-end bound of a flow (Time::max() if it diverged).
  [[nodiscard]] gmfnet::Time worst_response(net::FlowId global) const {
    return flow_result(global).worst_response();
  }

  /// Full holistic result of resident set + candidate, bit-identical to a
  /// from-scratch run.  Materialized on first call and cached; prefer the
  /// accessors above on hot paths.
  [[nodiscard]] const core::HolisticResult& result() const;

  /// Wraps an already-complete result (RPC decode, cold whole-set runs).
  [[nodiscard]] static WhatIfResult from_full(bool admissible,
                                              core::HolisticResult full);

  /// A verdict-only value: carries the admission verdict and the summary
  /// accessors (converged, sweeps, flow_count) but no per-flow payload —
  /// flow_result()/result() throw std::logic_error.  The wire form for
  /// probes that asked for verdicts only (WhatIfBatchRequest.verdict_only):
  /// encoding a full result is a deep copy of every resident's FlowResult,
  /// O(world) per probe, which dwarfs the probe itself on large worlds.
  [[nodiscard]] static WhatIfResult verdict_only(bool admissible,
                                                bool converged, int sweeps,
                                                std::size_t flow_count);

  /// False for verdict-only values: per-flow accessors would throw.
  [[nodiscard]] bool detailed() const { return !verdict_only_; }

 private:
  friend class EngineSnapshot;

  /// Probed snapshot the untouched flows are read from (null for
  /// default-constructed and from_full values).
  std::shared_ptr<const EngineSnapshot> base_;
  /// The probe's component-local solve (probe-local flow ids).
  core::HolisticResult local_;
  /// Probe-local id -> global id, ascending (candidate last).
  std::vector<net::FlowId> to_global_;
  std::size_t total_flows_ = 0;
  bool converged_ = false;
  int sweeps_ = 0;
  /// Lazily materialized full result (result() cache; set eagerly by
  /// from_full).
  mutable std::shared_ptr<const core::HolisticResult> full_;
  /// True when this value carries no per-flow payload (see verdict_only()).
  bool verdict_only_ = false;
};

class EngineSnapshot : public std::enable_shared_from_this<EngineSnapshot> {
 public:
  [[nodiscard]] std::size_t flow_count() const { return locs_.size(); }
  [[nodiscard]] const gmf::Flow& flow(std::size_t index) const;
  /// The resident flows in global order (copies; for verification code).
  [[nodiscard]] std::vector<gmf::Flow> flows() const;
  /// Whole-set result as of publication, assembled from the shard results
  /// on the first call (thread-safe, once) and cached.
  [[nodiscard]] const core::HolisticResult& result() const;
  /// One resident's committed result by global id, without assembling.
  [[nodiscard]] const core::FlowResult& flow_result(std::size_t index) const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Which shard (by position) the flow at `index` lives in.  Throws
  /// std::out_of_range on a bad index.
  [[nodiscard]] std::size_t shard_of(std::size_t index) const {
    return locs_.at(index).shard;
  }
  [[nodiscard]] const net::Network& network() const {
    return empty_ctx_->network();
  }

  /// Lock-free what-if probe: the verdict for resident set + `candidate`
  /// (candidate is the last flow id), bit-identical to a from-scratch run,
  /// computed against this snapshot without touching the engine.  Safe to
  /// call from any number of threads concurrently.  Throws std::logic_error
  /// on malformed candidates.
  [[nodiscard]] WhatIfResult what_if(const gmf::Flow& candidate) const;

  /// what_if reusing the caller's per-thread `scratch` — the hot path for
  /// readers issuing many probes (see ProbeScratch for the contract).
  /// Identical results, one candidate add/remove instead of a full probe
  /// assembly on scratch hits.
  [[nodiscard]] WhatIfResult what_if(const gmf::Flow& candidate,
                                     ProbeScratch& scratch) const;

 private:
  friend class AnalysisEngine;

  EngineSnapshot() = default;

  /// One shard's committed state (shared with the engine's Shard).
  struct ShardView {
    std::shared_ptr<const core::AnalysisContext> ctx;
    std::shared_ptr<const core::HolisticResult> result;
    std::vector<net::FlowId> to_global;
  };

  /// Everything a probe computed, in probe-local flow ids — enough for the
  /// engine to commit the probe as a merged shard without re-solving.
  struct Probe {
    /// Touched shards' flows (global-id order) + candidate last.  Engaged
    /// only on the cold path or when run_probe ran with retain_ctx (the
    /// commit path); plain what-ifs leave the context in the scratch.
    std::optional<core::AnalysisContext> ctx;
    /// The probe's solve of the component, schedulable verdict included.
    core::HolisticResult local;
    /// Probe-local id -> global id (candidate maps to flow_count()).
    std::vector<net::FlowId> to_global;
    /// Snapshot shard indices the candidate's route touched (ascending).
    std::vector<std::uint32_t> touched;
    /// False when some shard's base was not converged: `local` is then a
    /// cold whole-set run in global order and `touched` covers every shard.
    bool base_converged = true;
    RunStats rs;
  };

  /// Runs the probe against `scratch` (building/reusing a cached base).
  /// With `retain_ctx`, the candidate-bearing context is moved into the
  /// returned Probe (evicting the scratch entry) — required by the commit
  /// path; without it, the scratch base is restored to the residents-only
  /// world for the next probe.
  [[nodiscard]] Probe run_probe(const gmf::Flow& candidate,
                                ProbeScratch& scratch, bool retain_ctx) const;
  /// The admission verdict of a finished probe (probed component
  /// schedulable, every untouched shard schedulable).
  [[nodiscard]] bool probe_admissible(const Probe& p) const;
  /// Wraps a finished probe into the copy-free WhatIfResult.
  [[nodiscard]] WhatIfResult finish_probe(Probe&& probe) const;

  /// Scratch entry lookup/build for a probe over `touched` (ascending
  /// snapshot shard indices).  find_entry returns null on miss;
  /// build_entry assembles the base (bulk adoption in canonical merge
  /// order) and inserts it, evicting the least-recently-used entry when
  /// the scratch is full.
  [[nodiscard]] ProbeScratch::Entry* find_entry(
      ProbeScratch& scratch, const std::vector<std::uint32_t>& touched) const;
  ProbeScratch::Entry& build_entry(
      ProbeScratch& scratch, const std::vector<std::uint32_t>& touched) const;

  /// Template context sharing the network + CIRC table (cheap empty clone).
  std::shared_ptr<const core::AnalysisContext> empty_ctx_;
  core::HolisticOptions opts_;
  std::vector<ShardView> shards_;
  std::vector<FlowLoc> locs_;
  /// Dense link id -> owning shard (kNoShard: no resident flow uses it).
  std::vector<std::uint32_t> link_shard_;
  /// result()'s lazily assembled whole-set view.
  mutable std::once_flag global_once_;
  mutable std::optional<core::HolisticResult> global_;
};

}  // namespace gmfnet::engine
