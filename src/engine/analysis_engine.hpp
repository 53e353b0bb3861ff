// AnalysisEngine: the long-lived, incremental, sharded admission-control
// core.
//
// The holistic analysis converges to a unique least fixed point per
// link-sharing component, so disjoint locality domains are analytically
// independent.  The engine exploits that twice over:
//
//  * One shard per link-sharing component.  This is the engine's single
//    structural rule: the resident set is partitioned into the connected
//    components of the link-sharing graph, maintained incrementally as
//    flows come and go.  An add unions the shards its route touches
//    (merging them when it bridges several), a removal rebuilds the
//    touched shard's partition and splits it when the component fell
//    apart.  Each shard owns its own AnalysisContext, dirty-link set and
//    warm JitterMap (engine/shard.hpp), and every solve — a shard run or a
//    probe over the shards a candidate touches — iterates exactly one
//    component.  An admission touching one domain re-analyses only that
//    shard, so the work is proportional to the touched domain, not the
//    resident count, and a full-set evaluation fans the dirty shards over
//    a thread pool.
//
//  * RCU-style published snapshots.  After every committed mutation the
//    engine publishes an immutable EngineSnapshot (engine/snapshot.hpp) by
//    a single atomic shared_ptr swap; the snapshot assembles the whole-set
//    result only when someone reads it.  Reader threads load the snapshot
//    (`published()`) and run `EngineSnapshot::what_if` probes against it
//    with zero engine locking — all snapshot state is immutable or
//    copy-on-write — so N operator threads issue concurrent what-ifs while
//    the writer thread keeps admitting.  Readers see the world as of the
//    last publication: consistent, possibly one mutation stale.
//
//  * Warm-started, change-driven fixed point.  Re-analysis seeds the
//    holistic iteration from the previously converged JitterMap and stage
//    results instead of zeros, and walks only the forward closure of the
//    changed links, re-analysing the (flow, stage) nodes on them and
//    downstream of a jitter that moves (see core/holistic.hpp).  The sweep
//    operator is monotone and adding a flow only adds interference, so the
//    old fixed point under-approximates the new one and the iteration
//    reaches the *same* least fixed point (on a feed-forward shard in one
//    pass per key).  After a removal the old fixed point lies above the new
//    one: the solve descends from it where the closure is acyclic (the
//    fixed point is unique there) and restarts the component's flows from
//    their source jitters where it is cyclic.  Other components keep their
//    converged state either way.
//
// Results are bit-identical to a from-scratch AnalysisContext +
// analyze_holistic run on the same flow set: both iterations converge to
// the unique least fixed point, per-flow results are pure functions of
// (context, fixed point), and shard-local contexts preserve the global
// per-link flow order, so even the floating-point link aggregates match.
// tests/test_engine_equivalence.cpp and tests/test_engine_shard.cpp check
// this property over randomized scenarios, including concurrent readers.
//
// Threading contract: ONE writer thread drives the mutating API (add_flow,
// remove_flow, evaluate, what_if, try_admit, evaluate_batch).  Any number
// of reader threads may concurrently call published() / stats() and probe
// the returned snapshots.  evaluate_batch parallelises internally.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "core/holistic.hpp"
#include "engine/shard.hpp"
#include "engine/snapshot.hpp"
#include "gmf/flow.hpp"
#include "net/network.hpp"
#include "util/thread_pool.hpp"

namespace gmfnet::engine {

/// Instrumentation counters (monotonic since construction or the last
/// reset()).  Materialized from relaxed atomics: safe to read while
/// concurrent probes record, though each counter is only individually
/// consistent mid-flight.  At quiescence `evaluations == full_runs +
/// incremental_runs` (every solver run is exactly one of the two); a read
/// racing a probe's record may transiently see the sum off by the in-flight
/// runs.
struct EngineStats {
  std::size_t evaluations = 0;       ///< solver runs executed (shards+probes)
  std::size_t full_runs = 0;         ///< cold runs (no usable warm cache)
  std::size_t incremental_runs = 0;  ///< warm dirty-component runs
  std::size_t flow_analyses = 0;     ///< IncrementalStats::flow_analyses,
                                     ///< summed over solves
  /// FlowResults reused without any node analysed: flows outside the
  /// solved shards or probed component, and solved flows whose seeded
  /// stage results were all kept.
  std::size_t flow_results_reused = 0;
  std::size_t sweeps = 0;            ///< HolisticResult::sweeps (passes of
                                     ///< the busiest component), summed
  /// Always 0.  Frozen wire fields of the removed Anderson solver strategy:
  /// kept so the STATS layout is unchanged until StatsResponse moves to a
  /// tagged key/value section.
  std::size_t accel_accepted = 0;
  std::size_t accel_rejected = 0;    ///< always 0 (see accel_accepted)
  /// Per-frame hop analyses run, and served from an identical node's
  /// result (core::IncrementalStats).  In-process only: not on the STATS
  /// wire, so a client reads 0.
  std::size_t hops_run = 0;
  std::size_t hops_shared = 0;
  /// Per-frame JSUMs recomputed (core::IncrementalStats::jsum_writes).
  /// In-process only, like hops_run.
  std::size_t jsum_writes = 0;
};

class AnalysisEngine {
 public:
  /// Every shard and probe solve runs core::solve_holistic under `opts`;
  /// the engine's parallelism comes from fanning dirty shards and batch
  /// probes over a pool sized to the hardware.
  explicit AnalysisEngine(net::Network network,
                          core::HolisticOptions opts = {});

  // -- resident-set mutation (lazy: no analysis happens here) ---------------

  /// Validates and appends `flow` unconditionally (no admission test; use
  /// try_admit for gated admission).  Throws std::logic_error on malformed
  /// flows.  Dirties only the flow's locality domain.
  net::FlowId add_flow(gmf::Flow flow);

  /// Removes the resident flow at `index` (ids above shift down by one).
  /// Returns false when `index` is out of range, leaving all state
  /// untouched.  Dirties only the removed flow's domain, splitting it when
  /// the removal disconnected it.
  bool remove_flow(std::size_t index);

  // -- queries --------------------------------------------------------------

  [[nodiscard]] std::size_t flow_count() const { return locs_.size(); }
  [[nodiscard]] const gmf::Flow& flow(std::size_t index) const;
  [[nodiscard]] const net::Network& network() const {
    return empty_ctx_->network();
  }
  [[nodiscard]] EngineStats stats() const;
  /// Zeroes every counter (writer thread only).
  void reset_stats();

  /// Current number of locality domains (shards).
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Which shard (by position) the flow at `index` currently lives in.
  /// Positions are not stable across mutations; use for introspection.
  /// Throws std::out_of_range on a bad index.
  [[nodiscard]] std::size_t shard_of(std::size_t index) const {
    return locs_.at(index).shard;
  }

  // -- analysis -------------------------------------------------------------

  /// Holistic result for the resident set: snapshot()->result().  The
  /// returned reference stays valid until the next engine call.
  const core::HolisticResult& evaluate();

  /// What-if: result of resident set + `candidate`, without committing
  /// anything.  Runs against the published snapshot (evaluating first when
  /// stale).  Throws std::logic_error on malformed candidates.
  WhatIfResult what_if(const gmf::Flow& candidate);

  /// Tests `candidate` against the resident set; on acceptance it joins the
  /// set (adopting the probe's converged state — no re-analysis) and the
  /// full result is returned, on rejection the set is unchanged and
  /// std::nullopt is returned.
  std::optional<core::HolisticResult> try_admit(gmf::Flow candidate);

  // -- coalesced mutation batches -------------------------------------------
  //
  // A batch amortizes the per-mutation snapshot publication over K queued
  // mutations: begin_batch(); K × try_admit_lean()/remove_flow(); then
  // snapshot() (or end_batch()) performs ONE publication.  Verdicts are
  // bit-identical to the sequential try_admit path: a lean probe runs
  // against the exact same shard contexts and converged caches, it merely
  // skips publishing between commits.  Readers keep seeing the last
  // published snapshot until the batch publishes.

  /// Opens a coalesced batch.  Only affects which internal snapshot lean
  /// admissions probe against; readers are never blocked.
  void begin_batch();

  /// Gated admission without publishing: identical verdict to try_admit on
  /// the same state, but a success only commits the probe's shard surgery —
  /// the published snapshot stays stale until the batch publishes.
  /// Returns true when the candidate was admitted.  Throws std::logic_error
  /// on malformed candidates.
  bool try_admit_lean(gmf::Flow candidate);

  /// Closes the batch: solves anything still dirty (e.g. lazy removals),
  /// publishes exactly one fresh snapshot and returns its whole-set result
  /// (evaluate()).  Callers that only need the publication call snapshot()
  /// instead and skip the result's assembly.
  const core::HolisticResult& end_batch();

  /// Independent what-if probes for every candidate against the *same*
  /// published snapshot, fanned over a thread pool; candidates are not
  /// committed and do not see each other.  out[i] corresponds to
  /// candidates[i].  Throws std::logic_error if any candidate is malformed
  /// (before any analysis runs).
  std::vector<WhatIfResult> evaluate_batch(
      const std::vector<gmf::Flow>& candidates);

  // -- persistence (io/checkpoint.{hpp,cpp}) --------------------------------

  /// Writes a versioned binary checkpoint of the complete engine state —
  /// network, resident flows (global-id order), the shard partition, and
  /// every shard's converged fixed point — to `os`.  Evaluates first, so the
  /// checkpoint always holds a fully solved world.  Writer thread only.
  /// Throws std::runtime_error on stream write failure.
  void save(std::ostream& os);

  /// Rebuilds an engine from a checkpoint written by save(): shards, flow
  /// locations and the link index are reconstructed directly from the
  /// stream, the cached fixed points are installed verbatim, and a fresh
  /// EngineSnapshot is published — WITHOUT running the solver.  The restored
  /// engine answers published()->what_if(...) probes immediately and
  /// bit-identically to the pre-save engine, and stats().evaluations stays 0
  /// until the first post-restore mutation is evaluated.
  ///
  /// `opts` must agree with the saving engine's options on every field the
  /// cached fixed points depend on (hop.horizon, hop.charge_self_circ,
  /// max_sweeps — all fingerprinted in the stream); a mismatch is rejected,
  /// since the persisted state would silently misanswer under different
  /// analysis semantics.  Throws io::CheckpointError on truncated,
  /// corrupted, forward-incompatible or semantically invalid streams.
  static AnalysisEngine restore(std::istream& is,
                                core::HolisticOptions opts = {});

  /// restore() for callers that need the engine on the heap (the engine is
  /// neither copyable nor movable — atomic counters — so a prvalue cannot
  /// be re-seated after construction).  The RPC server's RESTORE handler
  /// swaps engines behind an atomic shared_ptr; this is its entry point.
  static std::unique_ptr<AnalysisEngine> restore_unique(
      std::istream& is, core::HolisticOptions opts = {});

  // -- snapshots ------------------------------------------------------------

  /// Commits: solves every dirty shard (fanned over a thread pool when
  /// several are dirty), warm-started from their cached fixed points,
  /// publishes a fresh snapshot when anything changed, and returns the
  /// published snapshot (writer thread only).  Does not assemble the
  /// whole-set result; the snapshot does that on its first result() call.
  std::shared_ptr<const EngineSnapshot> snapshot();

  /// The last published snapshot: safe to call from any thread, never
  /// null.  May lag behind uncommitted add_flow/remove_flow calls until the
  /// writer evaluates.  The read path takes no engine lock — publication is
  /// an atomic shared_ptr swap.  (std::atomic_load over
  /// std::atomic<shared_ptr>: identical semantics, but the free functions'
  /// pthread-based implementation is ThreadSanitizer-transparent, while
  /// libstdc++'s _Sp_atomic lock-bit protocol is not.)
  [[nodiscard]] std::shared_ptr<const EngineSnapshot> published() const {
    return std::atomic_load(&published_);
  }

 private:
  /// Parsed checkpoint payload (filled by io/checkpoint.cpp).  The
  /// restoring constructor below rebuilds shard contexts / locs_ /
  /// link_shard_ from it and publishes, without ever invoking the solver.
  struct RestoredShard {
    std::vector<net::FlowId> to_global;  ///< ascending global ids
    core::HolisticResult cache;          ///< the shard's persisted result
  };
  struct RestoredState {
    net::Network network;
    std::vector<gmf::Flow> flows;  ///< resident set, global-id order
    std::vector<RestoredShard> shards;
  };
  /// Restore path: validates the partition (every flow in exactly one
  /// shard, no link owned by two shards, caches parallel to contexts) and
  /// throws std::logic_error on violations.  Defined in io/checkpoint.cpp.
  AnalysisEngine(RestoredState&& st, core::HolisticOptions opts);
  /// Strict checkpoint-stream parse shared by restore / restore_unique
  /// (defined in io/checkpoint.cpp); throws io::CheckpointError.
  static RestoredState parse_checkpoint(std::istream& is,
                                        const core::HolisticOptions& opts);

  /// One counter per cache line: batch probes on different pool workers
  /// fold RunStats concurrently, and unpadded adjacent atomics would
  /// false-share — every fetch_add bouncing the whole stats block between
  /// cores.
  struct alignas(64) PaddedCounter {
    std::atomic<std::size_t> v{0};
  };
  struct AtomicStats {
    PaddedCounter evaluations;
    PaddedCounter full_runs;
    PaddedCounter incremental_runs;
    PaddedCounter flow_analyses;
    PaddedCounter flow_results_reused;
    PaddedCounter sweeps;
    PaddedCounter hops_run;
    PaddedCounter hops_shared;
    PaddedCounter jsum_writes;
  };

  /// Merges the given shards (ascending indices) into one, preserving each
  /// part's local order; returns the merged shard's index.
  std::uint32_t merge_shards(const std::vector<std::uint32_t>& parts);

  /// Splits shard `idx` into its link-sharing components if the last
  /// removal disconnected it (rebuild-on-remove).  New parts are appended
  /// at the end of shards_ (existing shard positions are untouched);
  /// returns true when a split happened.  `gone`: the local id of the
  /// removed flow when the shard's cache still holds its entry (the
  /// entries after it sit one further on); the parts' caches are cut
  /// from that cache directly.
  bool split_if_disconnected(std::uint32_t idx,
                             std::optional<std::uint32_t> gone);

  /// Points locs_ and link_shard_ at shard `sid`'s current contents: its
  /// flows and the links it uses, each once (O(shard), used after
  /// domain-local surgery).
  void index_shard(std::uint32_t sid);

  /// Fixes locs_/link_shard_ shard references after erasing the given
  /// positions (ascending) from shards_ — a flat renumbering pass, no
  /// per-flow route walks.  Entries pointing at erased shards are left for
  /// a follow-up index_shard of whichever shard absorbed their flows.
  void renumber_shards(const std::vector<std::uint32_t>& erased);

  /// Solves every dirty shard (fanned over the pool when several are
  /// dirty), folding run stats; returns true when any shard ran.  Factored
  /// out of snapshot() so lean batch admissions can converge the world
  /// without publishing it.
  bool solve_dirty();

  /// A snapshot of the current shard state (shares every shard's context
  /// and result; O(shards + flows), no result assembly).
  [[nodiscard]] std::shared_ptr<EngineSnapshot> build_snapshot() const;

  /// Publishes a fresh snapshot of the current shard state.
  void publish();

  /// Rebuilds the writer-private lean snapshot from the current shard
  /// state (built like a publication, but never published).
  void refresh_lean_snapshot();

  /// Installs a successful probe as a committed merged shard (candidate
  /// included); publishes unless `publish_now` is false (lean batch commits
  /// defer the publication to the end of the batch).
  void commit_probe(EngineSnapshot::Probe probe, bool publish_now = true);

  /// Folds one run's counters into the stats (relaxed atomics).
  void record_run(const RunStats& rs);

  /// Worker count of the engine's pool (without creating one).
  [[nodiscard]] std::size_t effective_threads() const;

  void ensure_pool();

  std::shared_ptr<const core::AnalysisContext> empty_ctx_;
  core::HolisticOptions opts_;
  std::vector<Shard> shards_;
  std::vector<FlowLoc> locs_;  ///< global flow id -> (shard, local)
  /// Dense link id -> owning shard (kNoShard: no resident flow uses it),
  /// one entry per network link; a publication copies it flat.
  std::vector<std::uint32_t> link_shard_;
  /// True when a mutation or lean commit happened since the last
  /// publication.
  bool publish_stale_ = true;
  /// Writer-private snapshot backing lean batch probes; never published.
  /// Rebuilt lazily whenever the shard structure changed underneath it.
  std::shared_ptr<const EngineSnapshot> lean_snap_;
  bool lean_stale_ = true;
  /// Accessed only via std::atomic_load / std::atomic_store.
  std::shared_ptr<const EngineSnapshot> published_;
  std::unique_ptr<ThreadPool> pool_;  ///< lazy; batch + shard fan-out
  /// Reusable probe workspace for the writer thread's what_if/try_admit.
  ProbeScratch writer_scratch_;
  /// Per-slot probe workspaces for evaluate_batch's pool fan-out (sized
  /// pool size + 1 by ensure_pool; slot indexing per parallel_for_slotted).
  std::vector<ProbeScratch> batch_scratch_;
  AtomicStats stats_;
};

}  // namespace gmfnet::engine
