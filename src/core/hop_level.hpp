// Per-hop interferer-level caching for the three per-hop analyses.
//
// A hop analysis of flow i repeatedly needs the same set of interferers
// with the same jitter shifts: across its fixed-point iterations, across
// the per-frame loop of Figure 6, across holistic sweeps whose inputs have
// settled, and across engine what-if probes sharing resident state.  The
// expensive parts — k JitterMap lookups to read extra_j and the build of
// the merged gmf::LevelEnvelope — are therefore cached per
// (analysis kind, hop, analysed flow) in a per-thread arena and
// *revalidated* instead of recomputed:
//
//   * interferer ids: compared against the cached id list (contiguous
//     int32 compare);
//   * demand curves: compared by address + process-unique uid;
//   * jitter shifts: compared by JitterMap::flow_version — an equal
//     content version proves the interferer's entries, and hence its
//     max_jitter, are unchanged, with zero map lookups and without keeping
//     superseded jitter states alive.
//
// Only when revalidation fails are the shifts re-read and the envelope
// re-fingerprinted/rebuilt.  The analysed flow's own demand is evaluated
// directly against its DemandCurve (it is not part of the envelope), so
// the per-frame writes to its own jitters never invalidate the cache.
//
// Everything here is per-thread (HopScratch::local()): no locks, no
// allocation on the steady-state path, safe under Jacobi sweeps and the
// engine's batched what-if pools.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/context.hpp"
#include "gmf/envelope.hpp"

namespace gmfnet::core {

/// Which per-hop analysis a cached level belongs to.
enum class HopKind : std::uint8_t { kFirstHop = 0, kIngress = 1, kEgress = 2 };

/// Below this many interferers the per-hop analyses use the direct
/// per-curve path even when HopOptions::use_envelope is set: with one or
/// two interferers the naive loop beats the envelope's slot bookkeeping,
/// and the two paths are bit-identical, so the cutover is purely a cost
/// choice (measured crossover in bench_demand_eval).
constexpr std::size_t kEnvelopeMinInterferers = 4;

/// Cache key: which analysis, at which hop, for which analysed flow.  The
/// flow id is part of the key because the interferer set depends on it
/// (hep filtering) and so does the iteration pattern the cursor tracks.
struct HopSlotKey {
  HopKind kind = HopKind::kFirstHop;
  std::int32_t a = -1;     ///< link source or ingress node
  std::int32_t b = -1;     ///< link destination (-1 for ingress)
  std::int32_t flow = -1;  ///< analysed flow id

  auto operator<=>(const HopSlotKey&) const = default;
};

/// One hop's cached interferer level: the merged envelope, its cursor, and
/// the evidence (ids, pinned derived-state handles, jitter versions) that
/// it is current.  A second single-entry envelope serves the analysed
/// flow's own curve, so its per-frame jitter writes rebuild only that tiny
/// envelope, never the merged one.
class LevelSlot {
 public:
  /// Revalidates the slot against (ctx, jitters) for the interferer set
  /// `ids` (analysed flow excluded, iteration order fixed): on any mismatch
  /// re-reads the shifts and rebuilds the envelope.  `link` is the link the
  /// interferers' demand curves are projected on; `stage` keys their jitter
  /// reads.
  void ensure(const AnalysisContext& ctx, const JitterMap& jitters,
              const std::vector<FlowId>& ids, const StageKey& stage,
              LinkRef link);

  /// Revalidates the self envelope for (curve, shift); the fingerprint
  /// inside LevelEnvelope::ensure makes this two compares when unchanged.
  void ensure_self(const gmf::DemandCurve& curve, gmfnet::Time shift) {
    const gmf::EnvelopeSpec spec{&curve, shift};
    self_env_.ensure(&spec, 1);
  }

  [[nodiscard]] const gmf::LevelEnvelope& envelope() const { return env_; }
  /// Shared cursor for the busy-period and w(q) chains: each chain start
  /// below the previous chain's fixed point costs one binary-search
  /// re-anchor per interferer, then the chain advances forward.
  [[nodiscard]] gmf::EvalCursor& cursor() { return cursor_; }
  [[nodiscard]] const gmf::LevelEnvelope& self_envelope() const {
    return self_env_;
  }
  [[nodiscard]] gmf::EvalCursor& self_cursor() { return self_cursor_; }

 private:
  std::vector<FlowId> ids_;
  /// Pinned immutable derived states (parallel to ids_): pointer equality
  /// against the context's current handle proves the interferer's demand
  /// curves are unchanged, in O(1) without touching them.
  std::vector<AnalysisContext::DerivedStateHandle> derived_;
  /// Jitter versions (parallel to ids_): equality proves the interferer's
  /// entries — hence its max_jitter shift — are unchanged.
  std::vector<std::uint64_t> jitter_;
  std::vector<gmf::EnvelopeSpec> specs_;                ///< parallel to ids_
  gmf::LevelEnvelope env_;
  gmf::EvalCursor cursor_;
  gmf::LevelEnvelope self_env_;
  gmf::EvalCursor self_cursor_;
};

/// Per-thread scratch arena for the per-hop analyses: reusable gather
/// buffers (no per-hop heap allocation) and the persistent level slots.
class HopScratch {
 public:
  /// The calling thread's arena.
  static HopScratch& local();

  /// Interferer-id gather buffer for the current hop; clear before use.
  std::vector<FlowId> ids;

  /// Gather buffer for the naive (reference) path: (curve, shift, is_self)
  /// per level member, self included.
  struct NaiveSpec {
    const gmf::DemandCurve* curve;
    gmfnet::Time shift;
    bool is_self;
  };
  std::vector<NaiveSpec> naive;

  /// The (persistent) level slot for `key`.  Slots pin the derived state
  /// of the scenarios they last served, so the arena is bounded: when a
  /// *new* key would exceed the cap, every other slot (in key order) is
  /// evicted and rebuilds on next use, rather than letting a long-lived
  /// thread that churns through many engines/networks accumulate pins
  /// forever.  A working set above the cap keeps about half its slots per
  /// round instead of rebuilding everything at each wraparound.
  LevelSlot& slot(const HopSlotKey& key);

 private:
  /// Generous for any one scenario (kinds x hops x flows actually analysed
  /// concurrently on a thread), small against process memory.
  static constexpr std::size_t kMaxSlots = 4096;

  std::map<HopSlotKey, LevelSlot> slots_;
};

}  // namespace gmfnet::core
