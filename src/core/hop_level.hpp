// The per-hop kernel and the per-link interferer classes it reads.
//
// The three per-hop analyses (first hop, ingress FIFO, egress port) share
// one recurrence: a level busy period (eqs 14-15, 21-22, 28-29), then for
// each of the Q = ceil(max(busy, 1) / TSUM_i) instances of frame k in it a
// queueing fixed point w(q) (eqs 16-17, 23-24, 30-31) and its response
// R(q) = w(q) - q * TSUM_i + tail (eqs 18, 25, 32), the worst R(q) plus the
// propagation delay being the hop's bound.  analyze_hop runs it once, for
// every hop kind; a hop file states only its HopTerms — how it weighs MX
// and NX, its blocking, busy seed, self term and tail — and its
// feasibility test.  The kernel reads demand from a level source with two
// members, others(t) and self(t), each the (MX, NX) sums at t of the
// analysed flow's interferers and of the flow itself.  There are two
// sources, bit-identical because every sum is an exact int64 picosecond
// or frame count: a LevelSlot, the cached class envelope described below,
// and the NaiveLevel reference oracle, which re-gathers the interferers
// and reads each DemandCurve with one staircase search per evaluation.
//
// A hop analysis sums MX_j/NX_j(t + extra_j) over the interferers at one
// hop.  Every flow analysed there sees the same flows with the same shifts
// — all of them minus itself at a first hop or an ingress FIFO, the hep
// subset at an egress port — and real traffic is made of a few classes:
// every VoIP leg of one codec and every camera of one model has the same
// request-bound curve and, at a shared hop, the same jitter shift.  Two
// structures exploit that:
//
//   * LinkLevel: one table per (level kind, directed link) — the flows on
//     the link in link order, each with its curve, priority and shift, and
//     the *classes* those members form: equal curve content (TSUM, CSUM,
//     NSUM and a step-for-step compare of the staircase, never a hash
//     alone) and equal shift.  One table serves every flow analysed at the
//     hop, so the O(k) gather — k JitterMap lookups plus k curve lookups —
//     is paid once per change of the hop's inputs, not once per analysed
//     flow.  In a link-ordered sweep (core/holistic.cpp) a group's analyses
//     write no jitter, so the table is gathered at most once per group.
//   * LevelSlot: one per member of a table, in link order — a
//     gmf::LevelEnvelope of that flow's interferer classes with
//     multiplicities, plus the cursors of its fixed-point chains.  A first
//     hop or ingress takes every class with the analysed flow's own class
//     decremented by one; an egress counts hep(i) per class in one integer
//     pass over the table's class ids.  The int64 sums are exact, so an
//     entry of multiplicity m is bit-identical to m entries
//     (gmf/envelope.hpp).
//
// Both are index-addressed: a thread's tables sit in a vector indexed by
// (stage kind, dense link id) and a slot is found by the analysed flow's
// position among its table's members, so a hop analysis searches no map
// before it reads demand.  A slot belongs to a position, not to a flow: it
// rebuilds its interferer envelope whenever its table's build (or the hop
// kind) differs from the one it was made from, and its self envelope
// whenever the content fingerprint of LevelEnvelope::ensure (curve uid,
// shift) differs.
//
// Revalidation evidence, cheapest first:
//
//   * stamps: equal AnalysisContext::stamp() and JitterMap::stamp() prove
//     nothing the table read changed — two compares, no per-member work.
//     This is the steady state inside a sweep group.
//   * per member: when only the jitter stamp moved, the table re-checks
//     each member's JitterMap::flow_version and re-gathers only on a
//     mismatch.  A moved context stamp (a flow added or removed) always
//     re-gathers.  Neither check keeps any state alive: stamps and versions
//     are process-unique and never reused, and an equal context stamp means
//     the caller's context shares the very DemandCurve objects the table
//     points at, so the table pins no derived state.
//
// The analysed flow's own jitter writes (Figure 6 lines 8/13/17, made
// between its stages by the flow-major analyze_flow_end_to_end path) must
// not invalidate the shared table, so the version check skips the analysed
// flow.  That is exact: its recorded class loses one member, and every
// other member of that class still has the recorded curve content and
// shift — even when the analysed flow is the class's representative, whose
// curve the class only uses by content.  Its own demand is evaluated from
// its current shift through the slot's single-entry self envelope.
//
// The analysed side.  Given the table, an analysed flow's interferer
// envelope depends only on its class (curve content and shift) and, at an
// egress, its priority: flows equal in those see the same class multiset,
// since each is the other's interferer.  The rest of a hop analysis reads
// the flow's own FlowLinkParams, which fix its curve.  The link-ordered
// sweep (core/holistic.cpp) therefore runs one analysis per distinct
// (parameters, shift, frame, hop kind, egress priority and feasibility)
// within a group visit and copies the result to the other nodes.
//
// The per-node site.  Everything a hop analysis reads except the frame —
// the hop kind, its link, the analysed flow's FlowLinkParams there, the
// switch's CIRC, the link's propagation delay, the feasibility test (eq 20,
// the ingress analogue, eq 35) and the level source — is the same for
// every frame of one (flow, stage) node while no jitter is written.  A
// HopSite holds it, resolved once per node (core/end_to_end.hpp,
// stage_site); each frame then only states its HopTerms and runs the
// kernel.  The sweep resolves a site per analysed node, the flow-major
// path one per frame, since it writes the flow's own jitters between
// stages.
//
// Everything here is per-thread (HopScratch::local()): no locks, no
// allocation on the steady-state path, safe under the engine's pools
// (dirty shards, batched what-ifs), where each worker has its own tables.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/context.hpp"
#include "core/hop_result.hpp"
#include "gmf/envelope.hpp"

namespace gmfnet::core {

/// Which per-hop analysis a slot belongs to.
enum class HopKind : std::uint8_t { kFirstHop = 0, kIngress = 1, kEgress = 2 };

/// One analysed flow's view of a hop, as a level source: the merged
/// envelope of its interferer classes and the analysed flow's own
/// single-entry envelope, each with its cursor.  A cursor is shared by the
/// busy-period and w(q) chains: each chain start below the previous
/// chain's fixed point costs one binary-search re-anchor per entry, then
/// the chain advances forward.
class LevelSlot {
 public:
  [[nodiscard]] gmf::EnvelopeSums others(gmfnet::Time t) {
    return env_.eval(t, cursor_);
  }
  [[nodiscard]] gmf::EnvelopeSums self(gmfnet::Time t) {
    return self_env_.eval(t, self_cursor_);
  }

 private:
  friend class HopScratch;

  std::uint64_t table_build_ = 0;  ///< LinkLevel::build() env_ was made from
  bool hep_only_ = false;          ///< env_ holds hep(i) only (an egress)
  gmf::LevelEnvelope env_;
  gmf::EvalCursor cursor_;
  gmf::LevelEnvelope self_env_;
  gmf::EvalCursor self_cursor_;
};

/// The interferer classes of one hop: every flow on a directed link, with
/// its shift at one stage kind (the link stage for first hops and egress
/// ports, the ingress stage at the link's destination for ingress FIFOs).
class LinkLevel {
 public:
  /// Why ensure() (re-)gathered, if it did.
  enum class Gather : std::uint8_t { kNone, kContext, kVersion };

  /// Makes the table describe the flows on `link` with their shifts at
  /// `stage` (see the file comment for the evidence checked).  `self` is
  /// the analysed flow, whose own jitter version is not checked.  Returns
  /// the evidence that made it (re-)gather: a moved context stamp (or a
  /// first use), or another member's moved jitter version.
  Gather ensure(const AnalysisContext& ctx, const JitterMap& jitters,
                LinkRef link, const StageKey& stage, FlowId self);

  /// The envelope entries of `self`'s interferers: every other member, or
  /// with `hep_only` the members of priority >= self's (eq 2), counted per
  /// class.  Classes with no such member are left out.
  void interferers(FlowId self, bool hep_only,
                   std::vector<gmf::EnvelopeSpec>& out);

  /// The level slot of member `flow` (which must be on the link): one per
  /// member, in link order, made on the member's first analysis and kept
  /// across gathers.
  [[nodiscard]] LevelSlot& slot(FlowId flow);

  [[nodiscard]] std::size_t class_count() const { return classes_.size(); }
  /// Process-unique id of the current gather: a slot built from the same
  /// build holds the same classes.
  [[nodiscard]] std::uint64_t build() const { return build_; }

 private:
  struct Class {
    std::uint32_t rep;  ///< first member of the class (its curve)
    gmfnet::Time shift;
    std::int64_t mult;  ///< members
  };

  void gather(const AnalysisContext& ctx, const JitterMap& jitters,
              LinkRef link, const StageKey& stage);
  /// Position of member `flow` (members are in ascending id order).
  [[nodiscard]] std::size_t position(FlowId flow) const;

  // Per member, in link order.
  std::vector<FlowId> members_;
  std::vector<std::unique_ptr<LevelSlot>> slots_;  ///< null: never analysed
  std::vector<const gmf::DemandCurve*> curves_;
  std::vector<std::uint64_t> versions_;
  std::vector<std::int64_t> priorities_;
  std::vector<std::uint32_t> class_of_;

  std::vector<Class> classes_;
  std::vector<std::int64_t> counts_;  ///< interferers() scratch, per class
  std::uint64_t ctx_stamp_ = 0;       ///< 0: nothing validated yet
  std::uint64_t jitter_stamp_ = 0;
  std::uint64_t build_ = 0;
};

/// The reference level source: the interferers gathered afresh for each
/// analysis, every curve read directly at each evaluation.
class NaiveLevel {
 public:
  [[nodiscard]] gmf::EnvelopeSums others(gmfnet::Time t) const {
    gmf::EnvelopeSums sums;
    for (const gmf::EnvelopeSpec& j : others_) {
      const gmf::EnvelopeSums d = j.curve->at(t + j.shift);
      sums.cost += d.cost;
      sums.count += d.count;
    }
    return sums;
  }
  [[nodiscard]] gmf::EnvelopeSums self(gmfnet::Time t) const {
    return self_.curve->at(t + self_.shift);
  }

 private:
  friend class HopScratch;

  std::vector<gmf::EnvelopeSpec> others_;  ///< one entry per interferer
  gmf::EnvelopeSpec self_;
};

/// Per-thread arena for the per-hop analyses: the link tables (each with
/// its members' level slots) and the naive source's gather buffer.
class HopScratch {
 public:
  /// The calling thread's arena.
  static HopScratch& local();

  /// Flow `i`'s slot for the `kind` analysis on `link` (the incoming link
  /// for an ingress), current against (ctx, jitters): the link's table
  /// revalidated or re-gathered, the slot's interferer envelope rebuilt
  /// only when the table was re-gathered since, its self envelope only when
  /// the analysed flow's own shift changed.  The table is found by index —
  /// (stage kind, dense link id) — and the slot by the flow's position
  /// among the table's members, so no map is searched.
  LevelSlot& level(const AnalysisContext& ctx, const JitterMap& jitters,
                   HopKind kind, LinkRef link, FlowId i);

  /// The naive source for the same analysis: every other flow on `link`,
  /// or its hep(i) subset at an egress, each with its shift.
  NaiveLevel& naive(const AnalysisContext& ctx, const JitterMap& jitters,
                    HopKind kind, LinkRef link, FlowId i);

  /// Link-table gathers on this thread so far, by the evidence that forced
  /// them (tests pin when they happen).
  struct Gathers {
    std::uint64_t context = 0;  ///< a moved context stamp, or a first use
    std::uint64_t version = 0;  ///< another member's moved jitter version
    [[nodiscard]] std::uint64_t total() const { return context + version; }
  };
  [[nodiscard]] const Gathers& gathers() const { return gathers_; }

 private:
  /// tables_[2 * link id + (ingress ? 1 : 0)], grown to the largest
  /// network this thread has analysed; a table is made on its link's
  /// first analysis.  A table of another context (or another network,
  /// whose link ids mean other links) fails the context stamp check and
  /// re-gathers in place, so the arena holds at most two tables per link
  /// of the largest network this thread has analysed, however many
  /// engines and networks it serves.
  std::vector<std::unique_ptr<LinkLevel>> tables_;
  std::vector<gmf::EnvelopeSpec> specs_;  ///< interferers() buffer
  NaiveLevel naive_;
  Gathers gathers_;
};

/// How a hop weighs a demand sum: mx * MX + NX * nx.
struct DemandWeights {
  std::int64_t mx = 0;  ///< 1 where link time counts, 0 at an ingress
  gmfnet::Time nx;      ///< per Ethernet frame: CIRC(N) or 0

  [[nodiscard]] gmfnet::Time operator()(const gmf::EnvelopeSums& s) const {
    return gmfnet::Time(mx * s.cost) + s.count * nx;
  }
};

/// The terms that make the kernel one of the three per-hop analyses:
///   busy(t) = blocking + self(S(t)) + others(O(t)),   seeded busy_seed;
///   w(q)    = self_base + q * self_step + others(O(w)), seeded its self term;
///   R(q)    = w(q) - q * tsum + tail;   response = max_q R(q) + prop;
/// with S and O the level source's self(t) and others(t).
struct HopTerms {
  DemandWeights others;  ///< interferer demand, busy period and w(q)
  DemandWeights self;    ///< the analysed flow's demand in the busy period
  gmfnet::Time blocking;
  gmfnet::Time busy_seed;
  gmfnet::Time self_base;
  gmfnet::Time self_step;
  gmfnet::Time tsum;  ///< TSUM_i: Q = ceil(max(busy, 1) / tsum)
  gmfnet::Time tail;
  gmfnet::Time prop;
};

/// One (flow, stage) node's hop, resolved once for all of its frames (see
/// the file comment).  The per-hop files make it (first_hop_site,
/// ingress_site, egress_site) and state its HopTerms per frame.
struct HopSite {
  HopKind kind = HopKind::kFirstHop;
  FlowId flow;
  LinkRef link;  ///< the link transmitted on; an ingress' incoming link
  const gmf::FlowLinkParams* params = nullptr;  ///< `flow`'s, on `link`
  gmfnet::Time circ;  ///< CIRC of the hop's switch (zero at a first hop)
  gmfnet::Time prop;  ///< `link`'s propagation delay (zero at an ingress)
  bool feasible = false;  ///< eq (20), the ingress analogue, eq (35)
  /// The level source bind_level made current: the envelope slot, or the
  /// naive oracle under HopOptions::use_envelope = false.
  LevelSlot* slot = nullptr;
  NaiveLevel* naive = nullptr;
};

/// Binds `site`'s level source on this thread's arena, current against
/// (ctx, jitters).  It stays current until a jitter is written or another
/// site's naive source is bound.
void bind_level(const AnalysisContext& ctx, const JitterMap& jitters,
                HopSite& site, const HopOptions& opts);

/// The recurrence above with `terms`, over `site`'s bound level source.
/// The caller has checked feasibility.
HopResult analyze_hop(const HopSite& site, const HopTerms& terms,
                      const HopOptions& opts);

}  // namespace gmfnet::core
