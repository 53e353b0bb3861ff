// Holistic analysis ("Putting it all together", §3.5): iterate the Figure-6
// algorithm over all flows, feeding each stage's response time back as the
// downstream generalized jitter, until the jitter map reaches a fixed point.
//
// Gauss-Seidel sweeps are link-ordered.  The unit of work is a (flow,
// stage) node: every frame of one pipeline stage of one flow.  Each stage is
// keyed by a directed link — a first-hop or egress stage by the link it
// transmits on, an ingress stage by its *incoming* link, because
// analyze_ingress only sees the flows arriving over that interface — so the
// nodes of a key read exactly the jitters that key's nodes write.  Keys are
// visited in topological order of the route-successor graph (l_t -> l_{t+1}
// along every iterated route).  At each key a sweep first writes every
// node's per-frame JSUM (Figure 6 lines 8/13/17), then analyses only the
// nodes whose key changed since their last analysis; a skipped node keeps
// its stage results.  On a feed-forward component (stars, trees) every
// node is therefore analysed once, with final inputs, and a second sweep
// that analyses nothing confirms the fixed point.  A cyclic key graph
// (flows that together go all the way round a ring) is broken at its
// lowest remaining key, and sweeps repeat in that order until one changes
// no jitter.  Either way this is the monotone climb from below, which
// reaches the same least fixed point in any visiting order.  The per-stage
// rule itself (which hop analysis a stage runs, its JSUM, a frame's
// verdict) comes from end_to_end.hpp, shared with analyze_frame_end_to_end.
//
// `HolisticResult::sweeps` counts these passes; `IncrementalStats::
// flow_analyses` counts, per sweep, the flows with at least one node
// analysed.
//
// The outer loop is owned by a pluggable solver strategy (SolverOptions):
//   * kPlain (default): plain sweeps — link-ordered Gauss-Seidel, or for
//     whole-set solves that ask for it Jacobi (whole flows against a frozen
//     snapshot, embarrassingly parallel over a thread pool; same fixed
//     point).
//   * kAnderson: Anderson(m)/EDIIS(1) acceleration over the jitter-map
//     residual, safeguarded so the fixed point reached is the same as the
//     plain iteration's (see SolverOptions for the contract).  Its hooks
//     run at sweep boundaries of Gauss-Seidel solves; Jacobi whole-set runs
//     stay plain.
// The convergence bench (E8 + the near-saturation section of
// bench_holistic_convergence) compares the strategies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/context.hpp"
#include "core/end_to_end.hpp"

namespace gmfnet::core {

enum class SweepOrder { kGaussSeidel, kJacobi };

/// Which strategy owns the outer fixed-point loop.
enum class SolverMode : std::uint8_t {
  kPlain = 0,     ///< plain monotone sweeps (the bit-identical default)
  kAnderson = 1,  ///< safeguarded Anderson(m) over the jitter-map residual
};

/// Iteration-strategy knobs of the holistic solve.  `mode` selects the
/// strategy; the remaining fields tune kAnderson and are ignored by kPlain.
///
/// Safeguard contract (kAnderson): the iteration maintains the Kleene
/// climb-from-below invariant.  An accelerated iterate y is formed from the
/// plain iterate g by extrapolating along the Anderson direction, clamped
/// per entry to the smaller of cap plain steps and a conservative Aitken
/// remaining-distance estimate (entries the last sweep left unchanged are
/// never perturbed), and *speculatively* injected.  The next plain sweep
/// z = G(y) is the acceptance check: y is kept only when z >= y
/// componentwise AND the sweep strictly advanced at least one entry (a
/// sweep that leaves the speculative iterate untouched would be certifying
/// its own landing — only a plain climb may declare convergence).  On
/// rejection — including a diverging sweep — the solve restores the saved
/// pre-injection map together with the stage results computed against it,
/// and continues plainly; after `max_rejects` rejections acceleration is
/// disabled for the rest of the solve.  An adaptive damping factor backs
/// off 4x per rejection and regrows 2x per acceptance.
///
/// What the certificate guarantees depends on the structure of the
/// iterated interference graph (edge j -> i when j can interfere with i on
/// a shared link AND j's jitter there is itself produced by the iteration):
///
///   * Acyclic graph — in particular whenever iterated flows sharing links
///     have distinct priorities: the sweep operator has a UNIQUE fixed
///     point, and the acceptance check proves y lies at or below it by
///     induction over the dependency order.  The accelerated solve is
///     therefore bit-identical to plain Gauss-Seidel: same verdicts, same
///     response times, same jitter maps.  This is the only regime in which
///     acceleration engages by default; the graph is checked per solve.
///
///   * Cyclic graph (equal-priority flows sharing links both ways): the
///     staircase operator can have several fixed points near saturation,
///     and a speculative overshoot can be self-confirming, so no local
///     certificate can prove least-ness.  By default the driver detects
///     the cycle and stays plain (identity preserved trivially).  Setting
///     `accept_cyclic` opts into acceleration anyway: every result is still
///     a certified fixed point of the plain sweep operator and hence a
///     sound, conservative upper bound on the least fixed point (responses
///     never under-estimated, verdicts never optimistic), but near-critical
///     cycles may converge a few interference quanta above the least fixed
///     point.  The convergence bench exercises this mode explicitly.
///
/// Convergence is only ever declared on a plain sweep that changed
/// nothing, so the returned map is a genuine fixed point either way.
/// tests/test_solver_equivalence.cpp asserts result identity against
/// kPlain across randomized scenarios (acyclic by construction), the
/// forced-rejection path, and the cyclic opt-in's conservatism.
struct SolverOptions {
  SolverMode mode = SolverMode::kPlain;
  int m = 1;              ///< Anderson history depth (residual differences)
  int warmup_sweeps = 3;  ///< plain sweeps before the first proposal (the
                          ///< ratio clamp needs >= 4 recorded iterates, so
                          ///< proposals start at sweep 4 regardless)
  int plain_between = 1;  ///< plain sweeps between successive proposals
  double cap = 8.0;       ///< per-entry extrapolation cap, in units of the
                          ///< entry's last plain step (g - x)
  double gain = 1.0;      ///< extrapolation scaling; > 1 overshoots on
                          ///< purpose (test hook for the safeguard path)
  int max_rejects = 6;    ///< safeguard rejections before acceleration is
                          ///< disabled for the remainder of the solve
  /// Accelerate even when the iterated interference graph is cyclic (see
  /// the contract above): results stay certified fixed points and sound
  /// upper bounds, but exact least-fixed-point identity is no longer
  /// guaranteed near criticality.  Off by default.
  bool accept_cyclic = false;

  bool operator==(const SolverOptions&) const = default;
};

/// Parses a --solver style spec into `out`: "plain", "anderson", or
/// "anderson:M" with M in [1, 8] (e.g. "anderson:2").  Returns false (and
/// leaves `out` untouched) on anything else.
bool parse_solver_spec(std::string_view spec, SolverOptions& out);

/// SolverOptions from the GMFNET_SOLVER environment variable (same spec
/// grammar), or the default when unset/empty.  Malformed values throw
/// std::runtime_error — CI forcing acceleration on must not silently run
/// plain.  Test suites build their options through this so the ASan/TSan
/// jobs can re-run them with acceleration forced on.
[[nodiscard]] SolverOptions solver_options_from_env();

/// Typed non-owning warm-start handle: seed the iteration from a previously
/// converged map instead of JitterMap::initial(ctx).
///
/// Lifetime contract: the view borrows the map — the referenced JitterMap
/// must outlive every solve the view is passed to, and must not be mutated
/// while a solve reads it.  The solve copies the map's state on entry
/// (copy-on-write, one pointer per flow), so the borrow ends when the call
/// returns.
///
/// Soundness contract: seeding is sound whenever the seed lies at or below
/// the least fixed point of the sweep operator — e.g. the converged map of
/// the same flow set minus some flows (interference only grew, so the old
/// fixed point is a valid under-approximation and the iteration converges
/// to the *same* least fixed point, in far fewer sweeps).
class WarmStartView {
 public:
  /// Disengaged: the solve starts from JitterMap::initial(ctx).
  WarmStartView() = default;
  /// Borrows `seed` (not owned; see the lifetime contract above).
  explicit WarmStartView(const JitterMap& seed) : map_(&seed) {}

  [[nodiscard]] bool engaged() const { return map_ != nullptr; }
  /// The borrowed seed; only meaningful when engaged().
  [[nodiscard]] const JitterMap& map() const { return *map_; }

 private:
  const JitterMap* map_ = nullptr;
};

struct HolisticOptions {
  HopOptions hop;                 ///< per-hop options (horizon, ablations)
  int max_sweeps = 64;            ///< fixed-point sweep cap
  SweepOrder order = SweepOrder::kGaussSeidel;
  std::size_t threads = 0;        ///< Jacobi worker threads (0 = hardware)
  /// Warm start for whole-set solves (see WarmStartView for the lifetime
  /// and soundness contracts).  Disengaged: start from the initial map.
  WarmStartView warm_start;
  /// Iteration strategy (fingerprinted by checkpoints: restored fixed
  /// points must have been produced under the same mode).
  SolverOptions solver;
};

struct HolisticResult {
  /// True when the jitter map reached a fixed point with every per-hop
  /// analysis converging.
  bool converged = false;
  /// True when `converged` and every frame of every flow meets its deadline
  /// — the admission controller's verdict.
  bool schedulable = false;
  int sweeps = 0;                 ///< sweeps executed (including the last,
                                  ///< unchanged one when converged)
  std::vector<FlowResult> flows;  ///< per-flow results at the fixed point
  JitterMap jitters;              ///< the fixed-point jitter map

  /// Worst end-to-end bound of a flow (Time::max() if it diverged).
  [[nodiscard]] gmfnet::Time worst_response(FlowId i) const {
    return flows[static_cast<std::size_t>(i.v)].worst_response();
  }
};

/// Counters of one solve (engine instrumentation).
struct IncrementalStats {
  std::size_t flow_analyses = 0;   ///< flows with >= 1 (flow, stage) node
                                   ///< analysed, summed over sweeps
  std::size_t sweeps = 0;          ///< sweeps executed
  std::size_t accel_accepted = 0;  ///< accelerated iterates kept
  std::size_t accel_rejected = 0;  ///< safeguard rollbacks to a plain sweep
};

/// One solve, described as a request.  This is the single solver entry
/// point: whole-set analyses and the engine's restricted shard/probe solves
/// are the same request with different dirty sets, so iteration strategies
/// are added in one place (solve_holistic) and every caller gets them.
struct SolveRequest {
  /// Flows to (re-)analyse, indexed by flow id; null means every flow of
  /// the context (a whole-set solve).  When non-null, clean (false) flows
  /// are never analysed or written — their entries in `start` must already
  /// sit at the (unchanged) fixed point, which makes the run bit-identical
  /// to a whole-set solve on the same context (both reach the unique least
  /// fixed point; see WarmStartView).  Borrowed; must outlive the call.
  const std::vector<bool>* dirty = nullptr;
  /// Seed map.  Whole-set requests may leave it disengaged (the initial
  /// map); restricted requests must engage it (std::logic_error otherwise —
  /// clean flows' fixed points cannot be conjured from nothing).
  WarmStartView start;
};

/// Runs the holistic fixed point described by `req` under `opts`.
///
/// Whole-set requests (`req.dirty == nullptr`) honor `opts.order` and
/// finalize `schedulable` over all flows.  Restricted requests force
/// Gauss-Seidel sweeps, leave clean flows' `flows` entries
/// default-constructed and `schedulable` false: the caller owns adopting
/// its cached FlowResults for clean flows and finalizing the verdict
/// (skipped when `converged` is false).  `opts.warm_start` is ignored in
/// favour of `req.start`.
///
/// Anderson acceleration (opts.solver) applies to every Gauss-Seidel solve;
/// accepted/rejected proposals are counted in `stats` when provided.
[[nodiscard]] HolisticResult solve_holistic(const AnalysisContext& ctx,
                                            const SolveRequest& req,
                                            const HolisticOptions& opts,
                                            IncrementalStats* stats = nullptr);

/// Whole-set convenience wrapper: solve_holistic with every flow dirty,
/// seeded from `opts.warm_start`.
[[nodiscard]] HolisticResult analyze_holistic(const AnalysisContext& ctx,
                                              const HolisticOptions& opts = {});

}  // namespace gmfnet::core
