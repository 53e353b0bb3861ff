// End-to-end response-time assembly: the algorithm of Figure 6.
//
// For a frame k of flow τ_i, walk the route and chain the three per-hop
// analyses, accumulating the response-time sum RSUM and the jitter sum JSUM;
// before each stage, the flow's own generalized jitter at that stage is set
// to the accumulated JSUM (lines 8/13/17), which is what downstream flows
// see as interference jitter during the holistic iteration.
#pragma once

#include <vector>

#include "core/context.hpp"
#include "core/hop_level.hpp"
#include "core/hop_result.hpp"

namespace gmfnet::core {

/// One stage's contribution to a frame's end-to-end bound.
struct StageResponse {
  StageKey stage;
  HopResult hop;
};

/// End-to-end result for one frame of one flow.
struct FrameResult {
  /// R_i^k: upper bound on source-to-destination response time, including
  /// the source generalized jitter (Figure 6 line 3).  Meaningful only when
  /// `converged`.
  gmfnet::Time response = gmfnet::Time::zero();
  bool converged = false;
  /// True when `converged` and response <= the frame's deadline D_i^k.
  bool meets_deadline = false;
  std::vector<StageResponse> stages;
};

/// End-to-end result for all frames of one flow.
struct FlowResult {
  std::vector<FrameResult> frames;
  [[nodiscard]] bool all_converged() const;
  [[nodiscard]] bool schedulable() const;  ///< all frames meet deadlines
  /// Worst response over the frames (Time::max() if any diverged).
  [[nodiscard]] gmfnet::Time worst_response() const;
};

/// The hop site of node (i, stage), `stage` an index into ctx.stages(i):
/// the work-conserving first hop at stage 0, else the ingress or egress
/// site of the stage's switch (core/hop_level.hpp).  Its level source is
/// left unbound; bind_level binds it, once per node.
[[nodiscard]] HopSite stage_site(const AnalysisContext& ctx, FlowId i,
                                 std::size_t stage);

/// Runs `site`'s hop analysis for frame `frame`: an infeasible site's
/// non-converged result, else the site's terms over its bound level
/// source.
[[nodiscard]] HopResult analyze_site(const HopSite& site, std::size_t frame,
                                     const HopOptions& opts);

/// Runs the per-hop analysis of stage `stage` for one frame of flow i:
/// stage_site, bound, then analyze_site.
[[nodiscard]] HopResult analyze_stage(const AnalysisContext& ctx,
                                      const JitterMap& jitters, FlowId i,
                                      std::size_t stage, std::size_t frame,
                                      const HopOptions& opts = {});

/// JSUM, the jitter flow i's frame carries into stage `stage` (Figure 6
/// lines 3/8/13/17): the source generalized jitter at stage 0, else the
/// jitter at the previous stage plus `prev`, that stage's converged result.
[[nodiscard]] gmfnet::Time stage_jitter_sum(const AnalysisContext& ctx,
                                            const JitterMap& jitters, FlowId i,
                                            std::size_t stage,
                                            std::size_t frame,
                                            const HopResult* prev);

/// Derives `out`'s verdict from its stage results (Figure 6 line 24: R =
/// source jitter + the sum of the stage responses).  The frame converges
/// only when every stage of the route has a converged result.
void finalize_frame(const AnalysisContext& ctx, FlowId i, std::size_t frame,
                    FrameResult& out);

/// Runs Figure 6 for one frame.  Reads interference jitters from `jitters`
/// and *writes* flow i's own per-stage jitters into it (lines 8/13/17).
[[nodiscard]] FrameResult analyze_frame_end_to_end(const AnalysisContext& ctx,
                                                   JitterMap& jitters,
                                                   FlowId i, std::size_t frame,
                                                   const HopOptions& opts = {});

/// Runs Figure 6 for every frame of flow i.
[[nodiscard]] FlowResult analyze_flow_end_to_end(const AnalysisContext& ctx,
                                                 JitterMap& jitters, FlowId i,
                                                 const HopOptions& opts = {});

}  // namespace gmfnet::core
