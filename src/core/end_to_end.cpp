#include "core/end_to_end.hpp"

#include "core/egress.hpp"
#include "core/first_hop.hpp"
#include "core/ingress.hpp"

namespace gmfnet::core {

bool FlowResult::all_converged() const {
  for (const FrameResult& f : frames) {
    if (!f.converged) return false;
  }
  return !frames.empty();
}

bool FlowResult::schedulable() const {
  for (const FrameResult& f : frames) {
    if (!f.meets_deadline) return false;
  }
  return !frames.empty();
}

gmfnet::Time FlowResult::worst_response() const {
  gmfnet::Time worst = gmfnet::Time::zero();
  for (const FrameResult& f : frames) {
    if (!f.converged) return gmfnet::Time::max();
    worst = gmfnet::max(worst, f.response);
  }
  return worst;
}

HopSite stage_site(const AnalysisContext& ctx, FlowId i, std::size_t stage) {
  if (stage == 0) return first_hop_site(ctx, i);
  const std::vector<StageKey>& stages = ctx.stages(i);
  if (!stages[stage].is_link()) {
    // The stage before an ingress crosses the link it arrives over.
    return ingress_site(ctx, i, stages[stage - 1].as_link());
  }
  return egress_site(ctx, i, stages[stage].as_link());
}

HopResult analyze_site(const HopSite& site, std::size_t frame,
                       const HopOptions& opts) {
  if (!site.feasible) return {};
  switch (site.kind) {
    case HopKind::kFirstHop:
      return analyze_hop(site, first_hop_terms(site, frame, opts), opts);
    case HopKind::kIngress:
      return analyze_hop(site, ingress_terms(site, frame, opts), opts);
    case HopKind::kEgress:
      break;
  }
  return analyze_hop(site, egress_terms(site, frame, opts), opts);
}

HopResult analyze_stage(const AnalysisContext& ctx, const JitterMap& jitters,
                        FlowId i, std::size_t stage, std::size_t frame,
                        const HopOptions& opts) {
  HopSite site = stage_site(ctx, i, stage);
  if (site.feasible) bind_level(ctx, jitters, site, opts);
  return analyze_site(site, frame, opts);
}

gmfnet::Time stage_jitter_sum(const AnalysisContext& ctx,
                              const JitterMap& jitters, FlowId i,
                              std::size_t stage, std::size_t frame,
                              const HopResult* prev) {
  if (stage == 0) return ctx.flow(i).frame(frame).jitter;  // line 3
  return jitters.jitter(i, ctx.stages(i)[stage - 1], frame) + prev->response;
}

void finalize_frame(const AnalysisContext& ctx, FlowId i, std::size_t frame,
                    FrameResult& out) {
  const gmf::FrameSpec& f = ctx.flow(i).frame(frame);
  gmfnet::Time rsum = f.jitter;
  bool converged = out.stages.size() == ctx.stages(i).size();
  for (const StageResponse& s : out.stages) {
    converged &= s.hop.converged;
    rsum += s.hop.response;
  }
  out.converged = converged;
  out.response = converged ? rsum : gmfnet::Time::zero();  // line 24
  out.meets_deadline = converged && rsum <= f.deadline;
}

FrameResult analyze_frame_end_to_end(const AnalysisContext& ctx,
                                     JitterMap& jitters, FlowId i,
                                     std::size_t frame,
                                     const HopOptions& opts) {
  FrameResult out;
  const std::vector<StageKey>& stages = ctx.stages(i);
  out.stages.reserve(stages.size());
  // The route's stages in order: the first link (lines 7-11), then an
  // ingress and an egress-link stage per intermediate switch (lines 4-23).
  // Before each, the flow's own jitter there is set to JSUM.
  const HopResult* prev = nullptr;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    jitters.set_jitter(i, stages[s], frame,
                       stage_jitter_sum(ctx, jitters, i, s, frame, prev));
    out.stages.push_back(
        StageResponse{stages[s], analyze_stage(ctx, jitters, i, s, frame, opts)});
    prev = &out.stages.back().hop;
    if (!prev->converged) break;
  }
  finalize_frame(ctx, i, frame, out);
  return out;
}

FlowResult analyze_flow_end_to_end(const AnalysisContext& ctx,
                                   JitterMap& jitters, FlowId i,
                                   const HopOptions& opts) {
  FlowResult out;
  const std::size_t n = ctx.flow(i).frame_count();
  out.frames.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.frames.push_back(analyze_frame_end_to_end(ctx, jitters, i, k, opts));
  }
  return out;
}

}  // namespace gmfnet::core
