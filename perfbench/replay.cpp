#include "replay.hpp"

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "core/egress.hpp"
#include "core/first_hop.hpp"
#include "core/holistic.hpp"
#include "core/ingress.hpp"
#include "engine/analysis_engine.hpp"
#include "gmf/envelope.hpp"
#include "io/scenario_io.hpp"
#include "rpc/protocol.hpp"

namespace perfbench {

namespace core = gmfnet::core;
namespace engine = gmfnet::engine;
namespace gmf = gmfnet::gmf;
namespace net = gmfnet::net;
namespace rpc = gmfnet::rpc;

std::map<std::string, double> SpanRecorder::self_us_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    out[name.substr(0, name.find('.'))] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            child_ns[i]) /
        1e3;
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"rid\":%u}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.rid,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {

/// Budgets of the replay phases, so the traced run stays short on every
/// workload whatever its per-request cost.
constexpr std::int64_t kProbeReplayNs = 1'500'000'000;
constexpr std::int64_t kMutationReplayNs = 1'000'000'000;
constexpr std::size_t kMaxProbeRequests = 4000;
constexpr std::size_t kMaxPairs = 100;
constexpr std::size_t kCoreCandidates = 6;
constexpr int kEnvelopeEvals = 4096;

std::unique_ptr<engine::AnalysisEngine> build_engine(
    const gmfnet::workload::Scenario& sc) {
  auto eng = std::make_unique<engine::AnalysisEngine>(sc.network);
  for (const gmf::Flow& f : sc.flows) eng->add_flow(f);
  (void)eng->evaluate();
  return eng;
}

/// Residents sharing a link, transitively, with `cand` — the component a
/// probe of `cand` solves — followed by `cand` itself.
std::vector<gmf::Flow> component_of(const std::vector<gmf::Flow>& flows,
                                    const gmf::Flow& cand) {
  std::map<net::LinkRef, std::vector<std::size_t>> on_link;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (const net::LinkRef& l : flows[i].route().links()) {
      on_link[l].push_back(i);
    }
  }
  std::vector<bool> in(flows.size(), false);
  std::set<net::LinkRef> seen;
  std::vector<net::LinkRef> todo = cand.route().links();
  while (!todo.empty()) {
    const net::LinkRef l = todo.back();
    todo.pop_back();
    if (!seen.insert(l).second) continue;
    const auto it = on_link.find(l);
    if (it == on_link.end()) continue;
    for (const std::size_t i : it->second) {
      if (in[i]) continue;
      in[i] = true;
      for (const net::LinkRef& m : flows[i].route().links()) todo.push_back(m);
    }
  }
  std::vector<gmf::Flow> out;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (in[i]) out.push_back(flows[i]);
  }
  out.push_back(cand);
  return out;
}

std::vector<gmf::Flow> group_of(const Workload& wl, std::uint32_t g) {
  const auto begin =
      wl.candidates.begin() + static_cast<std::ptrdiff_t>(g * wl.batch);
  return {begin, begin + static_cast<std::ptrdiff_t>(wl.batch)};
}

/// The replay state: the span recorder plus the request id the next spans
/// belong to.
struct Tracer {
  SpanRecorder rec;
  std::uint32_t rid = 0;
  double sink = 0.0;  // folds results in, so no timed call is dead code

  /// Runs `fn` inside a span and returns the span's duration.
  template <typename Fn>
  double span(const char* name, std::int32_t parent, Fn&& fn) {
    std::int32_t idx = -1;
    {
      SpanRecorder::Scope s(rec, name, rid, parent);
      idx = s.index();
      fn();
    }
    return rec.duration_us(idx);
  }
};

/// The frames of one request, encoded and decoded as the client and the
/// daemon would (the rpc spans), around `serve` (the engine spans), which
/// maps the decoded request to its response.
template <typename Serve>
void replay_request(Tracer& t, const char* root_name, rpc::Request req,
                    Serve&& serve) {
  SpanRecorder::Scope root(t.rec, root_name, t.rid);
  std::string frame;
  t.span("rpc.encode_request", root.index(),
         [&] { frame = rpc::encode_request(req); });
  rpc::Request decoded;
  t.span("rpc.decode_request", root.index(),
         [&] { decoded = rpc::decode_request(frame); });
  const rpc::Response resp = serve(decoded, root.index());
  std::string out;
  t.span("rpc.encode_response", root.index(),
         [&] { out = rpc::encode_response(resp); });
  t.span("rpc.decode_response", root.index(), [&] {
    t.sink += static_cast<double>(rpc::decode_response(out).index());
  });
}

}  // namespace

Metrics run_traced_replay(const ReplayInput& in,
                          const std::string& trace_path) {
  const Workload& wl = *in.wl;
  Metrics m;
  const auto put = [&m](const std::string& name, double v, const char* unit) {
    m[name] = Metric{v, unit};
  };
  Tracer t;

  // ----------------------------------------------------------------- io --
  std::vector<double> parse_us, setup_us, save_us, restore_us;
  gmfnet::workload::Scenario sc;
  for (int r = 0; r < 3; ++r, ++t.rid) {
    SpanRecorder::Scope root(t.rec, "io.measure", t.rid);
    parse_us.push_back(t.span("io.scenario_parse", root.index(), [&] {
      sc = gmfnet::io::parse_scenario(in.scenario_text);
    }));
    std::unique_ptr<engine::AnalysisEngine> e;
    setup_us.push_back(t.span("io.setup_evaluate", root.index(),
                              [&] { e = build_engine(sc); }));
    std::ostringstream os;
    save_us.push_back(
        t.span("io.checkpoint_save", root.index(), [&] { e->save(os); }));
    const std::string blob = os.str();
    put("io.checkpoint_bytes", static_cast<double>(blob.size()), "B");
    restore_us.push_back(t.span("io.checkpoint_restore", root.index(), [&] {
      std::istringstream is(blob);
      t.sink += static_cast<double>(
          engine::AnalysisEngine::restore_unique(is)->flow_count());
    }));
  }
  put("io.scenario_parse_us", median(parse_us), "us");
  put("io.setup_evaluate_us", median(setup_us), "us");
  put("io.checkpoint_save_us", median(save_us), "us");
  put("io.checkpoint_restore_us", median(restore_us), "us");

  // The mirror every replayed request runs against.
  std::unique_ptr<engine::AnalysisEngine> eng = build_engine(sc);
  const std::size_t n0 = eng->flow_count();

  // ------------------------------------------------- probe request replay --
  // Requests in the order the daemon received them: frames encoded and
  // decoded (rpc) around one warm-scratch snapshot probe per candidate
  // (engine).
  std::vector<std::vector<gmf::Flow>> groups;
  for (std::size_t i = 0;
       i < in.probe_groups.size() && groups.size() < kMaxProbeRequests; ++i) {
    groups.push_back(group_of(wl, in.probe_groups[i]));
  }
  if (groups.empty()) groups.push_back(group_of(wl, 0));
  const std::shared_ptr<const engine::EngineSnapshot> snap = eng->published();
  engine::ProbeScratch scratch;
  const auto probe_request = [&](const std::vector<gmf::Flow>& cands) {
    rpc::WhatIfBatchRequest req;
    req.candidates = cands;
    req.verdict_only = true;
    return rpc::Request{std::move(req)};
  };
  std::vector<double> what_if_us;
  const auto serve_probe = [&](const rpc::Request& req, std::int32_t root) {
    rpc::WhatIfBatchResponse resp;
    for (const gmf::Flow& c :
         std::get<rpc::WhatIfBatchRequest>(req).candidates) {
      engine::WhatIfResult wi;
      what_if_us.push_back(t.span("engine.what_if", root, [&] {
        wi = snap->what_if(c, scratch);
      }));
      resp.results.push_back(engine::WhatIfResult::verdict_only(
          wi.admissible, wi.converged(), wi.sweeps(), wi.flow_count()));
    }
    return rpc::Response{std::move(resp)};
  };
  const auto untraced = [&](const std::vector<gmf::Flow>& cands) {
    const std::string frame = rpc::encode_request(probe_request(cands));
    const rpc::Request req = rpc::decode_request(frame);
    rpc::WhatIfBatchResponse resp;
    for (const gmf::Flow& c :
         std::get<rpc::WhatIfBatchRequest>(req).candidates) {
      const engine::WhatIfResult wi = snap->what_if(c, scratch);
      resp.results.push_back(engine::WhatIfResult::verdict_only(
          wi.admissible, wi.converged(), wi.sweeps(), wi.flow_count()));
    }
    const std::string out = rpc::encode_response(rpc::Response{std::move(resp)});
    t.sink += static_cast<double>(rpc::decode_response(out).index());
  };
  // Warm the scratch, then run every request untraced and traced back to
  // back, alternating which goes first, so drift in cache state or clock
  // speed charges both sides alike.
  for (std::size_t i = 0; i < std::min<std::size_t>(64, groups.size()); ++i) {
    untraced(groups[i]);
  }
  const std::size_t first_probe_span = t.rec.spans().size();
  std::size_t count = 0;
  double untraced_us = 0.0, traced_us = 0.0;
  const std::int64_t replay_t0 = now_ns();
  for (; count < groups.size() && now_ns() - replay_t0 < kProbeReplayNs;
       ++count, ++t.rid) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (count % 2 == 1);
      const std::int64_t t0 = now_ns();
      if (traced) {
        replay_request(t, "request.what_if", probe_request(groups[count]),
                       serve_probe);
      } else {
        untraced(groups[count]);
      }
      (traced ? traced_us : untraced_us) +=
          static_cast<double>(now_ns() - t0) / 1e3;
    }
  }
  put("trace.overhead_us",
      (traced_us - untraced_us) / static_cast<double>(count), "us");
  put("engine.what_if_p50_us", percentile(what_if_us, 0.5), "us");
  put("engine.what_if_p99_us", percentile(what_if_us, 0.99), "us");

  // Per-request encode and decode time of the traced probe requests.
  std::map<std::uint32_t, std::pair<double, double>> codec;
  for (std::size_t i = first_probe_span; i < t.rec.spans().size(); ++i) {
    const std::string name = t.rec.spans()[i].name;
    const double us = t.rec.duration_us(static_cast<std::int32_t>(i));
    if (name.rfind("rpc.encode", 0) == 0) codec[t.rec.spans()[i].rid].first += us;
    if (name.rfind("rpc.decode", 0) == 0) codec[t.rec.spans()[i].rid].second += us;
  }
  std::vector<double> enc, dec;
  for (const auto& [rid, ed] : codec) {
    enc.push_back(ed.first);
    dec.push_back(ed.second);
  }
  put("rpc.encode_us", median(enc), "us");
  put("rpc.decode_us", median(dec), "us");

  // -------------------------------------------------------- engine extras --
  std::vector<double> cold_us;
  for (std::size_t i = 0; i < std::min<std::size_t>(32, count); ++i, ++t.rid) {
    const gmf::Flow& c = groups[i].front();
    engine::ProbeScratch fresh;
    cold_us.push_back(t.span("engine.what_if_cold", -1, [&] {
      t.sink += snap->what_if(c, fresh).sweeps();
    }));
  }
  put("engine.what_if_cold_us", median(cold_us), "us");

  // evaluate_batch of 4 candidates (one whole batch on hub_poll).
  std::vector<gmf::Flow> batch4(
      wl.candidates.begin(),
      wl.candidates.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              4, wl.candidates.size())));
  (void)eng->evaluate_batch(batch4);  // starts the engine's pool
  std::vector<double> batch_us;
  for (int r = 0; r < 8; ++r, ++t.rid) {
    batch_us.push_back(t.span("engine.batch_what_if", -1, [&] {
      t.sink += static_cast<double>(eng->evaluate_batch(batch4).size());
    }));
  }
  put("engine.batch_what_if_us", median(batch_us), "us");

  // Solver work per probe, from the engine's own counters.
  const engine::EngineStats before = eng->stats();
  std::size_t probes = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(128, count); ++i) {
    for (const gmf::Flow& c : groups[i]) {
      t.sink += eng->what_if(c).sweeps();
      ++probes;
    }
  }
  const double analyses_per_probe =
      static_cast<double>(eng->stats().flow_analyses - before.flow_analyses) /
      static_cast<double>(probes);
  put("engine.flow_analyses_per_probe", analyses_per_probe, "count");

  // ------------------------------------------------------ mutation replay --
  std::vector<double> lean_us, end_us, remove_us;
  const std::int64_t mut_t0 = now_ns();
  for (std::size_t p = 0; p < in.churn_pairs.size() && p < kMaxPairs &&
                          now_ns() - mut_t0 < kMutationReplayNs;
       ++p) {
    rpc::AdmitBatchRequest admit;
    admit.flows = {wl.churn[in.churn_pairs[p]]};
    replay_request(
        t, "request.admit_batch", rpc::Request{std::move(admit)},
        [&](rpc::Request& req, std::int32_t root) {
          bool ok = false;
          lean_us.push_back(t.span("engine.admit_lean", root, [&] {
            eng->begin_batch();
            ok = eng->try_admit_lean(
                std::move(std::get<rpc::AdmitBatchRequest>(req).flows[0]));
          }));
          end_us.push_back(t.span("engine.end_batch", root, [&] {
            t.sink += eng->end_batch().sweeps;
          }));
          rpc::AdmitBatchResponse resp;
          resp.admitted = {static_cast<std::uint8_t>(ok ? 1 : 0)};
          resp.flows_after = eng->flow_count();
          return rpc::Response{std::move(resp)};
        });
    ++t.rid;
    replay_request(
        t, "request.remove",
        rpc::Request{rpc::RemoveRequest{static_cast<std::uint64_t>(n0)}},
        [&](rpc::Request& req, std::int32_t root) {
          bool removed = false;
          remove_us.push_back(t.span("engine.remove_eval", root, [&] {
            removed = eng->remove_flow(static_cast<std::size_t>(
                std::get<rpc::RemoveRequest>(req).index));
            if (removed) t.sink += eng->evaluate().sweeps;
          }));
          return rpc::Response{rpc::RemoveResponse{removed}};
        });
    ++t.rid;
  }
  put("engine.admit_lean_us", median(lean_us), "us");
  put("engine.end_batch_us", median(end_us), "us");
  put("engine.remove_eval_us", median(remove_us), "us");

  // Self time per replayed request of the two layers a request crosses.
  // Only requests have rpc spans; engine spans with a parent are the ones
  // inside requests (the standalone engine measurements are roots).
  double n_req = 0.0, engine_us = 0.0;
  for (std::size_t i = 0; i < t.rec.spans().size(); ++i) {
    const SpanRecorder::Span& s = t.rec.spans()[i];
    const std::string name = s.name;
    if (name.rfind("request.", 0) == 0) n_req += 1.0;
    if (s.parent >= 0 && name.rfind("engine.", 0) == 0) {
      engine_us += t.rec.duration_us(static_cast<std::int32_t>(i));
    }
  }
  put("rpc.self_us", t.rec.self_us_by_layer()["rpc"] / n_req, "us");
  put("engine.self_us", engine_us / n_req, "us");

  // --------------------------------------------------------- core + gmf --
  // For a few distinct candidates of the replay: the touched component as
  // a standalone context, its cold solve, every per-hop analysis of the
  // converged component by kind, and the level envelope of its densest
  // link.
  std::vector<double> ctx_us, solve_us, solve_sweeps, hop_share, hop_share_cold;
  double hop_us[3] = {0, 0, 0};
  double hop_calls[3] = {0, 0, 0};
  std::vector<double> demand_us, env_build_us, env_eval_ns;
  std::set<std::string> done;
  for (std::size_t i = 0; i < count && done.size() < kCoreCandidates; ++i) {
    const gmf::Flow& cand = groups[i].front();
    if (!done.insert(cand.name()).second) continue;
    const std::vector<gmf::Flow> comp = component_of(sc.flows, cand);
    SpanRecorder::Scope root(t.rec, "core.measure", t.rid);
    std::optional<core::AnalysisContext> ctx;
    ctx_us.push_back(t.span("core.context_build", root.index(),
                            [&] { ctx.emplace(sc.network, comp); }));
    core::HolisticResult res;
    solve_us.push_back(t.span("core.solve_cold", root.index(),
                              [&] { res = core::analyze_holistic(*ctx); }));
    solve_sweeps.push_back(res.sweeps);

    // Every hop of every frame of every flow, by kind.
    static const char* const kHopSpan[3] = {
        "core.hop_first", "core.hop_ingress", "core.hop_egress"};
    const auto hops = [&](int kind) {
      double calls = 0;
      for (std::size_t f = 0; f < ctx->flow_count(); ++f) {
        const core::FlowId id(static_cast<std::int32_t>(f));
        const std::vector<core::StageKey>& stages = ctx->stages(id);
        for (std::size_t k = 0; k < ctx->flow(id).frame_count(); ++k) {
          for (std::size_t st = 0; st < stages.size(); ++st) {
            const int stage_kind = st == 0 ? 0 : stages[st].is_link() ? 2 : 1;
            if (stage_kind != kind) continue;
            const core::HopResult h =
                kind == 0 ? core::analyze_first_hop(*ctx, res.jitters, id, k)
                : kind == 1
                    ? core::analyze_ingress(*ctx, res.jitters, id, k,
                                            stages[st].a)
                    : core::analyze_egress(*ctx, res.jitters, id, k,
                                           stages[st].a);
            t.sink += h.response.to_us();
            calls += 1;
          }
        }
      }
      return calls;
    };
    // The first pass meets cold hop caches, as a probe's first sweep after
    // a base rebuild does; the second runs warm.  Their shares bracket the
    // hop layer's part of a probe.
    double per_flow_cold_us = 0.0;
    for (int kind = 0; kind < 3; ++kind) {
      per_flow_cold_us += t.span("core.hop_cold", root.index(),
                                 [&] { (void)hops(kind); }) /
                          static_cast<double>(ctx->flow_count());
    }
    double per_flow_analysis_us = 0.0;
    for (int kind = 0; kind < 3; ++kind) {
      double calls = 0;
      const double us =
          t.span(kHopSpan[kind], root.index(), [&] { calls = hops(kind); });
      hop_us[kind] += us;
      hop_calls[kind] += calls;
      per_flow_analysis_us += us / static_cast<double>(ctx->flow_count());
    }
    hop_share.push_back(per_flow_analysis_us * analyses_per_probe /
                        m["engine.what_if_p50_us"].value);
    hop_share_cold.push_back(per_flow_cold_us * analyses_per_probe /
                             m["engine.what_if_p50_us"].value);

    // gmf: the component's densest link (the hub uplink on hub_poll).
    net::LinkRef dense;
    std::size_t dense_n = 0;
    for (std::size_t f = 0; f < ctx->flow_count(); ++f) {
      for (const net::LinkRef& l :
           ctx->route_links(core::FlowId(static_cast<std::int32_t>(f)))) {
        if (ctx->flows_on_link(l).size() > dense_n) {
          dense = l;
          dense_n = ctx->flows_on_link(l).size();
        }
      }
    }
    const std::vector<core::FlowId>& ids = ctx->flows_on_link(dense);
    const auto speed = sc.network.linkspeed(dense.src, dense.dst);
    for (const core::FlowId j : ids) {
      const gmf::FlowLinkParams params(ctx->flow(j), speed);
      demand_us.push_back(t.span("gmf.demand_build", root.index(), [&] {
        t.sink += static_cast<double>(gmf::DemandCurve(params).steps().size());
      }));
    }
    // The candidate's (the last flow's) interferers at converged shifts.
    std::vector<gmf::EnvelopeSpec> specs;
    for (const core::FlowId j : ids) {
      if (static_cast<std::size_t>(j.v) + 1 == ctx->flow_count()) continue;
      specs.push_back(gmf::EnvelopeSpec{
          &ctx->demand(j, dense),
          res.jitters.max_jitter(j, core::StageKey::link(dense))});
    }
    for (int r = 0; r < 10; ++r) {
      gmf::LevelEnvelope env;
      env_build_us.push_back(t.span("gmf.envelope_build", root.index(), [&] {
        t.sink += env.ensure(specs.data(), specs.size()) ? 1.0 : 0.0;
      }));
    }
    gmf::LevelEnvelope env;
    (void)env.ensure(specs.data(), specs.size());
    for (int r = 0; r < 5; ++r) {
      gmf::EvalCursor cur;
      const double us = t.span("gmf.envelope_eval", root.index(), [&] {
        for (int q = 0; q < kEnvelopeEvals; ++q) {
          t.sink += static_cast<double>(
              env.eval(gmfnet::Time::us(25 * q), cur).count);
        }
      });
      env_eval_ns.push_back(us * 1e3 / kEnvelopeEvals);
    }
    ++t.rid;
  }
  put("core.context_build_us", median(ctx_us), "us");
  put("core.solve_cold_us", median(solve_us), "us");
  put("core.solve_cold_sweeps", median(solve_sweeps), "count");
  put("core.hop_first_us", hop_us[0] / hop_calls[0], "us");
  put("core.hop_ingress_us", hop_us[1] / hop_calls[1], "us");
  put("core.hop_egress_us", hop_us[2] / hop_calls[2], "us");
  put("core.hop_share", median(hop_share), "fraction");
  put("core.hop_share_cold", median(hop_share_cold), "fraction");
  put("gmf.demand_build_us", median(demand_us), "us");
  put("gmf.envelope_build_us", median(env_build_us), "us");
  put("gmf.envelope_eval_ns", median(env_eval_ns), "ns");

  put("trace.spans", static_cast<double>(t.rec.spans().size()), "count");
  if (!t.rec.write_json(trace_path)) {
    std::fprintf(stderr, "gmfbench: cannot write %s\n", trace_path.c_str());
  }
  std::fprintf(stderr, "gmfbench: replay checksum %.6g\n", t.sink);
  return m;
}

}  // namespace perfbench
