// Per-link interferer classes (core/hop_level.hpp): a link's flows collapse
// into classes of equal curve content and shift, each analysed flow's
// envelope is built from those classes with multiplicities, and the result
// must be bit-identical to listing the interferers one by one — and to the
// naive per-curve path.  Also pins when a table is (not) re-gathered.
#include "core/hop_level.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/end_to_end.hpp"
#include "core/holistic.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace gmfnet::core {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;

/// A 25 fps camera feed: one 16 kB I-frame, three 3 kB P-frames.
gmf::Flow camera_flow(const std::string& name, net::Route route) {
  std::vector<gmf::FrameSpec> frames;
  for (int k = 0; k < 4; ++k) {
    gmf::FrameSpec fs;
    fs.min_separation = gmfnet::Time::ms(40);
    fs.deadline = gmfnet::Time::ms(100);
    fs.jitter = gmfnet::Time::ms(1);
    fs.payload_bits = (k == 0 ? 16000 : 3000) * 8;
    frames.push_back(fs);
  }
  return gmf::Flow(name, std::move(route), std::move(frames), /*priority=*/6);
}

/// 48 VoIP legs and 16 cameras from host 0 to the other hosts: all 64 share
/// the uplink host 0 -> switch.
std::vector<gmf::Flow> hub_cell(const net::StarNetwork& star) {
  std::vector<gmf::Flow> flows;
  for (int n = 0; n < 64; ++n) {
    const auto dst = star.hosts[static_cast<std::size_t>(1 + n % 7)];
    net::Route route({star.hosts[0], star.sw, dst});
    if (n % 4 == 0) {
      flows.push_back(camera_flow("cam" + std::to_string(n), route));
    } else {
      flows.push_back(workload::make_voip_flow(
          "call" + std::to_string(n), route, gmfnet::Time::ms(80),
          /*priority=*/5));
    }
  }
  return flows;
}

/// A random GMF frame list (1..4 frames).
std::vector<gmf::FrameSpec> random_frames(Rng& rng) {
  std::vector<gmf::FrameSpec> frames(
      static_cast<std::size_t>(rng.uniform_i64(1, 4)));
  for (gmf::FrameSpec& fs : frames) {
    fs.min_separation = gmfnet::Time::us(rng.uniform_i64(4'000, 30'000));
    fs.deadline = gmfnet::Time::ms(rng.uniform_i64(30, 300));
    fs.jitter = gmfnet::Time::us(500 * rng.uniform_i64(0, 2));
    fs.payload_bits = rng.uniform_i64(100, 1400) * 8;
  }
  return frames;
}

/// A dense star world made of a few templates: every flow copies one of
/// 1..3 frame lists (distinct flows, equal curves), and priorities are drawn
/// from a small range so ties are common (all equal when `equal`).
std::vector<gmf::Flow> templated_flows(const net::StarNetwork& star, Rng& rng,
                                       bool equal) {
  std::vector<std::vector<gmf::FrameSpec>> templates(
      static_cast<std::size_t>(rng.uniform_i64(1, 3)));
  for (auto& t : templates) t = random_frames(rng);
  std::vector<gmf::Flow> flows;
  const auto n = rng.uniform_i64(6, 28);
  for (std::int64_t i = 0; i < n; ++i) {
    // Sources spread over two hosts, sinks over all the others: the two
    // uplinks and every downlink carry several classes.
    const auto src = star.hosts[rng.next_below(2)];
    const auto dst = star.hosts[2 + rng.next_below(star.hosts.size() - 2)];
    flows.emplace_back("f" + std::to_string(i), net::Route({src, star.sw, dst}),
                       templates[rng.next_below(templates.size())],
                       equal ? 1 : rng.uniform_i64(1, 3));
  }
  return flows;
}

TEST(HopLevel, UplinkOf48CallsAnd16CamerasIsTwoClasses) {
  const auto star = net::make_star_network(8, kSpeed);
  const AnalysisContext ctx(star.net, hub_cell(star));
  const LinkRef uplink(star.hosts[0], star.sw);
  ASSERT_EQ(ctx.flows_on_link(uplink).size(), 64u);

  const HolisticResult fixed = analyze_holistic(ctx);
  ASSERT_TRUE(fixed.converged);
  for (const JitterMap* jm : {&fixed.jitters}) {
    LinkLevel table;
    EXPECT_EQ(table.ensure(ctx, *jm, uplink, StageKey::link(uplink),
                           FlowId(0)),
              LinkLevel::Gather::kContext);
    // Nothing changed since: the second ensure is two stamp compares.
    EXPECT_EQ(table.ensure(ctx, *jm, uplink, StageKey::link(uplink),
                           FlowId(5)),
              LinkLevel::Gather::kNone);
    EXPECT_EQ(table.class_count(), 2u);

    // Flow 0 is a camera (priority 6), flow 1 a call (priority 5).
    std::vector<gmf::EnvelopeSpec> specs;
    table.interferers(FlowId(0), /*hep_only=*/false, specs);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].mult, 15);  // the other cameras
    EXPECT_EQ(specs[1].mult, 48);
    table.interferers(FlowId(1), /*hep_only=*/false, specs);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].mult, 16);
    EXPECT_EQ(specs[1].mult, 47);
    // hep: a camera sees only the cameras, a call sees everyone else.
    table.interferers(FlowId(0), /*hep_only=*/true, specs);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].mult, 15);
    table.interferers(FlowId(1), /*hep_only=*/true, specs);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].mult + specs[1].mult, 63);
  }
}

TEST(HopLevel, SameShapeComparesContentNotIdentity) {
  const auto star = net::make_star_network(3, kSpeed);
  const net::Route route({star.hosts[0], star.sw, star.hosts[1]});
  const gmf::Flow a = camera_flow("a", route);
  const gmf::Flow b = camera_flow("b", route);
  gmf::Flow c = camera_flow("c", route);
  std::vector<gmf::FrameSpec> frames = c.frames();
  frames[2].payload_bits += 8;
  c = gmf::Flow("c", route, frames, c.priority());
  const gmf::DemandCurve da(gmf::FlowLinkParams(a, kSpeed));
  const gmf::DemandCurve db(gmf::FlowLinkParams(b, kSpeed));
  const gmf::DemandCurve dc(gmf::FlowLinkParams(c, kSpeed));
  EXPECT_NE(da.uid(), db.uid());
  EXPECT_TRUE(da.same_shape(db));
  EXPECT_FALSE(da.same_shape(dc));
}

// Every member's interferer classes, expanded, must be exactly the member
// list: all other flows (first hop, ingress) or the hep flows (egress), with
// equal-priority ties counted as hep.
TEST(HopLevel, ClassesExpandToTheMemberLevel) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(0x4C1A55ull + seed * 0x9E3779B9ull);
    const auto star = net::make_star_network(6, kSpeed);
    const AnalysisContext ctx(star.net,
                              templated_flows(star, rng, seed % 3 == 0));
    const LinkRef link(star.hosts[0], star.sw);
    const StageKey stage = StageKey::link(link);
    const std::vector<FlowId>& ids = ctx.flows_on_link(link);
    if (ids.empty()) continue;

    // Shifts from a small pool, so equal shifts are common.
    JitterMap jm;
    const gmfnet::Time pool[] = {gmfnet::Time::zero(), gmfnet::Time::us(700),
                                 gmfnet::Time::ms(3)};
    for (const FlowId j : ids) {
      jm.set_jitter(j, stage, 0, pool[rng.next_below(3)]);
    }

    LinkLevel table;
    table.ensure(ctx, jm, link, stage, ids.front());
    EXPECT_LE(table.class_count(), 3u * 3u) << "seed " << seed;
    std::vector<gmf::EnvelopeSpec> specs;
    for (const FlowId i : ids) {
      for (const bool hep_only : {false, true}) {
        const std::string where = "seed " + std::to_string(seed) + " flow " +
                                  std::to_string(i.v) +
                                  (hep_only ? " hep" : " all");
        std::vector<gmf::EnvelopeSpec> members;
        for (const FlowId j : ids) {
          if (j == i) continue;
          if (hep_only && ctx.flow(j).priority() < ctx.flow(i).priority()) {
            continue;
          }
          members.push_back(gmf::EnvelopeSpec{&ctx.demand(j, link),
                                              jm.max_jitter(j, stage)});
        }
        table.interferers(i, hep_only, specs);
        std::int64_t total = 0;
        for (const gmf::EnvelopeSpec& s : specs) {
          EXPECT_GE(s.mult, 1) << where;
          total += s.mult;
        }
        EXPECT_EQ(total, static_cast<std::int64_t>(members.size())) << where;

        gmf::LevelEnvelope by_class;
        gmf::LevelEnvelope by_member;
        by_class.ensure(specs.data(), specs.size());
        by_member.ensure(members.data(), members.size());
        gmf::EvalCursor cc;
        gmf::EvalCursor mc;
        gmfnet::Time t = gmfnet::Time::zero();
        for (int q = 0; q < 60; ++q) {
          const gmf::EnvelopeSums a = by_class.eval(t, cc);
          const gmf::EnvelopeSums b = by_member.eval(t, mc);
          ASSERT_EQ(a.cost, b.cost) << where << " t=" << t.str();
          ASSERT_EQ(a.count, b.count) << where << " t=" << t.str();
          t += gmfnet::Time(rng.uniform_i64(0, 3'000'000'000));
        }
      }
    }
  }
}

void expect_same_results(const HolisticResult& a, const HolisticResult& b,
                         const std::string& where) {
  ASSERT_EQ(a.converged, b.converged) << where;
  ASSERT_EQ(a.schedulable, b.schedulable) << where;
  ASSERT_EQ(a.sweeps, b.sweeps) << where;
  EXPECT_TRUE(a.jitters == b.jitters) << where;
  ASSERT_EQ(a.flows.size(), b.flows.size()) << where;
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    ASSERT_EQ(a.flows[f].frames.size(), b.flows[f].frames.size()) << where;
    for (std::size_t k = 0; k < a.flows[f].frames.size(); ++k) {
      const FrameResult& x = a.flows[f].frames[k];
      const FrameResult& y = b.flows[f].frames[k];
      EXPECT_EQ(x.response, y.response) << where;
      ASSERT_EQ(x.stages.size(), y.stages.size()) << where;
      for (std::size_t s = 0; s < x.stages.size(); ++s) {
        const HopResult& p = x.stages[s].hop;
        const HopResult& q = y.stages[s].hop;
        EXPECT_EQ(p.converged, q.converged) << where;
        EXPECT_EQ(p.response, q.response) << where;
        EXPECT_EQ(p.busy_period, q.busy_period) << where;
        EXPECT_EQ(p.instances, q.instances) << where;
        EXPECT_EQ(p.iterations, q.iterations) << where;
      }
    }
  }
}

// Whole solves over templated worlds: the class path and the naive
// per-curve path agree on every verdict, stage result and jitter, with the
// self CIRC terms charged (the default) and with the paper's literal
// recurrences (charge_self_circ = false, E10).
TEST(HopLevel, TemplatedWorldsMatchNaivePath) {
  int converged = 0;
  for (const bool charge : {true, false}) {
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      Rng rng(0x7E3A1ull + seed * 0x2545F491ull);
      const auto star = net::make_star_network(7, kSpeed);
      const AnalysisContext ctx(star.net,
                                templated_flows(star, rng, seed % 2 == 0));
      const std::string where = "seed " + std::to_string(seed) +
                                (charge ? " charged" : " literal");
      HolisticOptions by_class_opts;
      by_class_opts.hop.charge_self_circ = charge;
      HolisticOptions naive = by_class_opts;
      naive.hop.use_envelope = false;
      const HolisticResult by_class = analyze_holistic(ctx, by_class_opts);
      const HolisticResult reference = analyze_holistic(ctx, naive);
      expect_same_results(by_class, reference, where);
      const HolisticResult jacobi = solve_jacobi(ctx, by_class_opts);
      EXPECT_EQ(jacobi.converged, reference.converged) << where;
      EXPECT_TRUE(jacobi.jitters == reference.jitters ||
                  !reference.converged)
          << where;
      converged += reference.converged ? 1 : 0;
    }
  }
  EXPECT_GE(converged, 16) << "too few fixed points were compared";
}

// The flow-major path (analyze_flow_end_to_end) writes the analysed flow's
// own jitters between its stages.  Those writes must not invalidate the
// shared tables; another flow's analysis must still see them.
TEST(HopLevel, OwnWritesDoNotRegatherTheTable) {
  const auto star = net::make_star_network(8, kSpeed);
  const AnalysisContext ctx(star.net, hub_cell(star));
  const JitterMap initial = JitterMap::initial(ctx);
  HopScratch& scratch = HopScratch::local();

  // Flow 8 is a camera (4 frames) to host 2.  Its first flow-major
  // analysis gathers each table of its route once — uplink, ingress FIFO,
  // downlink — even though every frame rewrites its own ingress and egress
  // jitters.
  JitterMap jm = initial;
  const std::uint64_t g0 = scratch.gathers().total();
  const FlowResult first = analyze_flow_end_to_end(ctx, jm, FlowId(8));
  EXPECT_EQ(scratch.gathers().total() - g0, 3u);
  EXPECT_NE(jm.flow_version(FlowId(8)), initial.flow_version(FlowId(8)));

  // Again from the initial map: only the analysed flow differs from what
  // the tables recorded, so nothing is gathered and the result is the same.
  JitterMap again = initial;
  const std::uint64_t g1 = scratch.gathers().total();
  const FlowResult second = analyze_flow_end_to_end(ctx, again, FlowId(8));
  EXPECT_EQ(scratch.gathers().total(), g1);
  ASSERT_EQ(first.frames.size(), second.frames.size());
  for (std::size_t k = 0; k < first.frames.size(); ++k) {
    EXPECT_EQ(first.frames[k].response, second.frames[k].response);
  }

  // Flow 15 shares flow 8's route; against `jm` it must see flow 8's new
  // shifts, so all three tables re-gather (a jitter version covers every
  // stage of its flow).
  const std::uint64_t g2 = scratch.gathers().total();
  JitterMap other = jm;
  const FlowResult by_class = analyze_flow_end_to_end(ctx, other, FlowId(15));
  EXPECT_EQ(scratch.gathers().total() - g2, 3u);
  HopOptions naive;
  naive.use_envelope = false;
  JitterMap other_naive = jm;
  const FlowResult reference =
      analyze_flow_end_to_end(ctx, other_naive, FlowId(15), naive);
  ASSERT_EQ(by_class.frames.size(), reference.frames.size());
  for (std::size_t k = 0; k < by_class.frames.size(); ++k) {
    EXPECT_EQ(by_class.frames[k].response, reference.frames[k].response);
  }
}

}  // namespace
}  // namespace gmfnet::core
