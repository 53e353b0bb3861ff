// LevelEnvelope / EvalCursor equivalence properties: for any set of
// jitter-shifted demand curves, envelope evaluation must be bit-identical
// to summing DemandCurve::mx/nx per interferer — at random t, at staircase
// boundaries (span-0 steps, exact step edges, periodic wrap points), at
// negative t, and under both monotone (cursor fast path) and adversarially
// non-monotone (binary-search fallback) query orders.  An entry of
// multiplicity m must sum exactly like its m members listed one by one.
#include "gmf/envelope.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"

namespace gmfnet::gmf {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 10'000'000;

Flow make_flow(std::vector<FrameSpec> frames, const std::string& name) {
  const net::Figure1Network f = net::make_figure1_network();
  return Flow(name, net::Route({f.host0, f.sw4, f.sw6, f.host3}),
              std::move(frames));
}

/// A random GMF flow: 1..6 frames, random separations/sizes.  With
/// `constant_rate`, all separations equal — the heavy-dedupe case.
Flow random_flow(Rng& rng, const std::string& name, bool constant_rate) {
  const auto n = static_cast<std::size_t>(rng.uniform_i64(1, 6));
  const gmfnet::Time common =
      gmfnet::Time::us(rng.uniform_i64(500, 40'000));
  std::vector<FrameSpec> fr(n);
  for (auto& s : fr) {
    s.min_separation =
        constant_rate ? common : gmfnet::Time::us(rng.uniform_i64(500, 40'000));
    s.deadline = gmfnet::Time::ms(500);
    s.jitter = gmfnet::Time::zero();
    s.payload_bits = rng.uniform_i64(1, 20'000) * 8;
  }
  return make_flow(std::move(fr), name);
}

struct Level {
  std::vector<std::unique_ptr<DemandCurve>> curves;
  std::vector<EnvelopeSpec> specs;
};

Level random_level(Rng& rng, std::size_t k) {
  Level lvl;
  for (std::size_t i = 0; i < k; ++i) {
    const Flow f =
        random_flow(rng, "f" + std::to_string(i), rng.chance(0.3));
    const FlowLinkParams p(f, kSpeed);
    lvl.curves.push_back(std::make_unique<DemandCurve>(p));
    EnvelopeSpec spec;
    spec.curve = lvl.curves.back().get();
    spec.shift = gmfnet::Time(rng.uniform_i64(0, 50'000'000'000));  // 0..50ms
    lvl.specs.push_back(spec);
  }
  return lvl;
}

/// The reference: per-interferer binary-searched sums, exactly what the
/// naive per-hop path computes.
EnvelopeSums naive_sums(const Level& lvl, gmfnet::Time t) {
  EnvelopeSums s;
  for (const EnvelopeSpec& j : lvl.specs) {
    for (std::int64_t m = 0; m < j.mult; ++m) {
      s.cost += j.curve->mx(t + j.shift).ps();
      s.count += j.curve->nx(t + j.shift);
    }
  }
  return s;
}

void expect_equal(const EnvelopeSums& got, const EnvelopeSums& want,
                  gmfnet::Time t) {
  EXPECT_EQ(got.cost, want.cost) << "t=" << t.str();
  EXPECT_EQ(got.count, want.count) << "t=" << t.str();
}

/// Interesting probe points of one level: every step edge of every curve
/// (shifted back into the envelope's t domain) and its +-1 neighbors, the
/// periodic wrap points, and 0.
std::vector<gmfnet::Time> boundary_probes(const Level& lvl) {
  std::vector<gmfnet::Time> probes = {gmfnet::Time::zero()};
  for (const EnvelopeSpec& j : lvl.specs) {
    const gmfnet::Time::rep tsum = j.curve->tsum().ps();
    for (int cycle = 0; cycle < 3; ++cycle) {
      for (const DemandCurve::Step& s : j.curve->steps()) {
        // t such that (t + shift) mod tsum lands exactly on the span edge.
        const gmfnet::Time::rep at = cycle * tsum + s.span - j.shift.ps();
        for (const int d : {-1, 0, 1}) {
          probes.push_back(gmfnet::Time(at + d));
        }
      }
      probes.push_back(gmfnet::Time(cycle * tsum - j.shift.ps()));
    }
  }
  return probes;
}

/// A level of interferer classes: 1..4 templates, each repeated 1..16
/// times.  Every member is a distinct flow with its own DemandCurve object
/// (equal content, distinct uid), and the members of one template share a
/// shift — the shape of every leg of one codec at a shared hop.  `members`
/// lists them one by one; `classes` holds one entry per template, its first
/// member's curve with the template's multiplicity.
struct ClassedLevel {
  Level members;
  std::vector<EnvelopeSpec> classes;
};

ClassedLevel random_classed_level(Rng& rng) {
  ClassedLevel out;
  const auto templates = rng.uniform_i64(1, 4);
  for (std::int64_t t = 0; t < templates; ++t) {
    const Flow f =
        random_flow(rng, "t" + std::to_string(t), rng.chance(0.5));
    const gmfnet::Time shift(rng.uniform_i64(0, 50'000'000'000));
    const std::int64_t mult = rng.uniform_i64(1, 16);
    for (std::int64_t m = 0; m < mult; ++m) {
      out.members.curves.push_back(
          std::make_unique<DemandCurve>(FlowLinkParams(f, kSpeed)));
      out.members.specs.push_back(
          EnvelopeSpec{out.members.curves.back().get(), shift});
    }
    const DemandCurve* rep =
        out.members.curves[out.members.curves.size() -
                           static_cast<std::size_t>(mult)]
            .get();
    out.classes.push_back(EnvelopeSpec{rep, shift, mult});
  }
  return out;
}

class EnvelopeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnvelopeProperty, MonotoneSweepMatchesNaive) {
  Rng rng(0xe17e + GetParam() * 0x9E3779B9ull);
  const auto k = static_cast<std::size_t>(rng.uniform_i64(1, 8));
  const Level lvl = random_level(rng, k);

  LevelEnvelope env;
  EXPECT_FALSE(env.ensure(lvl.specs.data(), lvl.specs.size()));  // built
  EXPECT_TRUE(env.ensure(lvl.specs.data(), lvl.specs.size()));   // reused
  EvalCursor cur;

  // Monotone non-decreasing t sequence — the fixed-point iteration shape
  // that exercises the forward-cursor fast path, including repeats and
  // multi-cycle jumps over the periodic wrap.
  gmfnet::Time t = gmfnet::Time::zero();
  for (int probe = 0; probe < 400; ++probe) {
    expect_equal(env.eval(t, cur), naive_sums(lvl, t), t);
    if (rng.chance(0.15)) continue;  // repeated query (converged iterate)
    t += gmfnet::Time(rng.uniform_i64(0, 30'000'000'000));
  }
}

TEST_P(EnvelopeProperty, NonMonotoneAndNegativeMatchesNaive) {
  Rng rng(0xbad5eed + GetParam() * 0x517cc1b7ull);
  const auto k = static_cast<std::size_t>(rng.uniform_i64(1, 8));
  const Level lvl = random_level(rng, k);

  LevelEnvelope env;
  env.ensure(lvl.specs.data(), lvl.specs.size());
  EvalCursor cur;

  // Adversarial order: random jumps in both directions, including negative
  // t (MX/NX must read as zero) — the binary-search fallback path.
  for (int probe = 0; probe < 400; ++probe) {
    const gmfnet::Time t(rng.uniform_i64(-10'000'000'000, 200'000'000'000));
    expect_equal(env.eval(t, cur), naive_sums(lvl, t), t);
  }
}

TEST_P(EnvelopeProperty, BoundaryProbesMatchNaive) {
  Rng rng(0xb0 + GetParam());
  const auto k = static_cast<std::size_t>(rng.uniform_i64(1, 6));
  const Level lvl = random_level(rng, k);

  LevelEnvelope env;
  env.ensure(lvl.specs.data(), lvl.specs.size());
  EvalCursor cur;

  std::vector<gmfnet::Time> probes = boundary_probes(lvl);
  // Sorted (monotone cursor) and then shuffled (fallback) passes.
  std::sort(probes.begin(), probes.end());
  for (const gmfnet::Time t : probes) {
    expect_equal(env.eval(t, cur), naive_sums(lvl, t), t);
  }
  rng.shuffle(probes);
  for (const gmfnet::Time t : probes) {
    expect_equal(env.eval(t, cur), naive_sums(lvl, t), t);
  }
}

TEST_P(EnvelopeProperty, MultiplicityMatchesMembersAndNaive) {
  Rng rng(0x3417 + GetParam() * 0x2545F491ull);
  const ClassedLevel lvl = random_classed_level(rng);

  LevelEnvelope by_class;
  LevelEnvelope by_member;
  by_class.ensure(lvl.classes.data(), lvl.classes.size());
  by_member.ensure(lvl.members.specs.data(), lvl.members.specs.size());
  EXPECT_EQ(by_class.entry_count(), lvl.classes.size());
  EvalCursor class_cur;
  EvalCursor member_cur;

  // Monotone chains (cursor fast path), then adversarial jumps including
  // negative t (fallback path): an entry of multiplicity m must sum exactly
  // like its m members, and both like the per-curve naive sums.
  gmfnet::Time t = gmfnet::Time::zero();
  for (int probe = 0; probe < 300; ++probe) {
    const EnvelopeSums want = naive_sums(lvl.members, t);
    expect_equal(by_class.eval(t, class_cur), want, t);
    expect_equal(by_member.eval(t, member_cur), want, t);
    t += gmfnet::Time(rng.uniform_i64(0, 20'000'000'000));
  }
  for (int probe = 0; probe < 300; ++probe) {
    const gmfnet::Time q(rng.uniform_i64(-10'000'000'000, 200'000'000'000));
    const EnvelopeSums want = naive_sums(lvl.members, q);
    expect_equal(by_class.eval(q, class_cur), want, q);
    expect_equal(by_member.eval(q, member_cur), want, q);
  }
  for (const gmfnet::Time b : boundary_probes(lvl.members)) {
    expect_equal(by_class.eval(b, class_cur), naive_sums(lvl.members, b), b);
  }
}

TEST(Envelope, MultiplicityIsPartOfTheFingerprint) {
  Rng rng(99);
  Level lvl = random_level(rng, 3);
  LevelEnvelope env;
  EXPECT_FALSE(env.ensure(lvl.specs.data(), lvl.specs.size()));
  EXPECT_TRUE(env.ensure(lvl.specs.data(), lvl.specs.size()));
  EvalCursor cur;
  const gmfnet::Time t = gmfnet::Time::ms(11);
  const EnvelopeSums once = env.eval(t, cur);

  // Same curves and shifts, one class grown by two members: the build must
  // miss and the sum must grow by exactly two of that curve's terms.
  lvl.specs[1].mult = 3;
  EXPECT_FALSE(env.ensure(lvl.specs.data(), lvl.specs.size()));
  const EnvelopeSums grown = env.eval(t, cur);
  const gmfnet::Time at = t + lvl.specs[1].shift;
  EXPECT_EQ(grown.cost, once.cost + 2 * lvl.specs[1].curve->mx(at).ps());
  EXPECT_EQ(grown.count, once.count + 2 * lvl.specs[1].curve->nx(at));
}

TEST(Envelope, RebuildOnChangedShiftResetsCursor) {
  Rng rng(42);
  Level lvl = random_level(rng, 4);
  LevelEnvelope env;
  env.ensure(lvl.specs.data(), lvl.specs.size());
  EvalCursor cur;
  const gmfnet::Time t1 = gmfnet::Time::ms(7);
  expect_equal(env.eval(t1, cur), naive_sums(lvl, t1), t1);

  // New jitter generation: shifts change, fingerprint must miss and the
  // stale cursor must not leak positions into the new build.
  for (EnvelopeSpec& s : lvl.specs) s.shift += gmfnet::Time::us(123);
  EXPECT_FALSE(env.ensure(lvl.specs.data(), lvl.specs.size()));
  const gmfnet::Time t2 = gmfnet::Time::us(3);  // behind the old cursor
  expect_equal(env.eval(t2, cur), naive_sums(lvl, t2), t2);
}

TEST(Envelope, SharedCursorAcrossChainsStaysExact) {
  // The per-hop analyses share one cursor between the busy-period chain and
  // every w(q) chain: chains restart below the previous chain's fixed
  // point, so the cursor must re-anchor and still be exact afterwards.
  Rng rng(7);
  const Level lvl = random_level(rng, 5);
  LevelEnvelope env;
  env.ensure(lvl.specs.data(), lvl.specs.size());
  EvalCursor cur;

  for (int chain = 0; chain < 8; ++chain) {
    gmfnet::Time t(chain * 3'000'000'000LL);  // seeds grow chain over chain
    for (int it = 0; it < 40; ++it) {
      expect_equal(env.eval(t, cur), naive_sums(lvl, t), t);
      t += gmfnet::Time(rng.uniform_i64(0, 2'000'000'000));
    }
  }
}

TEST(Envelope, EmptyLevelIsZero) {
  LevelEnvelope env;
  env.ensure(nullptr, 0);
  EvalCursor cur;
  const EnvelopeSums s = env.eval(gmfnet::Time::ms(5), cur);
  EXPECT_EQ(s.cost, 0);
  EXPECT_EQ(s.count, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopeProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace gmfnet::gmf
