// Checkpoint/restore contracts:
//
//  * Round trip: restore(save(engine)) reproduces the engine bit for bit —
//    same flows, same shard partition, same assembled HolisticResult and
//    fixed-point jitters, same snapshot what-if answers — over randomized
//    multi-domain scenarios with adds and removals (the engine-equivalence
//    harness), and with ZERO solver runs on the restored engine until its
//    first post-restore mutation.
//
//  * Robustness: truncated streams, bit-flipped bytes, bad magic and
//    forward-incompatible version fields are all rejected with
//    io::CheckpointError — never UB, never a silently wrong engine.
//
//  * Restore-then-mutate: a restored engine evolves exactly like the
//    engine it was saved from (and like a from-scratch solve).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/priority.hpp"
#include "engine/analysis_engine.hpp"
#include "io/checkpoint.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/taskset_gen.hpp"

namespace gmfnet::engine {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;

core::HolisticResult from_scratch(const net::Network& net,
                                  const std::vector<gmf::Flow>& flows) {
  const core::AnalysisContext ctx(net, flows);
  return core::analyze_holistic(ctx);
}

void expect_bit_identical(const core::HolisticResult& a,
                          const core::HolisticResult& b,
                          const std::string& where) {
  ASSERT_EQ(a.converged, b.converged) << where;
  ASSERT_EQ(a.schedulable, b.schedulable) << where;
  if (!a.converged) return;
  EXPECT_TRUE(a.jitters == b.jitters) << where << ": jitter maps differ";
  ASSERT_EQ(a.flows.size(), b.flows.size()) << where;
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    const core::FlowId id(static_cast<std::int32_t>(f));
    EXPECT_EQ(a.worst_response(id), b.worst_response(id))
        << where << ": flow " << f;
    ASSERT_EQ(a.flows[f].frames.size(), b.flows[f].frames.size()) << where;
    for (std::size_t k = 0; k < a.flows[f].frames.size(); ++k) {
      EXPECT_EQ(a.flows[f].frames[k].response, b.flows[f].frames[k].response)
          << where << ": flow " << f << " frame " << k;
      EXPECT_EQ(a.flows[f].frames[k].meets_deadline,
                b.flows[f].frames[k].meets_deadline)
          << where << ": flow " << f << " frame " << k;
    }
  }
}

std::string checkpoint_of(AnalysisEngine& eng) {
  std::ostringstream os;
  eng.save(os);
  return os.str();
}

AnalysisEngine restore_from(const std::string& blob,
                            core::HolisticOptions opts = {}) {
  std::istringstream is(blob);
  return AnalysisEngine::restore(is, opts);
}

/// Multi-cell star campus (several locality domains by construction).
struct Campus {
  net::Network net;
  std::vector<net::NodeId> hosts;  // cell-major
  std::vector<net::NodeId> switches;
};

Campus make_campus(int cells, int hosts_per_cell) {
  Campus c;
  for (int cell = 0; cell < cells; ++cell) {
    const net::NodeId sw = c.net.add_switch("sw" + std::to_string(cell));
    c.switches.push_back(sw);
    for (int h = 0; h < hosts_per_cell; ++h) {
      const net::NodeId host = c.net.add_endhost(
          "c" + std::to_string(cell) + "h" + std::to_string(h));
      c.net.add_duplex_link(host, sw, kSpeed);
      c.hosts.push_back(host);
    }
  }
  return c;
}

class CheckpointRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointRoundTrip, RandomMultiDomainScenarios) {
  const std::uint64_t seed = GetParam();
  Rng rng(0xc8ec9f0117ull + seed * 0x9E3779B9ull);

  const int cells = 2 + static_cast<int>(seed % 3);
  const Campus campus = make_campus(cells, 4);

  workload::TasksetParams params;
  params.num_flows = 4 + static_cast<int>(rng.next_below(6));
  params.total_utilization = rng.uniform(0.15, 0.5);
  params.deadline_factor_lo = 2.0;
  params.deadline_factor_hi = 4.0;
  auto ts = workload::generate_taskset(campus.net, campus.hosts, params, rng);
  ASSERT_TRUE(ts.has_value());
  core::assign_priorities(ts->flows, core::PriorityScheme::kDeadlineMonotonic);

  AnalysisEngine eng(campus.net);
  std::vector<gmf::Flow> mirror;
  for (const gmf::Flow& f : ts->flows) {
    eng.add_flow(f);
    mirror.push_back(f);
  }
  // A couple of removals so caches have lived through id shifts and splits.
  const std::size_t removals = rng.next_below(3);
  for (std::size_t r = 0; r < removals && mirror.size() > 2; ++r) {
    const auto idx = static_cast<std::size_t>(rng.next_below(mirror.size()));
    ASSERT_TRUE(eng.remove_flow(idx));
    mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  const core::HolisticResult before = eng.evaluate();  // copy

  const std::string blob = checkpoint_of(eng);
  AnalysisEngine restored = restore_from(blob);

  // Restore ran no solver: not on restore, not on the first evaluate.
  EXPECT_EQ(restored.stats().evaluations, 0u);
  const core::HolisticResult& after = restored.evaluate();
  EXPECT_EQ(restored.stats().evaluations, 0u);

  // The world is the same, bit for bit.
  const std::string where = "seed " + std::to_string(seed);
  expect_bit_identical(after, before, where);
  expect_bit_identical(after, from_scratch(campus.net, mirror),
                       where + " vs cold truth");
  ASSERT_EQ(restored.flow_count(), eng.flow_count());
  for (std::size_t f = 0; f < mirror.size(); ++f) {
    EXPECT_EQ(restored.flow(f), mirror[f]) << where << ": flow " << f;
  }
  ASSERT_EQ(restored.shard_count(), eng.shard_count()) << where;
  for (std::size_t a = 0; a < mirror.size(); ++a) {
    for (std::size_t b = a + 1; b < mirror.size(); ++b) {
      EXPECT_EQ(restored.shard_of(a) == restored.shard_of(b),
                eng.shard_of(a) == eng.shard_of(b))
          << where << ": flows " << a << "," << b;
    }
  }

  // Lock-free probes off the restored snapshot: identical to the live
  // engine's and to cold truth, and still zero engine solver runs.
  const gmf::Flow cand = ts->flows.front();
  const WhatIfResult live_probe = eng.published()->what_if(cand);
  const WhatIfResult restored_probe = restored.published()->what_if(cand);
  EXPECT_EQ(restored_probe.admissible, live_probe.admissible) << where;
  expect_bit_identical(restored_probe.result(), live_probe.result(),
                       where + " probe vs live");
  std::vector<gmf::Flow> with = mirror;
  with.push_back(cand);
  expect_bit_identical(restored_probe.result(), from_scratch(campus.net, with),
                       where + " probe vs cold truth");
  EXPECT_EQ(restored.stats().evaluations, 0u);

  // Restore-then-mutate: both engines evolve identically from here.
  eng.add_flow(cand);
  restored.add_flow(cand);
  expect_bit_identical(restored.evaluate(), eng.evaluate(),
                       where + " after mutate");
  expect_bit_identical(restored.evaluate(), from_scratch(campus.net, with),
                       where + " after mutate vs cold truth");
  EXPECT_GT(restored.stats().evaluations, 0u);  // the mutation solved

  const auto ridx = static_cast<std::size_t>(rng.next_below(with.size()));
  ASSERT_TRUE(eng.remove_flow(ridx));
  ASSERT_TRUE(restored.remove_flow(ridx));
  with.erase(with.begin() + static_cast<std::ptrdiff_t>(ridx));
  expect_bit_identical(restored.evaluate(), eng.evaluate(),
                       where + " after remove");
  expect_bit_identical(restored.evaluate(), from_scratch(campus.net, with),
                       where + " after remove vs cold truth");
}

INSTANTIATE_TEST_SUITE_P(Scenarios, CheckpointRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(Checkpoint, SaveIsDeterministicAndStableAcrossRestore) {
  const Campus campus = make_campus(3, 4);
  AnalysisEngine eng(campus.net);
  for (int n = 0; n < 9; ++n) {
    // Rotating host pairs inside flow n's own cell.
    const auto cell = static_cast<std::size_t>(n % 3);
    const std::size_t a = cell * 4 + static_cast<std::size_t>(n % 2) * 2;
    eng.add_flow(workload::make_voip_flow(
        "c" + std::to_string(n),
        net::Route({campus.hosts[a], campus.switches[cell],
                    campus.hosts[a + 1]})));
  }
  const std::string blob1 = checkpoint_of(eng);
  const std::string blob2 = checkpoint_of(eng);
  EXPECT_EQ(blob1, blob2);

  // save(restore(blob)) is the identity on the byte stream.
  AnalysisEngine restored = restore_from(blob1);
  EXPECT_EQ(checkpoint_of(restored), blob1);
}

TEST(Checkpoint, EmptyEngineRoundTrips) {
  const auto star = net::make_star_network(4, kSpeed);
  AnalysisEngine eng(star.net);
  AnalysisEngine restored = restore_from(checkpoint_of(eng));
  EXPECT_EQ(restored.flow_count(), 0u);
  EXPECT_EQ(restored.stats().evaluations, 0u);
  // An empty restored engine still serves probes.
  const gmf::Flow cand = workload::make_voip_flow(
      "c", net::Route({star.hosts[0], star.sw, star.hosts[1]}));
  EXPECT_TRUE(restored.published()->what_if(cand).admissible);
}

// ---------------------------------------------------- malformed streams --

class CheckpointMalformed : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto star = net::make_star_network(6, kSpeed);
    AnalysisEngine eng(star.net);
    for (int n = 0; n < 4; ++n) {
      eng.add_flow(workload::make_voip_flow(
          "c" + std::to_string(n),
          net::Route({star.hosts[static_cast<std::size_t>(n)], star.sw,
                      star.hosts[static_cast<std::size_t>(n + 1)]})));
    }
    blob_ = checkpoint_of(eng);
  }

  /// Offset of the engine section's body (section framing: u32 id, u64
  /// body length, body) and the body's length.
  [[nodiscard]] std::size_t engine_body_at() const {
    return io::ckpt::kHeaderSize + 4 + 8;
  }
  [[nodiscard]] std::size_t engine_body_len() const {
    std::uint64_t len = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      len |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 blob_[io::ckpt::kHeaderSize + 4 + b]))
             << (8 * b);
    }
    return static_cast<std::size_t>(len);
  }

  /// blob_ with the byte at `at` set to `v` and the checksum fixed up, so
  /// only the engine's own validation can reject it.
  [[nodiscard]] std::string with_byte(std::size_t at, char v) const {
    std::string bad = blob_;
    bad[at] = v;
    const std::uint64_t sum =
        io::ckpt::fnv1a(std::string_view(bad).substr(io::ckpt::kHeaderSize));
    for (std::size_t b = 0; b < 8; ++b) {
      bad[io::ckpt::kChecksumOffset + b] = static_cast<char>(sum >> (8 * b));
    }
    return bad;
  }

  std::string blob_;
};

TEST_F(CheckpointMalformed, TruncationAtEveryPrefixRejected) {
  // Every strict prefix must be rejected cleanly — header cuts, section
  // cuts, mid-field cuts.  Step 7 keeps the test fast while hitting every
  // alignment class.
  for (std::size_t len = 0; len < blob_.size(); len += 7) {
    EXPECT_THROW((void)restore_from(blob_.substr(0, len)),
                 io::CheckpointError)
        << "prefix length " << len;
  }
}

TEST_F(CheckpointMalformed, EveryBitFlipRejected) {
  // The payload is checksummed and the header fields are each validated, so
  // ANY single corrupted byte must surface as CheckpointError — never a
  // silently different engine.
  for (std::size_t i = 0; i < blob_.size(); i += 5) {
    std::string bad = blob_;
    bad[i] = static_cast<char>(bad[i] ^ 0x4D);
    EXPECT_THROW((void)restore_from(bad), io::CheckpointError)
        << "flipped byte " << i;
  }
}

TEST_F(CheckpointMalformed, TrailingGarbageRejected) {
  EXPECT_THROW((void)restore_from(blob_ + "extra"), io::CheckpointError);
}

TEST_F(CheckpointMalformed, BadMagicRejected) {
  std::string bad = blob_;
  bad[0] = 'X';
  try {
    (void)restore_from(bad);
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(CheckpointMalformed, ForwardIncompatibleVersionRejected) {
  std::string bad = blob_;
  bad[io::ckpt::kVersionOffset] =
      static_cast<char>(io::ckpt::kVersion + 1);  // little-endian low byte
  try {
    (void)restore_from(bad);
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(CheckpointMalformed, EmptyAndGarbageStreamsRejected) {
  EXPECT_THROW((void)restore_from(""), io::CheckpointError);
  EXPECT_THROW((void)restore_from("not a checkpoint at all"),
               io::CheckpointError);
}

TEST_F(CheckpointMalformed, AnalysisOptionMismatchRejected) {
  core::HolisticOptions other;
  other.hop.charge_self_circ = false;
  try {
    (void)restore_from(blob_, other);
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("options"), std::string::npos);
  }

  core::HolisticOptions sweeps;
  sweeps.max_sweeps = 7;
  EXPECT_THROW((void)restore_from(blob_, sweeps), io::CheckpointError);

  // A field the fixed points do not depend on is free to differ.
  core::HolisticOptions naive;
  naive.hop.use_envelope = false;
  EXPECT_NO_THROW((void)restore_from(blob_, naive));
}

TEST_F(CheckpointMalformed, AndersonSolverByteRejected) {
  // The engine section ends with a solver byte that save always writes as
  // 0.  A nonzero byte marks a stream saved under the removed Anderson
  // solver strategy: restore must refuse it loudly, naming the solver,
  // rather than adopt fixed points the plain sweep did not produce.
  const std::size_t solver_at = engine_body_at() + engine_body_len() - 1;
  ASSERT_LT(solver_at, blob_.size());
  ASSERT_EQ(blob_[solver_at], '\0');
  try {
    (void)restore_from(with_byte(solver_at, 1));
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("solver"), std::string::npos) << what;
    EXPECT_NE(what.find("Anderson"), std::string::npos) << what;
  }
  EXPECT_NO_THROW((void)restore_from(blob_));
}

TEST_F(CheckpointMalformed, SingleDomainModeByteRejected) {
  // The engine section starts with an engine mode byte that save always
  // writes as 1 (one shard per link-sharing component).  A 0 marks a
  // stream saved under the removed single-domain mode, whose one shard may
  // hold several components: restore must refuse it, naming the mode.
  const std::size_t mode_at = engine_body_at();
  ASSERT_EQ(blob_[mode_at], '\1');
  try {
    (void)restore_from(with_byte(mode_at, 0));
    FAIL() << "expected CheckpointError";
  } catch (const io::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("single-domain"), std::string::npos) << what;
  }
  EXPECT_NO_THROW((void)restore_from(blob_));
}

}  // namespace
}  // namespace gmfnet::engine
