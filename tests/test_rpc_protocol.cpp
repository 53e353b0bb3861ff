// Wire-protocol contracts (mirroring tests/test_checkpoint.cpp's
// robustness suite for the on-disk format):
//
//  * Round trip: decode(encode(msg)) reproduces every request/response
//    type byte for byte (verified by re-encoding the decoded message).
//
//  * Robustness: every-prefix truncation and every-5th-byte corruption of
//    encoded frames, oversized and zero body lengths, unknown message
//    types, forward-incompatible versions, bad magic and trailing bytes
//    are all rejected with rpc::ProtocolError — never UB, never a
//    silently different message.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/holistic.hpp"
#include "net/topology.hpp"
#include "rpc/protocol.hpp"
#include "workload/scenario.hpp"

namespace gmfnet::rpc {
namespace {

constexpr ethernet::LinkSpeedBps kSpeed = 100'000'000;

/// A small solved world so response messages carry real HolisticResults
/// (multi-frame flows, populated jitter maps) instead of toy zeros.
struct World {
  net::StarNetwork topo = net::make_star_network(6, kSpeed);
  std::vector<gmf::Flow> flows;
  core::HolisticResult result;

  World() {
    for (int n = 0; n < 4; ++n) {
      flows.push_back(workload::make_voip_flow(
          "c" + std::to_string(n),
          net::Route({topo.hosts[static_cast<std::size_t>(n)], topo.sw,
                      topo.hosts[static_cast<std::size_t>(n + 1)]})));
    }
    const core::AnalysisContext ctx(topo.net, flows);
    result = core::analyze_holistic(ctx);
    EXPECT_TRUE(result.converged);
  }
};

World& world() {
  static World w;
  return w;
}

std::vector<std::string> representative_request_frames() {
  World& w = world();
  return {
      encode_request(AdmitRequest{w.flows[0]}),
      encode_request(RemoveRequest{3}),
      encode_request(WhatIfBatchRequest{w.flows}),
      encode_request(WhatIfBatchRequest{w.flows, /*verdict_only=*/true}),
      encode_request(StatsRequest{}),
      encode_request(SaveCheckpointRequest{}),
      encode_request(RestoreRequest{"pretend checkpoint bytes"}),
      encode_request(ShutdownRequest{}),
      encode_request(SubscribeRequest{7, 1234, 0x5EEDBEEF}),
      encode_request(SubscribeRequest{0, 0, 0}),  // brand-new replica
      encode_request(PromoteRequest{}),
      encode_request(RoleRequest{}),
      encode_request(RepointRequest{"unix:/tmp/primary.sock"}),
      encode_request(AdmitBatchRequest{w.flows}),
      encode_request(AdmitBatchRequest{{}}),  // degenerate empty batch
  };
}

std::vector<std::string> representative_response_frames() {
  World& w = world();
  engine::WhatIfResult wi = engine::WhatIfResult::from_full(true, w.result);
  engine::EngineStats stats;
  stats.evaluations = 7;
  stats.incremental_runs = 5;
  stats.sweeps = 21;
  stats.accel_accepted = 4;
  stats.accel_rejected = 1;
  StatsResponse sr;
  sr.stats = stats;
  sr.flows = 4;
  sr.shards = 2;
  sr.role = Role::kReplica;
  sr.epoch = 3;
  sr.commit_seq = 99;
  sr.uptime_ms = 123'456;
  sr.solver_mode = 1;
  DeltaResponse admit_delta;
  admit_delta.kind = DeltaKind::kAdmit;
  admit_delta.epoch = 2;
  admit_delta.seq = 17;
  admit_delta.flows_after = 5;
  admit_delta.flow = w.flows[1];
  DeltaResponse remove_delta;
  remove_delta.kind = DeltaKind::kRemove;
  remove_delta.epoch = 2;
  remove_delta.seq = 18;
  remove_delta.flows_after = 4;
  remove_delta.index = 3;
  DeltaResponse restore_delta;
  restore_delta.kind = DeltaKind::kRestore;
  restore_delta.epoch = 2;
  restore_delta.seq = 19;
  restore_delta.flows_after = 0;
  restore_delta.checkpoint = std::string("ckpt \x00\x01 blob", 12);
  DeltaResponse batch_delta;
  batch_delta.kind = DeltaKind::kBatch;
  batch_delta.epoch = 2;
  batch_delta.seq = 20;
  batch_delta.flows_after = 5;
  batch_delta.ops.push_back(DeltaOp{DeltaKind::kAdmit, w.flows[0], 0});
  batch_delta.ops.push_back(DeltaOp{DeltaKind::kRemove, gmf::Flow{}, 2});
  batch_delta.ops.push_back(DeltaOp{DeltaKind::kAdmit, w.flows[2], 0});
  RoleResponse role;
  role.role = Role::kReplica;
  role.fenced = false;
  role.epoch = 2;
  role.commit_seq = 19;
  role.primary_addr = "127.0.0.1:7447";
  role.connected = true;
  role.full_syncs = 1;
  role.deltas_applied = 18;
  return {
      encode_response(AdmitResponse{w.result}),
      encode_response(AdmitResponse{std::nullopt}),
      encode_response(RemoveResponse{true}),
      encode_response(WhatIfBatchResponse{{wi, wi}}),
      // Lean and detailed results side by side in one batch.
      encode_response(WhatIfBatchResponse{
          {engine::WhatIfResult::verdict_only(true, true, 6, 5), wi,
           engine::WhatIfResult::verdict_only(false, false, 31, 9)}}),
      encode_response(sr),
      encode_response(
          SaveCheckpointResponse{std::string("blobby \x00\x01\x7f", 10)}),
      encode_response(RestoreResponse{42}),
      encode_response(ShutdownResponse{}),
      encode_response(SubscribeResponse{5, 101}),
      encode_response(SyncFullResponse{
          5, 100, 0xFEEDF00D, std::string("full sync \x00 bytes", 16)}),
      encode_response(admit_delta),
      encode_response(remove_delta),
      encode_response(restore_delta),
      encode_response(batch_delta),
      encode_response(PromoteResponse{6}),
      encode_response(role),
      encode_response(NotPrimaryResponse{"unix:/tmp/primary.sock", 5}),
      encode_response(ErrorResponse{"flow validation failed"}),
      encode_response(AdmitBatchResponse{{1, 0, 1, 1}, 7}),
      encode_response(AdmitBatchResponse{{}, 0}),
  };
}

// ------------------------------------------------------------ round trip --

TEST(RpcProtocol, RequestsRoundTripBitIdentically) {
  for (const std::string& frame : representative_request_frames()) {
    const Request decoded = decode_request(frame);
    EXPECT_EQ(encode_request(decoded), frame);
  }
}

TEST(RpcProtocol, ResponsesRoundTripBitIdentically) {
  for (const std::string& frame : representative_response_frames()) {
    const Response decoded = decode_response(frame);
    EXPECT_EQ(encode_response(decoded), frame);
  }
}

TEST(RpcProtocol, StatsResponseCarriesSolverModeAndAccelCounters) {
  // Frozen wire fields of a removed solver strategy: servers always send 0,
  // but the STATS layout keeps them, so the codec must still round-trip
  // every value.
  engine::EngineStats stats;
  stats.sweeps = 33;
  stats.accel_accepted = 6;
  stats.accel_rejected = 2;
  StatsResponse sr;
  sr.stats = stats;
  sr.solver_mode = 1;
  const Response decoded = decode_response(encode_response(sr));
  const auto& got = std::get<StatsResponse>(decoded);
  EXPECT_EQ(got.solver_mode, 1u);
  EXPECT_EQ(got.stats.sweeps, 33u);
  EXPECT_EQ(got.stats.accel_accepted, 6u);
  EXPECT_EQ(got.stats.accel_rejected, 2u);
}

TEST(RpcProtocol, VerdictOnlyWhatIfCarriesSummaryButNoPayload) {
  const engine::WhatIfResult lean =
      engine::WhatIfResult::verdict_only(true, false, 17, 42);
  const Response decoded =
      decode_response(encode_response(WhatIfBatchResponse{{lean}}));
  const auto& batch = std::get<WhatIfBatchResponse>(decoded);
  ASSERT_EQ(batch.results.size(), 1u);
  const engine::WhatIfResult& got = batch.results[0];
  EXPECT_TRUE(got.admissible);
  EXPECT_FALSE(got.converged());
  EXPECT_EQ(got.sweeps(), 17);
  EXPECT_EQ(got.flow_count(), 42u);
  EXPECT_FALSE(got.detailed());
  EXPECT_THROW((void)got.result(), std::logic_error);
  EXPECT_THROW((void)got.flow_result(net::FlowId(0)), std::logic_error);
}

TEST(RpcProtocol, WhatIfBatchRequestPreservesVerdictOnlyFlag) {
  for (const bool flag : {false, true}) {
    const Request decoded = decode_request(
        encode_request(WhatIfBatchRequest{world().flows, flag}));
    ASSERT_TRUE(std::holds_alternative<WhatIfBatchRequest>(decoded));
    EXPECT_EQ(std::get<WhatIfBatchRequest>(decoded).verdict_only, flag);
  }
}

TEST(RpcProtocol, AdmitRequestPreservesFlowExactly) {
  const gmf::Flow& original = world().flows[2];
  const Request decoded = decode_request(encode_request(AdmitRequest{original}));
  ASSERT_TRUE(std::holds_alternative<AdmitRequest>(decoded));
  EXPECT_EQ(std::get<AdmitRequest>(decoded).flow, original);
}

TEST(RpcProtocol, RequestAndResponseDecodersRejectEachOthersFrames) {
  for (const std::string& frame : representative_request_frames()) {
    EXPECT_THROW((void)decode_response(frame), ProtocolError);
  }
  for (const std::string& frame : representative_response_frames()) {
    EXPECT_THROW((void)decode_request(frame), ProtocolError);
  }
}

// ------------------------------------------------------------ robustness --

TEST(RpcProtocol, TruncationAtEveryPrefixRejected) {
  for (const std::string& frame : representative_request_frames()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_THROW((void)decode_request(frame.substr(0, len)), ProtocolError)
          << "prefix length " << len;
    }
  }
  for (const std::string& frame : representative_response_frames()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_THROW((void)decode_response(frame.substr(0, len)), ProtocolError)
          << "prefix length " << len;
    }
  }
}

TEST(RpcProtocol, CorruptionOfEveryFifthByteRejected) {
  // The body is checksummed and every header field is validated, so ANY
  // single corrupted byte must surface as ProtocolError.
  for (const std::string& frame : representative_request_frames()) {
    for (std::size_t i = 0; i < frame.size(); i += 5) {
      std::string bad = frame;
      bad[i] = static_cast<char>(bad[i] ^ 0x4D);
      EXPECT_THROW((void)decode_request(bad), ProtocolError)
          << "flipped byte " << i;
    }
  }
  for (const std::string& frame : representative_response_frames()) {
    for (std::size_t i = 0; i < frame.size(); i += 5) {
      std::string bad = frame;
      bad[i] = static_cast<char>(bad[i] ^ 0x4D);
      EXPECT_THROW((void)decode_response(bad), ProtocolError)
          << "flipped byte " << i;
    }
  }
}

/// Patches a little-endian u64 at `off`.
void patch_u64(std::string& frame, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    frame[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

TEST(RpcProtocol, OversizedBodyLengthRejected) {
  std::string bad = encode_request(RemoveRequest{1});
  patch_u64(bad, kBodyLenOffset, kMaxBodyLen + 1);
  try {
    (void)decode_request(bad);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("oversized"), std::string::npos);
  }
  // The bound must hold even for a header-only prefix — a stream reader
  // validates it before allocating or reading the body.
  EXPECT_THROW((void)decode_frame_header(
                   std::string_view(bad).substr(0, kHeaderSize)),
               ProtocolError);
}

TEST(RpcProtocol, ZeroLengthBodyRejected) {
  std::string bad = encode_request(StatsRequest{});
  bad.resize(kHeaderSize);  // drop the (reserved-byte) body entirely
  patch_u64(bad, kBodyLenOffset, 0);
  try {
    (void)decode_request(bad);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("zero-length"), std::string::npos);
  }
}

TEST(RpcProtocol, UnknownMessageTypeRejected) {
  // 13/115 are the first unassigned values after the batch-admission
  // messages (requests end at ADMIT_BATCH=12, responses at
  // ADMIT_BATCH=114).
  for (const std::uint32_t type :
       {0u, 13u, 100u, 115u, 199u, 201u, 0xDEADu}) {
    std::string bad = encode_request(StatsRequest{});
    for (int i = 0; i < 4; ++i) {
      bad[kTypeOffset + static_cast<std::size_t>(i)] =
          static_cast<char>((type >> (8 * i)) & 0xFF);
    }
    try {
      (void)decode_request(bad);
      FAIL() << "expected ProtocolError for type " << type;
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown message type"),
                std::string::npos);
    }
  }
}

TEST(RpcProtocol, InvalidEnumValuesInWellFramedBodiesRejected) {
  // A frame can be perfectly checksummed and still carry nonsense enum
  // values (a buggy or hostile peer); strict decode must reject them.
  StatsResponse sr;
  sr.role = static_cast<Role>(9);
  EXPECT_THROW((void)decode_response(encode_response(sr)), ProtocolError);

  DeltaResponse d;
  d.kind = static_cast<DeltaKind>(0);
  EXPECT_THROW((void)decode_response(encode_response(d)), ProtocolError);
  d.kind = static_cast<DeltaKind>(77);
  EXPECT_THROW((void)decode_response(encode_response(d)), ProtocolError);
}

TEST(RpcProtocol, ForwardIncompatibleVersionRejected) {
  std::string bad = encode_request(StatsRequest{});
  bad[kVersionOffset] = static_cast<char>(kVersion + 1);
  try {
    (void)decode_request(bad);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(RpcProtocol, BadMagicRejected) {
  std::string bad = encode_request(StatsRequest{});
  bad[0] = 'X';
  try {
    (void)decode_request(bad);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(RpcProtocol, TrailingBytesRejected) {
  EXPECT_THROW((void)decode_request(encode_request(StatsRequest{}) + "x"),
               ProtocolError);
  EXPECT_THROW(
      (void)decode_response(encode_response(RestoreResponse{1}) + "extra"),
      ProtocolError);
}

TEST(RpcProtocol, EmptyAndGarbageBuffersRejected) {
  EXPECT_THROW((void)decode_request(""), ProtocolError);
  EXPECT_THROW((void)decode_request("not an rpc frame, not even close...."),
               ProtocolError);
  EXPECT_THROW((void)decode_response(std::string(kHeaderSize, '\0')),
               ProtocolError);
}

}  // namespace
}  // namespace gmfnet::rpc
