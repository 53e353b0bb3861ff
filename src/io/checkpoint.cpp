// Checkpoint container (see checkpoint.hpp for the layout) and the
// AnalysisEngine::save / AnalysisEngine::restore entry points declared in
// engine/analysis_engine.hpp.  The engine members are defined here so the
// whole persisted-state walk lives in one translation unit; the byte
// primitives live in io/wire.hpp and the field codecs in io/codec.hpp,
// shared with the operator RPC protocol (rpc/protocol).
#include "io/checkpoint.hpp"

#include <cstring>
#include <istream>
#include <memory>
#include <sstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/holistic.hpp"
#include "engine/analysis_engine.hpp"
#include "gmf/flow.hpp"
#include "io/codec.hpp"
#include "net/network.hpp"

namespace gmfnet::io {
namespace {

// Section ids, in stream order.
constexpr std::uint32_t kSecEngine = 1;
constexpr std::uint32_t kSecNetwork = 2;
constexpr std::uint32_t kSecFlows = 3;
constexpr std::uint32_t kSecShards = 4;

void write_section(ByteWriter& payload, std::uint32_t id,
                   const ByteWriter& body) {
  payload.u32(id);
  payload.u64(body.bytes().size());
  payload.raw(body.bytes());
}

ByteReader read_section(ByteReader& payload, std::uint32_t expect,
                        const char* what) {
  const std::uint32_t id = payload.u32();
  if (id != expect) {
    throw CheckpointError(std::string("unexpected section while reading ") +
                          what);
  }
  const std::uint64_t len = payload.u64();
  if (len > payload.remaining()) {
    throw CheckpointError(std::string("section length overruns stream (") +
                          what + ")");
  }
  return payload.sub(static_cast<std::size_t>(len), what);
}

}  // namespace
}  // namespace gmfnet::io

// ------------------------------------------- engine save / restore entry --

namespace gmfnet::engine {

using io::CheckpointError;

void AnalysisEngine::save(std::ostream& os) {
  // Checkpoint the converged world: every shard gets a cache and the
  // restored engine can publish without solving.
  (void)snapshot();

  io::ByteWriter engine_sec;
  // Engine mode byte: always 1, one shard per link-sharing component.
  // Streams written by the removed single-domain mode carry 0 and are
  // rejected on restore.
  engine_sec.u8(1);
  engine_sec.u64(locs_.size());
  engine_sec.u64(shards_.size());
  // Analysis-option fingerprint: every field the persisted fixed points
  // depend on.  (The envelope fast path does not change results — see
  // core/hop_result.hpp — so it is free to differ across save/restore.)
  engine_sec.time(opts_.hop.horizon);
  engine_sec.u8(opts_.hop.charge_self_circ ? 1 : 0);
  engine_sec.i32(opts_.max_sweeps);
  // Solver byte (version 2): always 0, the plain sweep.  Streams written
  // under the removed accelerated strategy carry nonzero values and are
  // rejected on restore.
  engine_sec.u8(0);

  io::ByteWriter network_sec;
  io::codec::encode_network(network_sec, network());

  io::ByteWriter flows_sec;
  for (std::size_t i = 0; i < locs_.size(); ++i) {
    io::codec::encode_flow(flows_sec, flow(i));
  }

  io::ByteWriter shards_sec;
  for (const Shard& s : shards_) {
    shards_sec.u64(s.to_global.size());
    for (const net::FlowId g : s.to_global) shards_sec.i32(g.v);
    shards_sec.u8(s.cache ? 1 : 0);
    if (s.cache) io::codec::encode_holistic_result(shards_sec, *s.cache);
  }

  io::ByteWriter payload;
  io::write_section(payload, io::kSecEngine, engine_sec);
  io::write_section(payload, io::kSecNetwork, network_sec);
  io::write_section(payload, io::kSecFlows, flows_sec);
  io::write_section(payload, io::kSecShards, shards_sec);

  io::ByteWriter header;
  header.raw(std::string(io::ckpt::kMagic, sizeof io::ckpt::kMagic));
  header.u32(io::ckpt::kVersion);
  header.u64(payload.bytes().size());
  header.u64(io::fnv1a(payload.bytes()));

  os.write(header.bytes().data(),
           static_cast<std::streamsize>(header.bytes().size()));
  os.write(payload.bytes().data(),
           static_cast<std::streamsize>(payload.bytes().size()));
  if (!os) throw std::runtime_error("checkpoint: stream write failed");
}

AnalysisEngine::RestoredState AnalysisEngine::parse_checkpoint(
    std::istream& is, const core::HolisticOptions& opts) {
  // Block-copy the stream (istreambuf_iterator would walk it char by char —
  // measurably slow for warm boot, where the whole point is restart speed).
  std::string buf;
  {
    std::ostringstream ss;
    ss << is.rdbuf();
    buf = std::move(ss).str();
  }
  if (buf.size() < io::ckpt::kHeaderSize) {
    throw CheckpointError("truncated stream (header)");
  }
  if (std::memcmp(buf.data(), io::ckpt::kMagic, sizeof io::ckpt::kMagic) !=
      0) {
    throw CheckpointError("bad magic — not a gmfnet checkpoint");
  }
  io::ByteReader header(buf.data() + sizeof io::ckpt::kMagic,
                        io::ckpt::kHeaderSize - sizeof io::ckpt::kMagic,
                        "header");
  const std::uint32_t version = header.u32();
  if (version != io::ckpt::kVersion) {
    throw CheckpointError(
        "unsupported format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(io::ckpt::kVersion) +
        ")");
  }
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
  if (payload_len != buf.size() - io::ckpt::kHeaderSize) {
    throw CheckpointError(
        payload_len > buf.size() - io::ckpt::kHeaderSize
            ? "truncated stream (payload shorter than declared)"
            : "trailing bytes after payload");
  }
  // Checksum and parse in place — no second copy of the payload on the
  // restart hot path.
  const char* payload_data = buf.data() + io::ckpt::kHeaderSize;
  const std::size_t payload_size = buf.size() - io::ckpt::kHeaderSize;
  if (io::fnv1a(std::string_view(payload_data, payload_size)) != checksum) {
    throw CheckpointError("corrupted stream (checksum mismatch)");
  }

  io::ByteReader payload(payload_data, payload_size, "payload");
  RestoredState st;
  try {
    io::ByteReader engine_sec =
        io::read_section(payload, io::kSecEngine, "engine section");
    const std::uint8_t mode_byte = engine_sec.u8();
    const std::size_t flow_count = engine_sec.u64();
    const std::size_t shard_count = engine_sec.u64();
    const gmfnet::Time horizon = engine_sec.time();
    const bool charge_self_circ = engine_sec.u8() != 0;
    const std::int32_t max_sweeps = engine_sec.i32();
    const std::uint8_t solver_byte = engine_sec.u8();
    if (horizon != opts.hop.horizon ||
        charge_self_circ != opts.hop.charge_self_circ ||
        max_sweeps != opts.max_sweeps) {
      throw CheckpointError(
          "analysis options mismatch: the checkpoint's fixed points were "
          "solved under different hop.horizon / hop.charge_self_circ / "
          "max_sweeps — restore with the options the checkpoint was saved "
          "with");
    }
    if (mode_byte != 1) {
      throw CheckpointError(
          "engine mode byte " + std::to_string(mode_byte) +
          ": restore reads only 1 (one shard per link-sharing component); "
          "0 marks a stream of the removed single-domain engine mode — "
          "re-solve the world from its scenario");
    }
    if (solver_byte != 0) {
      throw CheckpointError(
          "solver byte " + std::to_string(solver_byte) +
          ": the checkpoint was saved under the removed Anderson solver "
          "strategy — re-solve the world from its scenario");
    }
    if (!engine_sec.done()) {
      throw CheckpointError("engine section has trailing bytes");
    }

    io::ByteReader network_sec =
        io::read_section(payload, io::kSecNetwork, "network section");
    st.network = io::codec::decode_network(network_sec);
    if (!network_sec.done()) {
      throw CheckpointError("network section has trailing bytes");
    }

    io::ByteReader flows_sec =
        io::read_section(payload, io::kSecFlows, "flows section");
    for (std::size_t i = 0; i < flow_count; ++i) {
      st.flows.push_back(io::codec::decode_flow(flows_sec));
    }
    if (!flows_sec.done()) {
      throw CheckpointError("flows section has trailing bytes");
    }

    io::ByteReader shards_sec =
        io::read_section(payload, io::kSecShards, "shards section");
    for (std::size_t s = 0; s < shard_count; ++s) {
      RestoredShard shard;
      const std::size_t locals = shards_sec.count(4);
      shard.to_global.reserve(locals);
      for (std::size_t l = 0; l < locals; ++l) {
        shard.to_global.emplace_back(shards_sec.i32());
      }
      if (shards_sec.u8() == 0) {
        throw CheckpointError("shard " + std::to_string(s) +
                              " carries no converged state");
      }
      shard.cache = io::codec::decode_holistic_result(shards_sec);
      st.shards.push_back(std::move(shard));
    }
    if (!shards_sec.done()) {
      throw CheckpointError("shards section has trailing bytes");
    }
    if (!payload.done()) {
      throw CheckpointError("trailing bytes after the last section");
    }
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // Truncation/enum failures from the shared codecs (WireError) and
    // structural/semantic validation failures from net/gmf/core builders.
    throw CheckpointError(std::string("invalid checkpoint data: ") +
                          e.what());
  }
  return st;
}

// The construct-and-rewrap block appears once per entry point because the
// engine is neither copyable nor movable: each must construct its own
// return object in place.  Keep the catch clauses identical so the two
// error contracts cannot drift.
AnalysisEngine AnalysisEngine::restore(std::istream& is,
                                       core::HolisticOptions opts) {
  RestoredState st = parse_checkpoint(is, opts);
  try {
    return AnalysisEngine(std::move(st), opts);
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    throw CheckpointError(std::string("checkpoint failed validation: ") +
                          e.what());
  }
}

std::unique_ptr<AnalysisEngine> AnalysisEngine::restore_unique(
    std::istream& is, core::HolisticOptions opts) {
  RestoredState st = parse_checkpoint(is, opts);
  try {
    return std::unique_ptr<AnalysisEngine>(
        new AnalysisEngine(std::move(st), opts));
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    throw CheckpointError(std::string("checkpoint failed validation: ") +
                          e.what());
  }
}

AnalysisEngine::AnalysisEngine(RestoredState&& st, core::HolisticOptions opts)
    : empty_ctx_(std::make_shared<const core::AnalysisContext>(
          std::move(st.network))),
      opts_(opts) {
  // Rebuild every shard's context directly from the persisted partition:
  // adding the shard's flows in local order reproduces the exact per-link
  // flow order (locals are kept ascending in global id, the one-context
  // engine's order), so the recomputed derived state and floating-point
  // aggregates are bit-identical to the saving engine's.
  locs_.assign(st.flows.size(), FlowLoc{});
  std::vector<bool> seen(st.flows.size(), false);
  shards_.reserve(st.shards.size());
  for (std::size_t si = 0; si < st.shards.size(); ++si) {
    RestoredShard& rs = st.shards[si];
    Shard s;
    core::AnalysisContext ctx = core::AnalysisContext::empty_clone(*empty_ctx_);
    net::FlowId prev(-1);
    std::vector<gmf::Flow> shard_flows;
    shard_flows.reserve(rs.to_global.size());
    for (const net::FlowId g : rs.to_global) {
      const auto gi = static_cast<std::size_t>(g.v);
      if (g.v < 0 || gi >= st.flows.size()) {
        throw std::logic_error("shard references an out-of-range flow id");
      }
      if (seen[gi]) {
        throw std::logic_error("flow assigned to more than one shard");
      }
      if (g <= prev) {
        throw std::logic_error("shard-local flow order is not ascending");
      }
      seen[gi] = true;
      prev = g;
      shard_flows.push_back(st.flows[gi]);
    }
    // Bulk append: validates every flow against the network and recomputes
    // each link's aggregates once (warm boot must not pay the sequential
    // path's quadratic per-link recompute).
    ctx.add_flows(std::move(shard_flows));
    if (rs.cache.flows.size() != rs.to_global.size()) {
      throw std::logic_error("shard cache is not parallel to its flow set");
    }
    s.ctx = std::make_shared<const core::AnalysisContext>(std::move(ctx));
    s.cache =
        std::make_shared<const core::HolisticResult>(std::move(rs.cache));
    s.to_global = std::move(rs.to_global);
    shards_.push_back(std::move(s));
  }
  for (std::size_t f = 0; f < seen.size(); ++f) {
    if (!seen[f]) {
      throw std::logic_error("flow " + std::to_string(f) +
                             " belongs to no shard");
    }
  }

  // Index the partition, rejecting links claimed by two shards (the
  // locality-domain invariant every later mutation leans on).
  link_shard_.assign(network().link_count(), kNoShard);
  for (std::uint32_t si = 0; si < shards_.size(); ++si) {
    const Shard& s = shards_[si];
    for (std::uint32_t l = 0; l < s.to_global.size(); ++l) {
      locs_[static_cast<std::size_t>(s.to_global[l].v)] = FlowLoc{si, l};
    }
    s.ctx->for_each_used_link([&](net::LinkId l) {
      if (link_shard_[l] != kNoShard) {
        throw std::logic_error("link owned by two shards");
      }
      link_shard_[l] = si;
    });
  }

  // Publish the restored world.  Every shard holds a persisted cache, so
  // this publishes without a single solver run — warm boot.
  publish();
}

}  // namespace gmfnet::engine
