// Versioned binary checkpoint of a converged AnalysisEngine.
//
// A production admission controller serving a long-lived resident set
// cannot afford a cold holistic re-solve on every process restart; the
// converged per-shard fixed points are exactly the state worth keeping.
// AnalysisEngine::save writes them to a single self-describing stream and
// AnalysisEngine::restore (both declared in engine/analysis_engine.hpp,
// implemented here) rebuilds a fully warm engine from it without running
// the solver — the warm-boot analogue of replaying persisted switch state
// instead of reprogramming the ASIC from scratch.
//
// Container layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "GMFNCKPT"
//   8       4     format version (u32); readers reject versions they do
//                 not know (forward-incompatible by design)
//   12      8     payload length in bytes (u64)
//   20      8     FNV-1a 64 checksum of the payload bytes (u64)
//   28      ...   payload: a sequence of length-prefixed sections
//
// Each section is `u32 section id, u64 body length, body`; the reader
// verifies ids, lengths and overall framing, so truncated or bit-flipped
// streams are rejected with a CheckpointError instead of being
// misinterpreted.  Sections (in order): engine header (mode, counts, the
// analysis-option fingerprint), network (nodes + links), flows (global-id
// order), shards (per shard: ascending global ids + the persisted
// HolisticResult, including its fixed-point JitterMap).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "io/wire.hpp"

namespace gmfnet::io {

/// Thrown by AnalysisEngine::restore on malformed checkpoint streams:
/// truncated input, checksum mismatch, bad magic, a forward-incompatible
/// format version, an analysis-option mismatch, or data that fails
/// semantic validation.  Derives WireError: the shared byte primitives
/// (io/wire.hpp) throw plain WireError, which the restore path rewraps.
class CheckpointError : public WireError {
 public:
  explicit CheckpointError(const std::string& message)
      : WireError("checkpoint: " + message) {}
};

namespace ckpt {

/// Container constants, shared with tests that forge malformed streams.
inline constexpr char kMagic[8] = {'G', 'M', 'F', 'N', 'C', 'K', 'P', 'T'};
/// Version 2 appended a solver byte to the engine section's analysis-option
/// fingerprint (version 1 streams are rejected).  Save always writes 0 and
/// restore accepts only 0: nonzero bytes come from a removed iteration
/// strategy whose fixed points are not reproduced by the plain sweep.
inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::size_t kVersionOffset = 8;
inline constexpr std::size_t kPayloadLenOffset = 12;
inline constexpr std::size_t kChecksumOffset = 20;
inline constexpr std::size_t kHeaderSize = 28;

/// FNV-1a 64-bit over `data` — the payload checksum (the shared wire
/// checksum; kept here for the tests that forge streams).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view data) {
  return io::fnv1a(data);
}

}  // namespace ckpt

}  // namespace gmfnet::io
