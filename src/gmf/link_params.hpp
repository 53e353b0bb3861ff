// Per-(flow, link) derived parameters: transmission times C_i^k,link and the
// aggregate sums of eqs (4)-(9).
#pragma once

#include <cstdint>
#include <vector>

#include "ethernet/framing.hpp"
#include "gmf/flow.hpp"
#include "util/time.hpp"

namespace gmfnet::gmf {

/// The projection of one GMF flow onto one link: what §3.1 calls the "basic
/// parameters".  Construct once per (flow, link) and reuse; all queries are
/// O(1) or O(window).
class FlowLinkParams {
 public:
  FlowLinkParams(const Flow& flow, ethernet::LinkSpeedBps speed_bps);

  [[nodiscard]] std::size_t frame_count() const { return c_.size(); }
  [[nodiscard]] ethernet::LinkSpeedBps speed_bps() const { return speed_; }

  /// C_i^k,link: transmission time of frame k's UDP packet on this link.
  [[nodiscard]] gmfnet::Time c(std::size_t k) const { return c_[k]; }
  /// Number of Ethernet frames of frame k on this link, computed as
  /// ceil(C_i^k / MFT) exactly as eq (5)/(8) do.
  [[nodiscard]] std::int64_t nframes(std::size_t k) const {
    return nframes_[k];
  }

  /// MFT(link), eq (1).
  [[nodiscard]] gmfnet::Time mft() const { return mft_; }

  /// CSUM_i^link (eq 4): total transmission time of one GMF cycle.
  [[nodiscard]] gmfnet::Time csum() const { return csum_; }
  /// NSUM_i^link (eq 5): total Ethernet frames of one GMF cycle.
  [[nodiscard]] std::int64_t nsum() const { return nsum_; }
  /// TSUM_i (eq 6): cycle length (link-independent, cached for convenience).
  [[nodiscard]] gmfnet::Time tsum() const { return tsum_; }

  /// CSUM_i^link(k1,k2) (eq 7): transmission time of k2 consecutive frames
  /// starting at frame k1 (indices mod n).  Requires 1 <= k2 <= n.
  [[nodiscard]] gmfnet::Time csum_window(std::size_t k1, std::size_t k2) const;
  /// NSUM_i^link(k1,k2) (eq 8).
  [[nodiscard]] std::int64_t nsum_window(std::size_t k1, std::size_t k2) const;
  /// TSUM_i(k1,k2) (eq 9): span of the k2 arrivals starting at k1.
  [[nodiscard]] gmfnet::Time tsum_window(std::size_t k1, std::size_t k2) const;

  /// Utilization of this flow on this link: CSUM / TSUM (used by the
  /// convergence preconditions, eqs 20/34/35).
  [[nodiscard]] double utilization() const;

  /// Digest of the content, computed once at construction: equal content
  /// gives equal digests.  Only a filter — same_content is the exact check.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  /// Exact content equality: the same link speed and per-frame C and T,
  /// hence the same per-frame N, MFT, CSUM/NSUM/TSUM, windows and demand
  /// curve.
  [[nodiscard]] bool same_content(const FlowLinkParams& other) const {
    return digest_ == other.digest_ && speed_ == other.speed_ &&
           c_ == other.c_ && t_ == other.t_;
  }

 private:
  ethernet::LinkSpeedBps speed_;
  gmfnet::Time mft_;
  std::vector<gmfnet::Time> c_;
  std::vector<std::int64_t> nframes_;
  std::vector<gmfnet::Time> t_;
  gmfnet::Time csum_;
  std::int64_t nsum_ = 0;
  gmfnet::Time tsum_;
  // Prefix sums over a doubled index range for O(1) windowed queries.
  std::vector<gmfnet::Time::rep> c_prefix_;   // size 2n+1
  std::vector<std::int64_t> n_prefix_;        // size 2n+1
  std::vector<gmfnet::Time::rep> t_prefix_;   // size 2n+1
  std::uint64_t digest_ = 0;
};

}  // namespace gmfnet::gmf
