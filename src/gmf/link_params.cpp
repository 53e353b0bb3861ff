#include "gmf/link_params.hpp"

#include <cassert>

#include "util/rng.hpp"

namespace gmfnet::gmf {

FlowLinkParams::FlowLinkParams(const Flow& flow,
                               ethernet::LinkSpeedBps speed_bps)
    : speed_(speed_bps),
      mft_(ethernet::max_frame_transmission_time(speed_bps)) {
  const std::size_t n = flow.frame_count();
  assert(n > 0);
  c_.reserve(n);
  nframes_.reserve(n);
  t_.reserve(n);
  csum_ = gmfnet::Time::zero();
  tsum_ = gmfnet::Time::zero();
  for (std::size_t k = 0; k < n; ++k) {
    const ethernet::Bits nb = flow.nbits(k);
    const gmfnet::Time ck = ethernet::transmission_time(nb, speed_bps);
    c_.push_back(ck);
    // eq (5)/(8) count Ethernet frames as ceil(C / MFT).
    nframes_.push_back(ck.ceil_div(mft_));
    t_.push_back(flow.frame(k).min_separation);
    csum_ += ck;
    nsum_ += nframes_.back();
    tsum_ += t_.back();
  }

  c_prefix_.assign(2 * n + 1, 0);
  n_prefix_.assign(2 * n + 1, 0);
  t_prefix_.assign(2 * n + 1, 0);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    c_prefix_[i + 1] = c_prefix_[i] + c_[i % n].ps();
    n_prefix_[i + 1] = n_prefix_[i] + nframes_[i % n];
    t_prefix_[i + 1] = t_prefix_[i] + t_[i % n].ps();
  }

  digest_ = mix64(static_cast<std::uint64_t>(speed_));
  for (std::size_t k = 0; k < n; ++k) {
    digest_ = mix64(digest_ ^ static_cast<std::uint64_t>(c_[k].ps()));
    digest_ = mix64(digest_ ^ static_cast<std::uint64_t>(t_[k].ps()));
  }
}

gmfnet::Time FlowLinkParams::csum_window(std::size_t k1, std::size_t k2) const {
  assert(k1 < c_.size());
  assert(k2 >= 1 && k2 <= c_.size());
  return gmfnet::Time(c_prefix_[k1 + k2] - c_prefix_[k1]);
}

std::int64_t FlowLinkParams::nsum_window(std::size_t k1, std::size_t k2) const {
  assert(k1 < c_.size());
  assert(k2 >= 1 && k2 <= c_.size());
  return n_prefix_[k1 + k2] - n_prefix_[k1];
}

gmfnet::Time FlowLinkParams::tsum_window(std::size_t k1, std::size_t k2) const {
  assert(k1 < c_.size());
  assert(k2 >= 1 && k2 <= c_.size());
  // eq (9): k2 arrivals span k2-1 separations.
  return gmfnet::Time(t_prefix_[k1 + k2 - 1] - t_prefix_[k1]);
}

double FlowLinkParams::utilization() const {
  if (tsum_ <= gmfnet::Time::zero()) return 0.0;
  return static_cast<double>(csum_.ps()) / static_cast<double>(tsum_.ps());
}

}  // namespace gmfnet::gmf
