#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace gmfnet {

std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  return mix64(x);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // Guard against the all-zero state, which xoshiro cannot leave.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  assert(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_i64(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() {
  // 53 significant bits, uniform in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double mean) {
  assert(mean > 0);
  double u = uniform01();
  if (u <= 0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::chance(double p) { return uniform01() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double x = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0) return i;
  }
  return weights.size() - 1;
}

std::vector<double> Rng::uunifast(std::size_t n, double total) {
  std::vector<double> u(n, 0.0);
  if (n == 0) return u;
  double sum = total;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double next =
        sum * std::pow(uniform01(), 1.0 / static_cast<double>(n - 1 - i));
    u[i] = sum - next;
    sum = next;
  }
  u[n - 1] = sum;
  return u;
}

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace gmfnet
