#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/hash.hpp"

namespace bsc {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// The payload word holding stream offsets [8 * index, 8 * index + 8), laid
/// out little-endian: byte k of the word is the byte at offset 8 * index + k.
std::uint64_t payload_word(std::uint64_t seed, std::uint64_t index) noexcept {
  const std::uint64_t word = mix64(hash_combine(seed, index));
  if constexpr (std::endian::native == std::endian::big) return __builtin_bswap64(word);
  return word;
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // splitmix64 expansion of the seed into the xoshiro state; guarantees a
  // non-zero state for every seed including 0.
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x += 0x9e3779b97f4a7c15ULL;
    s = mix64(x);
  }
}

std::uint64_t Rng::next() noexcept {
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

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept { return next_double() < p; }

double Rng::next_exponential(double mean) noexcept {
  double u = next_double();
  if (u >= 1.0) u = 0.9999999999;
  return -mean * std::log1p(-u);
}

Rng Rng::fork() noexcept { return Rng(mix64(next())); }

Zipf::Zipf(std::uint64_t n, double theta) : n_(n ? n : 1), theta_(theta) {
  alpha_ = 1.0 / (1.0 - theta_);
  zetan_ = 0.0;
  for (std::uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  rank1_bound_ = 1.0 + std::pow(0.5, theta_);
}

std::uint64_t Zipf::sample(Rng& rng) const noexcept {
  // Gray et al. "Quickly generating billion-record synthetic databases".
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_bound_) return 1;
  auto v = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

std::byte payload_byte(std::uint64_t seed, std::uint64_t off) noexcept {
  // One mix per 8-byte word; cheap enough to generate payloads at line rate.
  const std::uint64_t word = mix64(hash_combine(seed, off >> 3));
  return static_cast<std::byte>((word >> ((off & 7) * 8)) & 0xff);
}

Bytes make_payload(std::uint64_t seed, std::uint64_t offset, std::size_t len) {
  // Unaligned head and tail bytes go one at a time; every whole word in
  // between costs one mix and one 8-byte store.
  Bytes out(len);
  std::size_t i = 0;
  for (; i < len && ((offset + i) & 7) != 0; ++i) out[i] = payload_byte(seed, offset + i);
  for (; i + 8 <= len; i += 8) {
    const std::uint64_t word = payload_word(seed, (offset + i) >> 3);
    std::memcpy(out.data() + i, &word, 8);
  }
  for (; i < len; ++i) out[i] = payload_byte(seed, offset + i);
  return out;
}

bool check_payload(std::uint64_t seed, std::uint64_t offset, ByteView data) noexcept {
  const std::size_t len = data.size();
  std::size_t i = 0;
  for (; i < len && ((offset + i) & 7) != 0; ++i) {
    if (data[i] != payload_byte(seed, offset + i)) return false;
  }
  for (; i + 8 <= len; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data.data() + i, 8);
    if (word != payload_word(seed, (offset + i) >> 3)) return false;
  }
  for (; i < len; ++i) {
    if (data[i] != payload_byte(seed, offset + i)) return false;
  }
  return true;
}

}  // namespace bsc
