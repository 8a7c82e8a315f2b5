#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

namespace {
constexpr std::uint64_t kGridEnd = std::uint64_t{1} << Zipf::kGridBits;

/// The first k in [0, kGridEnd] with pred(k), for a pred that is false at 0
/// and (taken as) true at kGridEnd: steps outward from `guess` by doubling
/// strides until it brackets the change, then bisects the bracket.
template <class Pred>
std::uint64_t first_where(Pred pred, std::uint64_t guess) {
  std::uint64_t lo = std::min(guess, kGridEnd - 1);
  std::uint64_t hi = lo;
  for (std::uint64_t step = 1; lo > 0 && pred(lo); step *= 2) {
    hi = lo;
    lo = lo > step ? lo - step : 0;
  }
  for (std::uint64_t step = 1; hi < kGridEnd && !pred(hi); step *= 2) {
    lo = hi;
    hi = std::min(hi + step, kGridEnd);
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (pred(mid) ? hi : lo) = mid;
  }
  return hi;
}

/// Grid index of probability u, for an analytic guess.
std::uint64_t grid_guess(double u) {
  return static_cast<std::uint64_t>(std::clamp(u, 0.0, 1.0) * 0x1.0p53);
}
}  // namespace

Zipf::Zipf(std::uint64_t n, double theta) : n_(n ? n : 1), theta_(theta) {
  if (!(theta > 0.0 && theta < 1.0)) {
    std::fprintf(stderr, "bsc: Zipf theta must lie in (0, 1), got %g\n", theta);
    std::abort();
  }
  alpha_ = 1.0 / (1.0 - theta_);
  zetan_ = 0.0;
  for (std::uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  rank1_bound_ = 1.0 + std::pow(0.5, theta_);

  seam_ = first_where(
      [&](std::uint64_t k) { return static_cast<double>(k) * 0x1.0p-53 * zetan_ >= rank1_bound_; },
      grid_guess(rank1_bound_ / zetan_));
  // One tail pow argument spans about 1 / eta grid steps, and so does a pow
  // misordering; a tail too coarse for the guard (theta very near 1) keeps
  // the formula for every draw. For n <= 2 the tail holds no rank of its
  // own (for n = 2 eta is 0 / 0).
  const bool fine_tail = n_ <= 2 || eta_ * static_cast<double>(kGuard) >= 64.0;
  table_ranks_ = fine_tail ? std::min(n_, kTableRanks) : 0;
  first_k_.assign(table_ranks_ + 2, 0);
  for (std::uint64_t r = 1; r <= table_ranks_; ++r) {
    if (r == n_) {  // rank_at never exceeds n - 1: the head is the whole grid
      first_k_[r] = kGridEnd;
      continue;
    }
    // Analytic inverse: uz >= 1 for rank 1, n * x^alpha >= r in the tail.
    const double u = r == 1 ? 1.0 / zetan_
                            : 1.0 - (1.0 - std::pow(static_cast<double>(r) / static_cast<double>(n_),
                                                    1.0 - theta_)) / eta_;
    first_k_[r] = std::max(first_k_[r - 1],
                           first_where([&](std::uint64_t k) { return rank_at(k) >= r; }, grid_guess(u)));
  }
  first_k_.back() = UINT64_MAX;

  const std::uint64_t cells = std::bit_ceil(std::max<std::uint64_t>(1, 4 * table_ranks_));
  guide_shift_ = static_cast<int>(kGridBits) - std::countr_zero(cells);
  guide_.resize(cells);
  std::uint64_t r = 0;
  for (std::uint64_t c = 0; c < cells; ++c) {
    while (first_k_[r + 1] <= c << guide_shift_) ++r;
    guide_[c] = static_cast<std::uint16_t>(r);
  }
}

std::uint64_t Zipf::rank_at(std::uint64_t k) const noexcept {
  // Gray et al. "Quickly generating billion-record synthetic databases".
  const double u = static_cast<double>(k) * 0x1.0p-53;
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_bound_) return 1;
  auto v = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

std::uint64_t Zipf::sample_at(std::uint64_t k) const noexcept {
  std::uint64_t r = guide_[k >> guide_shift_];
  while (first_k_[r + 1] <= k) ++r;
  if (r == table_ranks_ || k - first_k_[r] < kGuard || first_k_[r + 1] - k <= kGuard ||
      k + kGuard - seam_ <= 2 * kGuard) {
    return rank_at(k);
  }
  return r;
}

std::byte payload_byte(std::uint64_t seed, std::uint64_t off) noexcept {
  // One mix per 8-byte word; cheap enough to generate payloads at line rate.
  const std::uint64_t word = mix64(hash_combine(seed, off >> 3));
  return static_cast<std::byte>((word >> ((off & 7) * 8)) & 0xff);
}

// The word loop below is plain C++; the clones only let the compiler widen
// it (AVX-512DQ has a 64-bit vector multiply, AVX2 emulates one). GCC's
// resolver picks a clone once, at load time, from the host's CPU features.
// ThreadSanitizer instruments that resolver, which then runs before its
// runtime is up and crashes the program at load, so TSan builds keep the
// one plain version.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
void fill_payload(std::uint64_t seed, std::uint64_t offset, MutableByteView out) noexcept {
  // A partial word at either end copies its bytes out of the whole word;
  // every whole word in between costs one mix and one 8-byte store.
  std::byte* dst = out.data();
  std::size_t len = out.size();
  std::uint64_t index = offset >> 3;
  if (const std::size_t skip = offset & 7; skip != 0 && len != 0) {
    const std::uint64_t word = payload_word(seed, index++);
    const std::size_t n = std::min(len, 8 - skip);
    std::memcpy(dst, reinterpret_cast<const std::byte*>(&word) + skip, n);
    dst += n;
    len -= n;
  }
  const std::size_t words = len >> 3;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t word = payload_word(seed, index + w);
    std::memcpy(dst + 8 * w, &word, 8);
  }
  if (const std::size_t rest = len & 7; rest != 0) {
    const std::uint64_t word = payload_word(seed, index + words);
    std::memcpy(dst + 8 * words, &word, rest);
  }
}

Bytes make_payload(std::uint64_t seed, std::uint64_t offset, std::size_t len) {
  Bytes out(len);
  fill_payload(seed, offset, out);
  return out;
}

bool check_payload(std::uint64_t seed, std::uint64_t offset, ByteView data) noexcept {
  // Generate the expected stream a block at a time and compare.
  constexpr std::size_t kBlock = 4096;
  std::byte want[kBlock];
  for (std::size_t done = 0; done < data.size();) {
    const std::size_t n = std::min(kBlock, data.size() - done);
    fill_payload(seed, offset + done, {want, n});
    if (std::memcmp(want, data.data() + done, n) != 0) return false;
    done += n;
  }
  return true;
}

}  // namespace bsc
