// Deterministic random number generation for workload models.
//
// Every workload in src/apps is seeded, so a given experiment configuration
// always produces the identical storage-call trace — a requirement for the
// census experiments (Figs 1-2, Tables I-II) to be reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace bsc {

/// xoshiro256** — fast, high-quality, deterministic. Not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound) — bound must be > 0. Uses Lemire reduction.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli trial.
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double next_exponential(double mean) noexcept;

  /// Fork an independent stream (for per-task generators in parallel runs).
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

/// Zipf-distributed integer sampler over {0, .., n-1} with exponent `theta`.
/// Its one caller is spark::generate_text, which draws word ranks from it;
/// the sample sequence is pinned by tests, so any change moves the Spark data.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);

  std::uint64_t sample(Rng& rng) const noexcept;

  [[nodiscard]] std::uint64_t domain() const noexcept { return n_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double rank1_bound_;  // 1 + 0.5^theta: a draw with 1 <= uz < this is rank 1
};

/// Deterministic payload: the byte at absolute offset `off` of stream `seed`.
/// Lets tests verify multi-gigabyte-scale reads without storing expected data.
[[nodiscard]] std::byte payload_byte(std::uint64_t seed, std::uint64_t off) noexcept;

/// Materialize [offset, offset+len) of the deterministic payload stream.
[[nodiscard]] Bytes make_payload(std::uint64_t seed, std::uint64_t offset, std::size_t len);

/// Verify that `data` equals the payload stream at `offset`.
[[nodiscard]] bool check_payload(std::uint64_t seed, std::uint64_t offset, ByteView data) noexcept;

}  // namespace bsc
