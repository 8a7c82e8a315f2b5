// Deterministic random number generation for workload models.
//
// Every workload in src/apps is seeded, so a given experiment configuration
// always produces the identical storage-call trace — a requirement for the
// census experiments (Figs 1-2, Tables I-II) to be reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
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
///
/// Precondition: 0 < theta < 1 (the formula divides by 1 - theta); any other
/// theta, NaN included, aborts in every build type.
///
/// A draw is a function of one 53-bit grid index k = rng.next() >> 11, the
/// index that Rng::next_double scales by 2^-53. rank_at(k) is the reference
/// formula (Gray et al.); sample() returns exactly rank_at(k) but skips its
/// `pow` for almost every k:
///   - rank_at is a nondecreasing step function of k: u = k * 2^-53, u *
///     zetan and the tail's pow argument are monotone under IEEE rounding,
///     and only pow itself may misorder neighbouring arguments.
///   - The constructor finds, for each head rank r < min(n, kTableRanks),
///     the first k with rank_at(k) >= r: an analytic inverse lands within a
///     few grid steps, and bisection on rank_at confirms it.
///   - A guide table of about 4 cells per rank, indexed by the top bits of
///     k, plus a short forward scan gives k's rank.
///   - Within kGuard grid steps of a threshold or of the rank-1/tail seam,
///     and past the tabulated head, the draw calls rank_at. A pow
///     misordering spans at most a few pow arguments, each at most 64 grid
///     steps wide, far inside the guard; a tail coarser than that (theta
///     very near 1) gets no table and calls rank_at for every draw.
/// So the drawn sequence, and every Spark digest, is what the formula alone
/// gives.
class Zipf {
 public:
  static constexpr std::uint64_t kGridBits = 53;
  static constexpr std::uint64_t kTableRanks = 4096;
  static constexpr std::uint64_t kGuard = std::uint64_t{1} << 12;

  Zipf(std::uint64_t n, double theta);

  std::uint64_t sample(Rng& rng) const noexcept { return sample_at(rng.next() >> 11); }

  /// The draw for grid index k < 2^kGridBits, through the threshold table.
  [[nodiscard]] std::uint64_t sample_at(std::uint64_t k) const noexcept;

  /// The reference formula at grid index k < 2^kGridBits.
  [[nodiscard]] std::uint64_t rank_at(std::uint64_t k) const noexcept;

  /// Tabulated thresholds: element r - 1 is the first k with rank_at(k) >= r,
  /// for r = 1 .. min(n, kTableRanks); the last one ends the table's head
  /// (2^kGridBits when the head is the whole grid).
  [[nodiscard]] std::span<const std::uint64_t> thresholds() const noexcept {
    return {first_k_.data() + 1, table_ranks_};
  }

  /// The first k that takes the tail formula's branch (2^kGridBits if none).
  [[nodiscard]] std::uint64_t seam() const noexcept { return seam_; }

  [[nodiscard]] std::uint64_t domain() const noexcept { return n_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double rank1_bound_;  // 1 + 0.5^theta: a draw with 1 <= uz < this is rank 1
  std::uint64_t seam_ = 0;
  std::uint64_t table_ranks_ = 0;
  // first_k_[r] for r = 0 .. table_ranks_, then a UINT64_MAX sentinel that
  // stops the forward scan at rank table_ranks_ (past the head).
  std::vector<std::uint64_t> first_k_;
  int guide_shift_ = 0;
  std::vector<std::uint16_t> guide_;  // guide_[k >> guide_shift_]: rank at the cell's start
};

/// Deterministic payload: the byte at absolute offset `off` of stream `seed`.
/// Lets tests verify multi-gigabyte-scale reads without storing expected data.
/// This is the reference definition; fill_payload must agree with it.
[[nodiscard]] std::byte payload_byte(std::uint64_t seed, std::uint64_t off) noexcept;

/// Overwrite `out` with [offset, offset + out.size()) of the payload stream.
/// The one generation kernel: make_payload and check_payload go through it,
/// and the app write loops fill one reused buffer with it per request. GCC
/// x86-64 builds compile it once per ISA level and pick one at load time.
void fill_payload(std::uint64_t seed, std::uint64_t offset, MutableByteView out) noexcept;

/// Materialize [offset, offset+len) of the deterministic payload stream.
[[nodiscard]] Bytes make_payload(std::uint64_t seed, std::uint64_t offset, std::size_t len);

/// Verify that `data` equals the payload stream at `offset`.
[[nodiscard]] bool check_payload(std::uint64_t seed, std::uint64_t offset, ByteView data) noexcept;

}  // namespace bsc
