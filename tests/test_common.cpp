// Unit tests for src/common: results, bytes, hashing, RNG, stats, strings,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stream_copy.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace bsc {
namespace {

TEST(Result, ValueAndError) {
  Result<int> ok_r(42);
  EXPECT_TRUE(ok_r.ok());
  EXPECT_EQ(ok_r.value(), 42);
  EXPECT_EQ(ok_r.code(), Errc::ok);

  Result<int> err_r(Errc::not_found, "missing");
  EXPECT_FALSE(err_r.ok());
  EXPECT_EQ(err_r.code(), Errc::not_found);
  EXPECT_EQ(err_r.error().message(), "not_found: missing");
  EXPECT_EQ(err_r.value_or(7), 7);
}

TEST(ResultDeathTest, ValueOfErrorAbortsWithTheErrorMessage) {
  // Every build type, not just assert-enabled ones: the failure names the
  // error instead of surfacing as an anonymous bad_variant_access.
  Result<int> err_r(Errc::not_found, "blob-k");
  EXPECT_DEATH((void)err_r.value(), "on error: not_found: blob-k");
  EXPECT_DEATH((void)std::move(err_r).take(), "not_found: blob-k");
}

TEST(Result, StatusDefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "ok");
  Status e{Errc::busy, "locked"};
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), Errc::busy);
}

TEST(Result, EveryErrcHasName) {
  for (int i = 0; i <= static_cast<int>(Errc::timeout); ++i) {
    EXPECT_NE(to_string(static_cast<Errc>(i)), "unknown");
  }
}

TEST(Bytes, WriteAtGrowsAndZeroFills) {
  Bytes b;
  write_at(b, 4, as_view(to_bytes("xy")));
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], std::byte{0});
  EXPECT_EQ(b[3], std::byte{0});
  EXPECT_EQ(to_string(subview(as_view(b), 4, 2)), "xy");
}

TEST(Bytes, SubviewClipsAtEnd) {
  Bytes b = to_bytes("hello");
  EXPECT_EQ(to_string(subview(as_view(b), 3, 10)), "lo");
  EXPECT_TRUE(subview(as_view(b), 9, 2).empty());
}

TEST(Hash, Deterministic) {
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
  EXPECT_EQ(fnv1a64(as_view(to_bytes("abc"))), fnv1a64("abc"));
}

TEST(Hash, ChecksumDetectsSizeAndContent) {
  const Bytes a = to_bytes("aaaa");
  const Bytes b = to_bytes("aaab");
  const Bytes c = to_bytes("aaa");
  EXPECT_NE(content_checksum(as_view(a)), content_checksum(as_view(b)));
  EXPECT_NE(content_checksum(as_view(a)), content_checksum(as_view(c)));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowInRange) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextInInclusive) {
  Rng r(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipf, SkewsTowardLowRanks) {
  // The first 1 000 draws are pinned by a digest: the Spark text generator
  // takes its words from this sampler, so any change moves every Spark figure.
  const auto first_thousand = [](Rng& r, const Zipf& z) {
    std::uint64_t digest = 0;
    for (int i = 0; i < 1000; ++i) digest = hash_combine(digest, z.sample(r));
    return digest;
  };
  Rng words(4);
  EXPECT_EQ(first_thousand(words, Zipf(4096, 0.9)), 7295072053011426618ULL);

  Rng r(4);
  Zipf z(1000, 0.99);
  EXPECT_EQ(first_thousand(r, z), 4657364204732583260ULL);
  std::uint64_t low = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const auto v = z.sample(r);
    ASSERT_LT(v, 1000u);
    if (v < 10) ++low;
  }
  // With theta=0.99 the head is heavily favored over uniform (1%).
  EXPECT_GT(low, kSamples / 10);
}

TEST(ZipfDeathTest, ThetaOutsideOpenUnitIntervalAborts) {
  // At theta = 1 the tail exponent 1 / (1 - theta) divides by zero.
  EXPECT_DEATH((void)Zipf(10, 1.0), "Zipf theta must lie in");
  EXPECT_DEATH((void)Zipf(10, 1.5), "Zipf theta must lie in");
  EXPECT_DEATH((void)Zipf(10, 0.0), "Zipf theta must lie in");
  EXPECT_DEATH((void)Zipf(10, std::nan("")), "Zipf theta must lie in");
}

// sample() reads its rank from a threshold table; it must return exactly what
// the reference formula rank_at() gives, at random grid indices and at every
// index near a tabulated threshold, near the rank-1/tail seam and at the ends
// of the grid, where the table hands over to the formula.
using ZipfShape = std::pair<std::uint64_t, double>;  // (n, theta)
class ZipfTable : public ::testing::TestWithParam<ZipfShape> {};

TEST_P(ZipfTable, SampleEqualsReferenceFormula) {
  const auto [n, theta] = GetParam();
  const Zipf z(n, theta);
  constexpr std::uint64_t kEnd = std::uint64_t{1} << Zipf::kGridBits;

  // The table covers the whole head, and each threshold is a step of rank_at.
  const auto thresholds = z.thresholds();
  ASSERT_EQ(thresholds.size(), std::min<std::uint64_t>(n, Zipf::kTableRanks));
  for (std::uint64_t r = 1; r <= thresholds.size(); ++r) {
    const std::uint64_t t = thresholds[r - 1];
    if (t == kEnd) continue;  // rank r never occurs
    ASSERT_GE(z.rank_at(t), r);
    ASSERT_LT(z.rank_at(t - 1), r);
  }

  std::uint64_t mismatches = 0;
  const auto check = [&](std::uint64_t k) {
    if (z.sample_at(k) != z.rank_at(k) && mismatches++ < 5) {
      ADD_FAILURE() << "k " << k << ": table " << z.sample_at(k) << ", formula " << z.rank_at(k);
    }
  };
  Rng rng(n);
  for (int i = 0; i < 10'000'000; ++i) check(rng.next() >> 11);
  std::vector<std::uint64_t> fences{0, z.seam()};
  fences.insert(fences.end(), thresholds.begin(), thresholds.end());
  constexpr std::uint64_t kReach = Zipf::kGuard + 4096;
  for (const std::uint64_t f : fences) {
    for (std::uint64_t k = f > kReach ? f - kReach : 0; k <= f + kReach && k < kEnd; ++k) check(k);
  }
  EXPECT_EQ(mismatches, 0u);

  // sample() is sample_at() of one 53-bit draw.
  Rng a(9);
  Rng b(9);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(z.sample(a), z.sample_at(b.next() >> 11));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfTable,
    ::testing::Values(ZipfShape{1, 0.9}, ZipfShape{2, 0.9}, ZipfShape{10, 0.9},
                      ZipfShape{1000, 0.99}, ZipfShape{4096, 0.9}, ZipfShape{100000, 0.9},
                      ZipfShape{1u << 20, 0.9}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.first) + "_theta0_" +
             std::to_string(static_cast<int>(info.param.second * 100 + 0.5));
    });

TEST(Payload, DeterministicAndOffsetConsistent) {
  const Bytes whole = make_payload(9, 0, 256);
  const Bytes tail = make_payload(9, 100, 156);
  EXPECT_TRUE(equal(subview(as_view(whole), 100, 156), as_view(tail)));
  EXPECT_TRUE(check_payload(9, 100, as_view(tail)));
  EXPECT_FALSE(check_payload(10, 100, as_view(tail)));
}

// make_payload/check_payload work a word at a time; payload_byte is the
// byte-at-a-time definition they must agree with at every alignment.
TEST(Payload, WordKernelMatchesBytewiseDefinition) {
  const auto matches_bytewise = [](std::uint64_t seed, std::uint64_t off, std::size_t len) {
    const Bytes p = make_payload(seed, off, len);
    if (p.size() != len) return false;
    for (std::size_t i = 0; i < len; ++i) {
      if (p[i] != payload_byte(seed, off + i)) return false;
    }
    return check_payload(seed, off, as_view(p));
  };
  for (std::uint64_t head = 0; head < 8; ++head) {
    for (std::size_t len = 0; len <= 40; ++len) {
      EXPECT_TRUE(matches_bytewise(7, 64 + head, len)) << "head=" << head << " len=" << len;
    }
  }
  Rng r(11);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t seed = r.next();
    const std::uint64_t off = r.next_below(1ULL << 40);
    const std::size_t len = r.next_below((64u << 10) + 1);
    EXPECT_TRUE(matches_bytewise(seed, off, len)) << "off=" << off << " len=" << len;
  }
}

TEST(Payload, CheckRejectsOneFlippedByteInHeadBodyAndTail) {
  // From offset 5, positions [0,3) are the unaligned head, [3,27) three
  // whole words and [27,30) the tail.
  const std::uint64_t off = 5;
  const Bytes good = make_payload(3, off, 30);
  ASSERT_TRUE(check_payload(3, off, as_view(good)));
  for (std::size_t pos : {0u, 2u, 3u, 14u, 26u, 27u, 29u}) {
    Bytes bad = good;
    bad[pos] ^= std::byte{0x01};
    EXPECT_FALSE(check_payload(3, off, as_view(bad))) << "pos=" << pos;
  }
}

// fill_payload writes in place, so it starts from dirty memory: every head
// offset and every length up to 1100 (each remainder of any vector width the
// word loop may be widened to), into destinations at every misalignment,
// must give exactly the payload_byte stream and leave the bytes around the
// destination alone.
TEST(Payload, FillMatchesBytewiseDefinitionInDirtyMisalignedBuffers) {
  constexpr std::uint64_t kSeed = 0x5eed;
  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kGuard = 16;
  const std::byte dirty{0xA5};
  Bytes buf(kGuard + 8 + kMaxLen + kGuard);
  for (std::uint64_t head = 0; head < 8; ++head) {
    const std::uint64_t off = (1ULL << 40) + head;
    Bytes want(kMaxLen);
    for (std::size_t i = 0; i < kMaxLen; ++i) want[i] = payload_byte(kSeed, off + i);
    for (std::size_t mis = 0; mis < 8; ++mis) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        std::fill(buf.begin(), buf.end(), dirty);
        std::byte* dst = buf.data() + kGuard + mis;
        fill_payload(kSeed, off, {dst, len});
        ASSERT_TRUE(len == 0 || std::memcmp(dst, want.data(), len) == 0)
            << "head=" << head << " mis=" << mis << " len=" << len;
        const auto untouched = [&](std::size_t from, std::size_t to) {
          return std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(from),
                             buf.begin() + static_cast<std::ptrdiff_t>(to),
                             [&](std::byte b) { return b == dirty; });
        };
        ASSERT_TRUE(untouched(0, kGuard + mis) &&
                    untouched(kGuard + mis + len, buf.size()))
            << "wrote outside the destination: head=" << head << " mis=" << mis
            << " len=" << len;
      }
    }
  }
}

TEST(Payload, CheckRejectsOneFlippedByteInVectorBodyAndRemainder) {
  // From offset 3 a 1100-byte range is a 5-byte head, 136 whole words
  // [5, 1093) and a 7-byte remainder; 9000 bytes also span three of
  // check_payload's generated blocks.
  for (const std::size_t len : {std::size_t{1100}, std::size_t{9000}}) {
    const std::uint64_t off = 3;
    const Bytes good = make_payload(21, off, len);
    ASSERT_TRUE(check_payload(21, off, as_view(good)));
    for (const std::size_t pos : {std::size_t{500}, len - 4, len - 1, std::size_t{4100}}) {
      if (pos >= len) continue;
      Bytes bad = good;
      bad[pos] ^= std::byte{0x80};
      EXPECT_FALSE(check_payload(21, off, as_view(bad))) << "len=" << len << " pos=" << pos;
    }
  }
}

// stream_copy must equal memcpy for every length and both alignments, and
// write nothing in the 64 bytes on either side of the destination: every
// length 0..300 at every source and destination offset mod 64, every length
// within 200 bytes of kStreamCopyMin (where it starts streaming) at one
// offset pair each, and both ends of that range at 64 more pairs. Only
// lengths of kStreamCopyMin and more report a stream.
TEST(StreamCopy, MatchesMemcpyAndStaysInsideTheDestination) {
  constexpr std::size_t kGuard = 64;
  constexpr std::size_t kMaxLen = kStreamCopyMin + 200;
  const std::byte dirty{0xA5};
  const Bytes src = make_payload(0x5c, 0, 64 + kMaxLen);
  Bytes dst(kGuard + 64 + kMaxLen + kGuard, dirty);
  const auto check = [&](std::size_t src_off, std::size_t dst_off, std::size_t len) {
    std::byte* to = dst.data() + kGuard + dst_off;
    const bool streamed = stream_copy(to, subview(as_view(src), src_off, len));
    EXPECT_EQ(streamed, kStreamCopyStreams && len >= kStreamCopyMin) << "len=" << len;
    const bool exact = len == 0 || std::memcmp(to, src.data() + src_off, len) == 0;
    const std::size_t end = kGuard + dst_off + len;
    const bool contained =
        std::all_of(dst.begin(), dst.begin() + static_cast<std::ptrdiff_t>(kGuard + dst_off),
                    [&](std::byte b) { return b == dirty; }) &&
        std::all_of(dst.begin() + static_cast<std::ptrdiff_t>(end),
                    dst.begin() + static_cast<std::ptrdiff_t>(end + kGuard),
                    [&](std::byte b) { return b == dirty; });
    std::fill(dst.begin(), dst.begin() + static_cast<std::ptrdiff_t>(end), dirty);
    return exact && contained;
  };
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t src_off = 0; src_off < 64; ++src_off) {
      for (std::size_t dst_off = 0; dst_off < 64; ++dst_off) {
        ASSERT_TRUE(check(src_off, dst_off, len))
            << "len=" << len << " src_off=" << src_off << " dst_off=" << dst_off;
      }
    }
  }
  for (std::size_t len = kStreamCopyMin - 200; len <= kMaxLen; ++len) {
    const std::size_t src_off = len % 64;
    const std::size_t dst_off = (len * 37) % 64;
    ASSERT_TRUE(check(src_off, dst_off, len))
        << "len=" << len << " src_off=" << src_off << " dst_off=" << dst_off;
  }
  for (const std::size_t len : {kStreamCopyMin, kMaxLen}) {
    for (std::size_t off = 0; off < 64; ++off) {
      ASSERT_TRUE(check(off, 63 - off, len)) << "len=" << len << " src_off=" << off;
    }
  }
}

TEST(Stats, SummaryMergeMatchesSingle) {
  StatSummary a;
  StatSummary b;
  StatSummary whole;
  Rng r(5);
  for (int i = 0; i < 500; ++i) {
    const double x = r.next_double() * 10;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Stats, HistogramPercentiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  // Log-bucketed: percentiles are approximate within a bucket factor (~2x).
  EXPECT_GE(h.percentile(50), 400u);
  EXPECT_LE(h.percentile(50), 1024u);
  EXPECT_LE(h.percentile(100), 1000u);
  EXPECT_GE(h.percentile(99), 900u);
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
}

TEST(Stats, HistogramMerge) {
  Histogram a;
  Histogram b;
  a.add(10);
  b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GE(a.percentile(100), 1000u);
}

TEST(Stats, HistogramPercentileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.percentile(0), 0u);  // empty histogram: all percentiles 0
  EXPECT_EQ(h.percentile(100), 0u);

  h.add(100);
  // Single sample: every percentile must report that sample (bucket bound
  // clamped to the true max). The rank-0 bug made percentile(0) report
  // bucket 0's bound — i.e. 0 — for any distribution without zeros.
  EXPECT_EQ(h.percentile(0), 100u);
  EXPECT_EQ(h.percentile(50), 100u);
  EXPECT_EQ(h.percentile(100), 100u);
}

TEST(Stats, HistogramPercentileZeroSkipsEmptyBuckets) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  // p=0 walks to the first non-empty bucket: the minimum lives in bucket 1
  // (exact bucket for value 1), never in the untouched zero bucket.
  EXPECT_EQ(h.percentile(0), 1u);
  EXPECT_EQ(h.percentile(100), 1000u);  // clamped to the true max
}

TEST(Stats, HistogramMergeDisjointShards) {
  // Two shards with disjoint value ranges (the sharded-histogram case:
  // per-thread shards merged on read-out) must merge into exactly the
  // distribution a single histogram would have seen.
  Histogram lo;
  Histogram hi;
  Histogram whole;
  double lo_sum = 0.0;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    lo.add(v);
    whole.add(v);
    lo_sum += static_cast<double>(v);
  }
  for (std::uint64_t v = 10'000; v <= 10'100; ++v) {
    hi.add(v);
    whole.add(v);
    lo_sum += static_cast<double>(v);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), whole.count());
  EXPECT_DOUBLE_EQ(lo.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(lo.mean() * static_cast<double>(lo.count()), lo_sum);
  for (double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(lo.percentile(p), whole.percentile(p)) << "p=" << p;
  }
  EXPECT_EQ(lo.percentile(100), 10'100u);  // max carried across the merge
}

TEST(Stats, HistogramSubtractIsolatesInterval) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  const Histogram earlier = h;  // point-in-time snapshot
  for (int i = 0; i < 50; ++i) h.add(1000);
  Histogram delta = h;
  delta.subtract(earlier);
  EXPECT_EQ(delta.count(), 50u);
  EXPECT_DOUBLE_EQ(delta.mean(), 1000.0);
  // All interval samples were 1000: p50 is 1000's bucket bound clamped to
  // the cumulative max.
  EXPECT_EQ(delta.percentile(50), 1000u);
}

TEST(Strings, CsvFieldQuoting) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field(""), "");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_field("cr\rhere"), "\"cr\rhere\"");
}

TEST(Strings, NormalizePath) {
  EXPECT_EQ(normalize_path(""), "/");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path("//a//b/"), "/a/b");
  EXPECT_EQ(normalize_path("/a/./b/../c"), "/a/c");
  EXPECT_EQ(normalize_path("/../a"), "/a");
}

TEST(Strings, ParentAndBase) {
  EXPECT_EQ(parent_path("/a/b/c"), "/a/b");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(parent_path("/"), "/");
  EXPECT_EQ(base_name("/a/b"), "b");
  EXPECT_EQ(base_name("/"), "");
}

TEST(Strings, JoinPath) {
  EXPECT_EQ(join_path("/a", "b"), "/a/b");
  EXPECT_EQ(join_path("/a/", "/b/c"), "/a/b/c");
  EXPECT_EQ(join_path("/", "x"), "/x");
}

TEST(Strings, SplitAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ','), "a,b,,c");
}

TEST(Strings, FormatBytesMatchesTableStyle) {
  EXPECT_EQ(format_bytes(27ULL * GiB + 700 * MiB + 100 * MiB), "27.8 GB");
  EXPECT_EQ(format_bytes(12 * MiB + 800 * KiB), "12.8 MB");
  EXPECT_EQ(format_bytes(512), "512 B");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t i) {
        if (i == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([] {});
  f.get();
  SUCCEED();
}

}  // namespace
}  // namespace bsc
