// Unit + property tests for the per-node log-structured blob engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include "blob/storage_engine.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "persist/fault_file.hpp"
#include "persist/wal.hpp"

namespace bsc::blob {
namespace {

TEST(Engine, CreateRemoveContains) {
  StorageEngine e;
  EXPECT_TRUE(e.create("a").ok());
  EXPECT_TRUE(e.contains("a"));
  EXPECT_EQ(e.create("a").code(), Errc::already_exists);
  EXPECT_TRUE(e.remove("a").ok());
  EXPECT_FALSE(e.contains("a"));
  EXPECT_EQ(e.remove("a").code(), Errc::not_found);
  EXPECT_EQ(e.create("").code(), Errc::invalid_argument);
}

TEST(Engine, WriteReadRoundTrip) {
  StorageEngine e;
  const Bytes data = make_payload(1, 0, 1000);
  auto w = e.write("k", 0, as_view(data), true);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value().bytes, 1000u);
  EXPECT_TRUE(w.value().sequential_disk);
  auto r = e.read("k", 0, 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value().data), as_view(data)));
  EXPECT_EQ(r.value().extents_touched, 1u);
}

TEST(Engine, WriteWithoutCreateFailsWhenMissing) {
  StorageEngine e;
  EXPECT_EQ(e.write("k", 0, as_view(to_bytes("x")), false).code(), Errc::not_found);
}

TEST(Engine, OverwriteSupersedes) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("aaaaaaaa")), true).ok());
  ASSERT_TRUE(e.write("k", 2, as_view(to_bytes("BB")), true).ok());
  auto r = e.read("k", 0, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(as_view(r.value().data)), "aaBBaaaa");
  EXPECT_GT(e.dead_bytes(), 0u);
}

TEST(Engine, SparseHolesReadZero) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 100, as_view(to_bytes("xy")), true).ok());
  EXPECT_EQ(e.size("k").value(), 102u);
  auto r = e.read("k", 0, 102);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().data[0], std::byte{0});
  EXPECT_EQ(r.value().data[99], std::byte{0});
  EXPECT_EQ(to_string(subview(as_view(r.value().data), 100, 2)), "xy");
}

TEST(Engine, ReadPastEndClipsAndEmpty) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("hello")), true).ok());
  auto r = e.read("k", 3, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(as_view(r.value().data)), "lo");
  EXPECT_TRUE(e.read("k", 5, 10).value().data.empty());
  EXPECT_TRUE(e.read("k", 99, 10).value().data.empty());
}

TEST(Engine, TruncateShrinkAndGrow) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("abcdefgh")), true).ok());
  ASSERT_TRUE(e.truncate("k", 3).ok());
  EXPECT_EQ(e.size("k").value(), 3u);
  EXPECT_EQ(to_string(as_view(e.read("k", 0, 10).value().data)), "abc");
  // Grow back: the cut region must read as zeros, not stale data.
  ASSERT_TRUE(e.truncate("k", 8).ok());
  auto r = e.read("k", 0, 8);
  EXPECT_EQ(to_string(subview(as_view(r.value().data), 0, 3)), "abc");
  for (std::size_t i = 3; i < 8; ++i) EXPECT_EQ(r.value().data[i], std::byte{0});
}

TEST(Engine, VersionBumpsOnEveryMutation) {
  StorageEngine e;
  ASSERT_TRUE(e.create("k").ok());
  const Version v1 = e.version("k").value();
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("x")), false).ok());
  const Version v2 = e.version("k").value();
  ASSERT_TRUE(e.truncate("k", 0).ok());
  const Version v3 = e.version("k").value();
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
}

TEST(Engine, RecreateAfterRemoveContinuesVersionSequence) {
  // Remove leaves a version floor: a recreated key's versions continue past
  // the dead incarnation's instead of restarting at 1, so a replica that
  // slept through remove+recreate can never look "freshest" to repair.
  StorageEngine e;
  ASSERT_TRUE(e.create("k").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("x")), false).ok());
  }
  const Version before = e.version("k").value();
  ASSERT_TRUE(e.remove("k").ok());
  ASSERT_TRUE(e.create("k").ok());
  EXPECT_GT(e.version("k").value(), before);

  // Same through the write-creates path.
  ASSERT_TRUE(e.remove("k").ok());
  const Version floor = before + 1;  // create consumed + reinstated the floor
  ASSERT_TRUE(e.write("k", 0, as_view(to_bytes("y")), true).ok());
  EXPECT_GT(e.version("k").value(), floor);
}

TEST(Engine, ScanSortedAndPrefixFiltered) {
  StorageEngine e;
  ASSERT_TRUE(e.create("b/2").ok());
  ASSERT_TRUE(e.create("a/1").ok());
  ASSERT_TRUE(e.create("a/2").ok());
  auto all = e.scan();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, "a/1");
  EXPECT_EQ(all[2].key, "b/2");
  EXPECT_EQ(e.scan("a/").size(), 2u);
  EXPECT_EQ(e.scan("zzz").size(), 0u);
}

// The object index is a hash map, so three keys can come out sorted by
// luck. Thousands of keys created in shuffled order, with removes and
// recreates on top, must still scan exactly like an ordered map of them.
TEST(Engine, ScanMatchesOrderedReferenceAtScale) {
  StorageEngine e;
  Rng rng(42);
  std::vector<std::string> keys;
  for (int dir = 0; dir < 12; ++dir) {
    for (int i = 0; i < 100; ++i) {
      keys.push_back("d" + std::to_string(dir) + "/f" + std::to_string(i));
    }
  }
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.next_below(i + 1)]);
  }
  std::map<std::string, std::pair<std::uint64_t, Version>> ref;
  for (const std::string& k : keys) {
    const std::uint64_t len = 1 + rng.next_below(64);
    auto w = e.write(k, 0, as_view(make_payload(len, 0, len)), true);
    ASSERT_TRUE(w.ok());
    ref[k] = {len, w.value().version};
  }
  // Remove a third, then recreate half of those: recreated keys continue
  // their version sequence and land back in the index out of order.
  for (std::size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(e.remove(keys[i]).ok());
    ref.erase(keys[i]);
  }
  for (std::size_t i = 0; i < keys.size(); i += 6) {
    ASSERT_TRUE(e.create(keys[i]).ok());
    ref[keys[i]] = {0, e.version(keys[i]).value()};
  }
  ASSERT_GE(ref.size(), 1000u);
  ASSERT_EQ(e.object_count(), ref.size());

  auto expect_scan = [&](const std::string& prefix) {
    std::vector<BlobStat> want;
    for (const auto& [k, lv] : ref) {
      if (k.compare(0, prefix.size(), prefix) == 0) want.push_back({k, lv.first, lv.second});
    }
    const std::vector<BlobStat> got = e.scan(prefix);
    ASSERT_EQ(got.size(), want.size()) << "prefix=" << prefix;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].key, want[i].key) << "prefix=" << prefix << " i=" << i;
      ASSERT_EQ(got[i].size, want[i].size) << want[i].key;
      ASSERT_EQ(got[i].version, want[i].version) << want[i].key;
    }
  };
  expect_scan("");
  expect_scan("d1");   // d1/ plus d10/ and d11/
  expect_scan("d7/");
  expect_scan("d3/f9");
  expect_scan("nope");
}

// Write and read outcomes carry the object's length and version, so callers
// need no follow-up size()/version() lookup: they must equal what those
// report, over holes and for reads at or past the end.
TEST(Engine, OutcomesCarryLengthAndVersion) {
  StorageEngine e;
  auto expect_reads = [&](const std::string& key, std::uint64_t off, std::uint64_t len) {
    const std::uint64_t size = e.size(key).value();
    const Version v = e.version(key).value();
    auto r = e.read(key, off, len);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().length, size) << "off=" << off;
    EXPECT_EQ(r.value().version, v) << "off=" << off;
    Bytes dst(len);
    auto ri = e.read_into(key, off, MutableByteView(dst.data(), dst.size()));
    ASSERT_TRUE(ri.ok());
    EXPECT_EQ(ri.value().length, size) << "off=" << off;
    EXPECT_EQ(ri.value().version, v) << "off=" << off;
    auto sp = e.span_probe(key, off, len);
    ASSERT_TRUE(sp.ok());
    EXPECT_EQ(sp.value().version, v) << "off=" << off;
    auto m = e.meta(key);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.value().length, size);
    EXPECT_EQ(m.value().version, v);
  };
  // A write past a hole, then one filling part of it.
  auto w1 = e.write("k", 1000, as_view(make_payload(1, 1000, 200)), true);
  ASSERT_TRUE(w1.ok());
  EXPECT_EQ(w1.value().length, 1200u);
  EXPECT_EQ(w1.value().version, e.version("k").value());
  auto w2 = e.write("k", 100, as_view(make_payload(2, 100, 50)), true);
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2.value().length, 1200u);  // inside the object: length unchanged
  EXPECT_EQ(w2.value().version, w1.value().version + 1);
  for (std::uint64_t off : {0u, 120u, 500u, 1100u, 1199u, 1200u, 5000u}) {
    expect_reads("k", off, 300);
    if (HasFatalFailure()) return;
  }
  // A sparse grow leaves a hole at the end; an empty write still reports.
  ASSERT_TRUE(e.truncate("k", 4096).ok());
  expect_reads("k", 3000, 2000);
  auto w3 = e.write("k", 4096, ByteView{}, true);
  ASSERT_TRUE(w3.ok());
  EXPECT_EQ(w3.value().length, 4096u);
  EXPECT_EQ(w3.value().version, e.version("k").value());
  // A fresh empty object reads at its end.
  ASSERT_TRUE(e.create("empty").ok());
  expect_reads("empty", 0, 10);
  EXPECT_EQ(e.read("gone", 0, 1).code(), Errc::not_found);
  EXPECT_EQ(e.read_into("gone", 0, {}).code(), Errc::not_found);
  EXPECT_EQ(e.meta("gone").code(), Errc::not_found);
}

// Expected contents and version of one object a log-layout test wrote.
struct Expected {
  Bytes data;
  Version version = 0;
};
using ExpectedObjects = std::map<std::string, Expected>;

/// Write `data` at `off` of `key` in the engine and in the expectation.
void write_both(StorageEngine& e, ExpectedObjects& want, const std::string& key,
                std::uint64_t off, const Bytes& data) {
  ASSERT_TRUE(e.write(key, off, as_view(data), true).ok()) << key;
  Expected& w = want[key];
  write_at(w.data, off, as_view(data));
  ++w.version;
}

/// Every object reads back its expected bytes at its expected version, and
/// every stored extent checksum holds.
void expect_contents(const StorageEngine& e, const ExpectedObjects& want) {
  EXPECT_EQ(e.object_count(), want.size());
  for (const auto& [key, w] : want) {
    auto r = e.read(key, 0, w.data.size() + 1);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_TRUE(equal(as_view(r.value().data), as_view(w.data))) << key;
    EXPECT_EQ(e.version(key).value(), w.version) << key;
  }
  EXPECT_TRUE(e.verify_integrity().ok());
}

TEST(Engine, SmallAppendsCrossSealBoundaries) {
  // Two 1.5 KiB appends fit a 4 KiB segment and the third seals it, so the
  // log opens a segment every second append. Bytes appended early into a
  // segment must still read back after it has filled and sealed.
  StorageEngine e(EngineConfig{.segment_bytes = 4096});
  ExpectedObjects want;
  for (int i = 0; i < 24; ++i) {
    const std::string key = "s-" + std::to_string(i % 5);
    const std::uint64_t end = want[key].data.size();
    write_both(e, want, key, end, make_payload(i, end, 1536));
    EXPECT_EQ(e.segments_total(), static_cast<std::uint64_t>(i / 2 + 1)) << i;
  }
  EXPECT_EQ(e.dead_bytes(), 0u);
  expect_contents(e, want);
}

TEST(Engine, OversizedPayloadTakesItsOwnSegment) {
  // A payload of segment size or more gets a segment of its own, whether the
  // active segment is empty (fresh or recycled) or already holds bytes; the
  // next append seals it.
  StorageEngine e(EngineConfig{.segment_bytes = 4096});
  ExpectedObjects want;
  write_both(e, want, "big-a", 0, make_payload(1, 0, 10000));  // empty first segment
  EXPECT_EQ(e.segments_total(), 1u);
  write_both(e, want, "small", 0, make_payload(2, 0, 100));
  EXPECT_EQ(e.segments_total(), 2u);
  write_both(e, want, "big-b", 0, make_payload(3, 0, 4096));  // non-empty, exactly full size
  EXPECT_EQ(e.segments_total(), 3u);
  write_both(e, want, "big-c", 0, make_payload(4, 0, 9000));
  EXPECT_EQ(e.segments_total(), 4u);
  write_both(e, want, "small", 100, make_payload(5, 100, 100));
  EXPECT_EQ(e.segments_total(), 5u);
  expect_contents(e, want);

  // Removing "small" frees its sealed 100 B segment; the next oversized
  // payload seals the active segment and lands in that recycled slot.
  ASSERT_TRUE(e.remove("small").ok());
  want.erase("small");
  write_both(e, want, "big-d", 0, make_payload(6, 0, 12000));
  EXPECT_EQ(e.segments_total(), 5u);
  write_both(e, want, "big-a", 0, make_payload(7, 0, 64));
  expect_contents(e, want);
}

TEST(Engine, CompactionReclaimsDeadBytesAndPreservesData) {
  StorageEngine e(EngineConfig{.segment_bytes = 4096, .compact_dead_ratio = 0.3});
  Rng rng(42);
  ExpectedObjects want;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "obj-" + std::to_string(i % 7);
    const auto off = rng.next_below(2000);
    write_both(e, want, key, off, make_payload(i, off, 500));
  }
  ASSERT_TRUE(e.needs_compaction());
  const std::uint64_t dead = e.dead_bytes();
  EXPECT_EQ(e.compact(), dead);
  EXPECT_EQ(e.dead_bytes(), 0u);
  // The rebuilt log packs the live extents (none over 500 B) through the
  // write path's seal rule, so every sealed segment is over 4096 - 500 B full.
  EXPECT_LE(e.segments_total(), e.live_bytes() / (4096 - 500) + 1);
  expect_contents(e, want);
  // Small appends after compaction continue the rebuilt log.
  for (int i = 0; i < 12; ++i) {
    const std::string key = "obj-" + std::to_string(i % 7);
    const std::uint64_t end = want[key].data.size();
    write_both(e, want, key, end, make_payload(100 + i, end, 1536));
  }
  expect_contents(e, want);
}

TEST(Engine, CheckpointAndWalRecoverSmallAppendLog) {
  // Small appends across seals, a compaction and a checkpoint, then a WAL
  // tail of small appends and an oversized payload: recovery rebuilds the
  // log through the same append path and must match byte for byte.
  const EngineConfig cfg{.segment_bytes = 4096, .compact_dead_ratio = 0.3};
  persist::TempDir dir;
  ExpectedObjects want;
  std::uint64_t ckpt_lsn = 0;
  {
    auto j = persist::Journal::open(dir.path(), {.fsync = persist::FsyncPolicy::always});
    ASSERT_TRUE(j.ok());
    auto journal = std::move(j).take();
    StorageEngine e(cfg);
    e.attach_journal(journal.get());
    for (int i = 0; i < 30; ++i) {
      // Overlapping 1.5 KiB writes at 1 KiB steps leave dead bytes behind.
      const std::string key = "r-" + std::to_string(i % 4);
      const std::uint64_t off = static_cast<std::uint64_t>(i % 3) * 1024;
      write_both(e, want, key, off, make_payload(i, off, 1536));
    }
    ASSERT_GT(e.dead_bytes(), 0u);
    e.compact();
    auto c = e.write_checkpoint();
    ASSERT_TRUE(c.ok());
    ckpt_lsn = c.value();
    for (int i = 0; i < 9; ++i) {
      const std::string key = "t-" + std::to_string(i % 2);
      const std::uint64_t end = want[key].data.size();
      write_both(e, want, key, end, make_payload(50 + i, end, 1536));
    }
    write_both(e, want, "t-big", 0, make_payload(99, 0, 10000));
    write_both(e, want, "r-0", 512, make_payload(98, 512, 1536));
    expect_contents(e, want);
    e.attach_journal(nullptr);
  }
  persist::RecoveryReport report;
  auto r = StorageEngine::recover(dir.path(), cfg, &report);
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(report.checkpoint_lsn, ckpt_lsn);
  EXPECT_EQ(report.records_replayed, 11u);
  expect_contents(r.value(), want);
}

TEST(Engine, StreamedCopiesKeepEveryByteThroughOverwriteCompactionAndRecovery) {
  // Payloads of kStreamCopyMin bytes or more reach segment memory through
  // stream_copy's streaming body: an append, an in-place overwrite of it,
  // and writes larger than segment_bytes, each opening a segment at its
  // own size. The 1000-byte object written first leaves the 1 MiB copies'
  // destination unaligned, and 5 MiB + 123 bytes leaves a partial tail.
  constexpr std::uint64_t kMiB = 1 << 20;
  const EngineConfig cfg{.segment_bytes = 2 * kMiB, .compact_dead_ratio = 0.3};
  const obs::Counter& streamed =
      obs::MetricsRegistry::global().counter("engine.bytes_streamed");
  const auto expect_streamed = [&](std::uint64_t from, std::uint64_t n) {
    EXPECT_EQ(streamed.value() - from, kStreamCopyStreams ? n : 0);
  };
  const std::uint64_t written = 2 * kMiB + (5 * kMiB + 123) + 3 * kMiB;
  persist::TempDir dir;
  ExpectedObjects want;
  {
    auto j = persist::Journal::open(dir.path(), {.fsync = persist::FsyncPolicy::none});
    ASSERT_TRUE(j.ok());
    auto journal = std::move(j).take();
    StorageEngine e(cfg);
    e.attach_journal(journal.get());
    const std::uint64_t before = streamed.value();
    write_both(e, want, "small", 3, make_payload(3, 3, 1000));  // below: cached
    write_both(e, want, "a", 0, make_payload(1, 0, kMiB));
    write_both(e, want, "a", 0, make_payload(2, 0, kMiB));  // exact extent: in place
    EXPECT_EQ(e.dead_bytes(), 0u);
    EXPECT_EQ(e.segments_total(), 1u);
    write_both(e, want, "big", 5, make_payload(4, 5, 5 * kMiB + 123));
    EXPECT_EQ(e.segments_total(), 2u);
    // Supersede the middle of "big": its left and right slices stay live.
    write_both(e, want, "big", 5 + kMiB, make_payload(5, 5 + kMiB, 3 * kMiB));
    EXPECT_EQ(e.segments_total(), 3u);
    expect_streamed(before, written);
    expect_contents(e, want);

    // Compaction re-appends every live extent; all but "small" stream.
    ASSERT_TRUE(e.needs_compaction());
    const std::uint64_t before_compact = streamed.value();
    EXPECT_EQ(e.compact(), 3 * kMiB);
    expect_streamed(before_compact, e.live_bytes() - 1000);
    expect_contents(e, want);
    e.attach_journal(nullptr);
  }
  // WAL replay runs the same writes, the in-place overwrite included.
  const std::uint64_t before_recover = streamed.value();
  auto r = StorageEngine::recover(dir.path(), cfg);
  ASSERT_TRUE(r.ok()) << r.error().message();
  expect_streamed(before_recover, written);
  expect_contents(r.value(), want);
}

TEST(LogSegment, ReleasedBufferServesTheNextSegmentOfItsSize) {
  // A capacity no engine uses, so the pool holds no other buffer of it.
  constexpr std::uint64_t n = 3 * 4096 + 17;
  const Bytes data = make_payload(5, 0, n);
  LogSegment a;
  a.open(n);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.capacity(), n);
  a.append(subview(as_view(data), 0, 100));
  a.append(subview(as_view(data), 100, n - 100));
  EXPECT_TRUE(equal(a.view(), as_view(data)));
  const std::byte* kept = a.data();
  a.release();
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(a.data(), nullptr);

  LogSegment b;
  b.open(n);
  EXPECT_EQ(b.data(), kept);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data()[n - 1], data[n - 1]);  // the same pages, still resident
  // Nothing of capacity n is kept now: the next one is a fresh, zeroed mapping.
  LogSegment c;
  c.open(n);
  EXPECT_NE(c.data(), kept);
  EXPECT_EQ(c.data()[0], std::byte{0});
  EXPECT_EQ(c.data()[n - 1], std::byte{0});
  // A move hands the buffer over; the source is left empty.
  LogSegment d = std::move(c);
  EXPECT_EQ(d.capacity(), n);
  EXPECT_EQ(c.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(SegmentPool, KeepsEveryReleasedMappingAndHandsThemBackNewestFirst) {
  SegmentPool pool;
  constexpr std::size_t n = 2 * 4096;
  constexpr std::size_t kCount = 100;  // more mappings than any fixed cap of 64
  std::vector<void*> maps;
  for (std::size_t i = 0; i < kCount; ++i) maps.push_back(pool.take(n));
  EXPECT_EQ(pool.high_water(), kCount * n);
  for (void* p : maps) pool.give(p, n);
  EXPECT_EQ(pool.kept_bytes(), kCount * n);
  EXPECT_EQ(pool.mapped_bytes(), kCount * n);
  for (auto it = maps.rbegin(); it != maps.rend(); ++it) EXPECT_EQ(pool.take(n), *it);
  EXPECT_EQ(pool.kept_bytes(), 0u);
  EXPECT_EQ(pool.mapped_bytes(), kCount * n);
  for (void* p : maps) pool.give(p, n);
}

TEST(SegmentPool, MissUnmapsOldestKeptMappingsToStayUnderHighWater) {
  SegmentPool pool;
  constexpr std::size_t small = 4096;
  constexpr std::size_t big = 3 * small;
  std::vector<void*> smalls;
  for (int i = 0; i < 4; ++i) smalls.push_back(pool.take(small));
  for (void* p : smalls) pool.give(p, small);
  ASSERT_EQ(pool.high_water(), 4 * small);
  // A miss of another size unmaps the three oldest to make room for itself.
  void* x = pool.take(big);
  EXPECT_EQ(pool.kept_bytes(), small);
  EXPECT_EQ(pool.mapped_bytes(), 4 * small);
  EXPECT_EQ(pool.high_water(), 4 * small);
  EXPECT_EQ(pool.take(small), smalls.back());  // the newest is the one kept
  // With nothing left to unmap, a miss maps past the mark and raises it.
  void* y = pool.take(big);
  EXPECT_EQ(pool.mapped_bytes(), 2 * big + small);
  EXPECT_EQ(pool.high_water(), 2 * big + small);
  pool.give(x, big);
  pool.give(smalls.back(), small);
  pool.give(y, big);
  EXPECT_EQ(pool.kept_bytes(), pool.mapped_bytes());
  EXPECT_LE(pool.mapped_bytes(), pool.high_water());
}

TEST(SegmentPool, ReusedMappingKeepsItsBytesAndAFreshOneIsZeroed) {
  SegmentPool pool;
  constexpr std::size_t n = 2 * 4096;
  auto* p = static_cast<std::byte*>(pool.take(n));
  std::memset(p, 0x5a, n);
  pool.give(p, n);
  auto* reused = static_cast<std::byte*>(pool.take(n));
  EXPECT_EQ(reused, p);
  EXPECT_EQ(reused[0], std::byte{0x5a});
  EXPECT_EQ(reused[n - 1], std::byte{0x5a});
  auto* fresh = static_cast<std::byte*>(pool.take(n));
  EXPECT_NE(fresh, p);
  EXPECT_EQ(fresh[0], std::byte{0});
  EXPECT_EQ(fresh[n - 1], std::byte{0});
  pool.give(reused, n);
  pool.give(fresh, n);
}

TEST(SegmentPool, ConcurrentOwnersNeverShareAMapping) {
  // Each owner stamps every page of its mapping, yields, and checks the
  // stamps before giving it back: a stamp that changed under its owner means
  // one mapping was handed to two owners at once. Rounds alternate two sizes
  // so misses also unmap kept mappings while other threads hold theirs.
  SegmentPool pool;
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kRounds = 400;
  std::atomic<std::uint64_t> clashes{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &clashes, t] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        const std::size_t n = (r % 2 == 0 ? 4 : 6) * kPage;
        auto* p = static_cast<std::byte*>(pool.take(n));
        const std::uint64_t stamp = (std::uint64_t{t} << 32) | r;
        for (std::size_t off = 0; off < n; off += kPage) std::memcpy(p + off, &stamp, 8);
        std::this_thread::yield();
        for (std::size_t off = 0; off < n; off += kPage) {
          std::uint64_t seen = 0;
          std::memcpy(&seen, p + off, 8);
          if (seen != stamp) clashes.fetch_add(1, std::memory_order_relaxed);
        }
        pool.give(p, n);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(clashes.load(), 0u);
  EXPECT_EQ(pool.kept_bytes(), pool.mapped_bytes());
  EXPECT_LE(pool.mapped_bytes(), pool.high_water());
  EXPECT_LE(pool.high_water(), kThreads * 6 * kPage);
}

TEST(Engine, DeadSegmentMappingServesTheNextSegmentOpen) {
  // A segment size no other test uses, so the process pool keeps no other
  // mapping of it.
  constexpr std::uint64_t kSeg = 5 * 4096 + 3;
  auto& reg = obs::MetricsRegistry::global();
  const obs::Counter& maps = reg.counter("engine.segment.maps");
  const obs::Counter& reuses = reg.counter("engine.segment.reuses");
  SegmentPool& pool = SegmentPool::process();
  StorageEngine e(EngineConfig{.segment_bytes = kSeg});
  ExpectedObjects want;
  write_both(e, want, "a", 0, make_payload(11, 0, 4 * 4096));
  write_both(e, want, "b", 0, make_payload(12, 0, 4 * 4096));  // seals segment 0
  const std::uint64_t kept = pool.kept_bytes();
  ASSERT_TRUE(e.remove("a").ok());  // segment 0 is now fully dead
  want.erase("a");
  EXPECT_EQ(pool.kept_bytes(), kept + kSeg);
  const std::uint64_t maps_before = maps.value();
  const std::uint64_t reuses_before = reuses.value();
  write_both(e, want, "c", 0, make_payload(13, 0, 4 * 4096));  // seals 1, reopens slot 0
  EXPECT_EQ(e.segments_total(), 2u);
  EXPECT_EQ(maps.value(), maps_before);
  EXPECT_EQ(reuses.value(), reuses_before + 1);
  EXPECT_EQ(pool.kept_bytes(), kept);
  expect_contents(e, want);
}

TEST(Engine, SteadyStateOverwriteRecyclesSegmentSlots) {
  // A bounded working set overwritten forever must not grow the segment
  // list without bound: every overwrite fully kills the previous round's
  // extents, so their sealed segments become recyclable slots.
  StorageEngine e(EngineConfig{.segment_bytes = 4096});
  const Bytes data = make_payload(9, 0, 4000);
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(e.write("hot-" + std::to_string(k), 0, as_view(data), true).ok());
    }
  }
  // 800 segment-filling writes land in a handful of recycled slots, not 800
  // fresh segments.
  EXPECT_LT(e.segments_total(), 32u);
  EXPECT_TRUE(e.verify_integrity().ok());
  for (int k = 0; k < 4; ++k) {
    auto r = e.read("hot-" + std::to_string(k), 0, 4000);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(as_view(r.value().data), as_view(data)));
  }
}

TEST(Engine, RecycledSlotSurvivesRemoveTruncateAndCompact) {
  StorageEngine e(EngineConfig{.segment_bytes = 2048});
  const Bytes data = make_payload(10, 0, 2000);
  for (int i = 0; i < 8; ++i) {
    const std::string key = "r-" + std::to_string(i);
    ASSERT_TRUE(e.write(key, 0, as_view(data), true).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(e.remove(key).ok());
    } else {
      ASSERT_TRUE(e.truncate(key, 100).ok());
    }
  }
  ASSERT_TRUE(e.write("keep", 0, as_view(data), true).ok());
  EXPECT_TRUE(e.verify_integrity().ok());
  e.compact();
  EXPECT_TRUE(e.verify_integrity().ok());
  auto r = e.read("keep", 0, 2000);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value().data), as_view(data)));
  // Compaction rebuilt the log; steady-state overwrites keep recycling.
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(e.write("keep", 0, as_view(data), true).ok());
  }
  EXPECT_LT(e.segments_total(), 16u);
  EXPECT_TRUE(e.verify_integrity().ok());
}

TEST(Engine, IntegrityDetectsCorruption) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(make_payload(3, 0, 256)), true).ok());
  EXPECT_TRUE(e.verify_integrity().ok());
  ASSERT_TRUE(e.corrupt_for_testing("k"));
  EXPECT_EQ(e.verify_integrity().code(), Errc::io_error);
}

TEST(Engine, RemoveAccountsDeadBytes) {
  StorageEngine e;
  ASSERT_TRUE(e.write("k", 0, as_view(make_payload(4, 0, 512)), true).ok());
  EXPECT_EQ(e.live_bytes(), 512u);
  ASSERT_TRUE(e.remove("k").ok());
  EXPECT_EQ(e.live_bytes(), 0u);
  EXPECT_EQ(e.dead_bytes(), 512u);
}

// Reference model of an engine: per key the logical bytes plus which of them
// are extent-backed (written and not cut off since), and the engine-wide
// count of backed bytes, which is what live_bytes() must report.
class EngineModel {
 public:
  void write(const std::string& key, std::uint64_t off, ByteView data) {
    Object& o = objects_[key];
    write_at(o.data, off, data);
    o.covered.resize(o.data.size(), false);
    for (std::uint64_t i = off; i < off + data.size(); ++i) {
      if (!o.covered[i]) {
        o.covered[i] = true;
        ++live_;
      }
    }
  }

  /// False when `key` does not exist.
  bool truncate(const std::string& key, std::uint64_t size) {
    auto it = objects_.find(key);
    if (it == objects_.end()) return false;
    Object& o = it->second;
    for (std::uint64_t i = size; i < o.covered.size(); ++i) live_ -= o.covered[i] ? 1 : 0;
    o.data.resize(size);  // grow zero-fills, shrink cuts
    o.covered.resize(size, false);
    return true;
  }

  bool remove(const std::string& key) {
    auto it = objects_.find(key);
    if (it == objects_.end()) return false;
    for (bool c : it->second.covered) live_ -= c ? 1 : 0;
    objects_.erase(it);
    return true;
  }

  [[nodiscard]] bool empty() const { return objects_.empty(); }
  [[nodiscard]] std::uint64_t live() const { return live_; }
  [[nodiscard]] std::uint64_t size(const std::string& key) const {
    return objects_.at(key).data.size();
  }
  [[nodiscard]] const std::string& key_at(std::size_t i) const {
    return std::next(objects_.begin(), static_cast<long>(i))->first;
  }
  [[nodiscard]] std::size_t keys() const { return objects_.size(); }

  /// Assert that read() and read_into() of [off, off + len) of `key` return
  /// the model's bytes and backed-byte count.
  void expect_read_matches(const StorageEngine& e, const std::string& key,
                           std::uint64_t off, std::uint64_t len) const {
    const Object& o = objects_.at(key);
    const ByteView expect = subview(as_view(o.data), off, len);
    std::uint64_t covered = 0;
    for (std::uint64_t i = 0; i < expect.size(); ++i) covered += o.covered[off + i] ? 1 : 0;

    auto r = e.read(key, off, len);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(equal(as_view(r.value().data), expect))
        << "read key=" << key << " off=" << off << " len=" << len;
    ASSERT_EQ(r.value().covered, covered) << "read key=" << key << " off=" << off;
    ASSERT_EQ(r.value().length, o.data.size()) << "read key=" << key;
    ASSERT_EQ(r.value().version, e.version(key).value()) << "read key=" << key;

    // read_into writes extent-backed bytes only: holes and the part past
    // the object's end keep the sentinel.
    constexpr std::byte kSentinel{0xa5};
    Bytes dst(len, kSentinel);
    auto ri = e.read_into(key, off, MutableByteView(dst.data(), dst.size()));
    ASSERT_TRUE(ri.ok());
    ASSERT_EQ(ri.value().data_len, expect.size());
    ASSERT_EQ(ri.value().covered, covered) << "read_into key=" << key << " off=" << off;
    ASSERT_EQ(ri.value().length, o.data.size()) << "read_into key=" << key;
    ASSERT_EQ(ri.value().version, r.value().version) << "read_into key=" << key;
    for (std::uint64_t i = 0; i < len; ++i) {
      const bool backed = i < expect.size() && o.covered[off + i];
      ASSERT_EQ(dst[i], backed ? expect[i] : kSentinel)
          << "read_into key=" << key << " off=" << off << " i=" << i;
    }
  }

 private:
  struct Object {
    Bytes data;
    std::vector<bool> covered;
  };
  std::map<std::string, Object> objects_;
  std::uint64_t live_ = 0;
};

// Property sweep: random offset/length write programs agree with an
// in-memory reference model, across segment-boundary regimes. A second phase
// grows one key to over a thousand extents so lookups in a long extent list
// (first/last extent, exact-match overwrites, gaps after truncation) are hit.
class EngineRandomProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineRandomProgram, MatchesReferenceModel) {
  const std::uint64_t seed = GetParam();
  StorageEngine e(EngineConfig{.segment_bytes = 2048, .compact_dead_ratio = 0.5});
  Rng rng(seed);
  EngineModel model;
  for (int step = 0; step < 300; ++step) {
    const std::string key = "k" + std::to_string(rng.next_below(5));
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 6) {
      const auto off = rng.next_below(4000);
      const auto len = 1 + rng.next_below(700);
      const Bytes data = make_payload(seed ^ step, off, len);
      auto w = e.write(key, off, as_view(data), true);
      ASSERT_TRUE(w.ok());
      model.write(key, off, as_view(data));
      ASSERT_EQ(w.value().length, model.size(key)) << "step=" << step;
      ASSERT_EQ(w.value().version, e.version(key).value()) << "step=" << step;
    } else if (action < 8) {
      const auto nsz = rng.next_below(4500);
      auto r = e.truncate(key, nsz);
      if (model.truncate(key, nsz)) {
        ASSERT_TRUE(r.ok());
      } else {
        EXPECT_EQ(r.code(), Errc::not_found);
      }
    } else if (action < 9) {
      auto st = e.remove(key);
      EXPECT_EQ(st.ok(), model.remove(key));
    } else if (e.needs_compaction()) {
      e.compact();
    }
    ASSERT_EQ(e.live_bytes(), model.live()) << "step=" << step;
    // Spot-check a random range of a random object.
    if (!model.empty()) {
      const std::string& k = model.key_at(rng.next_below(model.keys()));
      const auto off = rng.next_below(model.size(k) + 10);
      model.expect_read_matches(e, k, off, rng.next_below(1000));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_TRUE(e.verify_integrity().ok());

  // Many-extent regime: 1 KiB sequential appends, then random overwrites
  // (some exactly one surviving append, the in-place path) and truncates.
  constexpr std::uint64_t kKiB = 1024;
  constexpr std::uint64_t kAppends = 1100;
  const std::string big = "big";
  for (std::uint64_t i = 0; i < kAppends; ++i) {
    const Bytes data = make_payload(seed + i, i * kKiB, kKiB);
    ASSERT_TRUE(e.write(big, i * kKiB, as_view(data), true).ok());
    model.write(big, i * kKiB, as_view(data));
    ASSERT_EQ(e.live_bytes(), model.live()) << "append=" << i;
    model.expect_read_matches(e, big, rng.next_below((i + 1) * kKiB), rng.next_below(4 * kKiB));
    if (HasFatalFailure()) return;
  }
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t size = model.size(big);
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 4) {
      const auto off = rng.next_below(size + kKiB);
      const auto len = 1 + rng.next_below(3 * kKiB);
      const Bytes data = make_payload(seed ^ (step << 8), off, len);
      ASSERT_TRUE(e.write(big, off, as_view(data), true).ok());
      model.write(big, off, as_view(data));
    } else if (action < 7) {
      const auto off = rng.next_below(kAppends) * kKiB;
      const Bytes data = make_payload(seed ^ (step << 16), off, kKiB);
      ASSERT_TRUE(e.write(big, off, as_view(data), true).ok());
      model.write(big, off, as_view(data));
    } else if (action < 9) {
      // Mostly small cuts so the key keeps its many extents; sometimes a
      // grow, which leaves a hole at the end.
      const auto nsz = size - std::min(size, rng.next_below(8 * kKiB)) +
                       (action == 8 ? rng.next_below(4 * kKiB) : 0);
      ASSERT_TRUE(e.truncate(big, nsz).ok());
      ASSERT_TRUE(model.truncate(big, nsz));
    } else if (e.needs_compaction()) {
      e.compact();
    }
    ASSERT_EQ(e.live_bytes(), model.live()) << "big step=" << step;
    const auto off = rng.next_below(model.size(big) + 10);
    model.expect_read_matches(e, big, off, rng.next_below(8 * kKiB));
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(e.verify_integrity().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomProgram,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bsc::blob
