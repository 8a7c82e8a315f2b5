// Tests for the distributed blob store through its client: the §III
// primitive set, replication convergence, scan semantics, timing.
#include <gtest/gtest.h>

#include "blob/client.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace bsc::blob {
namespace {

class BlobClientTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  BlobStore store_{cluster_};
  sim::SimAgent agent_;
  BlobClient client_{store_, &agent_};
};

TEST_F(BlobClientTest, CreateWriteReadRemove) {
  ASSERT_TRUE(client_.create("k").ok());
  EXPECT_TRUE(client_.exists("k"));
  const Bytes data = make_payload(1, 0, 4096);
  ASSERT_TRUE(client_.write("k", 0, as_view(data)).ok());
  EXPECT_EQ(client_.size("k").value(), 4096u);
  auto r = client_.read("k", 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(data)));
  ASSERT_TRUE(client_.remove("k").ok());
  EXPECT_FALSE(client_.exists("k"));
}

TEST_F(BlobClientTest, WriteAutoCreates) {
  ASSERT_TRUE(client_.write("fresh", 10, as_view(to_bytes("abc"))).ok());
  EXPECT_EQ(client_.size("fresh").value(), 13u);
}

TEST_F(BlobClientTest, CreateExistingFails) {
  ASSERT_TRUE(client_.create("k").ok());
  EXPECT_EQ(client_.create("k").code(), Errc::already_exists);
}

TEST_F(BlobClientTest, TruncateChangesSize) {
  ASSERT_TRUE(client_.write("k", 0, as_view(make_payload(2, 0, 1000))).ok());
  ASSERT_TRUE(client_.truncate("k", 100).ok());
  EXPECT_EQ(client_.size("k").value(), 100u);
  ASSERT_TRUE(client_.truncate("k", 500).ok());
  auto r = client_.read("k", 0, 500);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 500u);
  for (std::size_t i = 100; i < 500; ++i) EXPECT_EQ(r.value()[i], std::byte{0});
}

TEST_F(BlobClientTest, ReadMissingFails) {
  EXPECT_EQ(client_.read("nope", 0, 10).code(), Errc::not_found);
  EXPECT_EQ(client_.size("nope").code(), Errc::not_found);
}

TEST_F(BlobClientTest, ReplicasConvergeByteIdentical) {
  const Bytes data = make_payload(3, 0, 10000);
  ASSERT_TRUE(client_.write("r", 0, as_view(data)).ok());
  ASSERT_TRUE(client_.truncate("r", 8000).ok());
  const auto replicas = store_.replicas_of("r");
  ASSERT_EQ(replicas.size(), 3u);
  for (std::uint32_t n : replicas) {
    SimMicros svc = 0;
    auto r = store_.server(n).read("r", 0, 8000, &svc);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(as_view(r.value().data), subview(as_view(data), 0, 8000)));
    EXPECT_EQ(store_.server(n).stat("r", &svc).value().version,
              store_.server(replicas.front()).stat("r", &svc).value().version);
  }
}

TEST_F(BlobClientTest, ScanDeduplicatesReplicasAndSorts) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_.create(strfmt("s-%02d", i)).ok());
  }
  auto scan = client_.scan();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().size(), 20u);  // replicas deduplicated
  for (std::size_t i = 1; i < scan.value().size(); ++i) {
    EXPECT_LT(scan.value()[i - 1].key, scan.value()[i].key);
  }
  auto filtered = client_.scan("s-1");
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered.value().size(), 10u);  // s-10..s-19
}

TEST_F(BlobClientTest, CountersTrackOps) {
  ASSERT_TRUE(client_.create("c").ok());
  ASSERT_TRUE(client_.write("c", 0, as_view(to_bytes("xyz"))).ok());
  (void)client_.read("c", 0, 3);
  (void)client_.size("c");
  (void)client_.scan();
  ASSERT_TRUE(client_.remove("c").ok());
  const auto& c = client_.counters();
  EXPECT_EQ(c.creates, 1u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.sizes, 1u);
  EXPECT_EQ(c.scans, 1u);
  EXPECT_EQ(c.removes, 1u);
  EXPECT_EQ(c.bytes_written, 3u);
  EXPECT_EQ(c.bytes_read, 3u);
}

TEST_F(BlobClientTest, TimeAdvancesWithEveryOp) {
  const SimMicros t0 = agent_.now();
  ASSERT_TRUE(client_.write("t", 0, as_view(make_payload(5, 0, 100000))).ok());
  const SimMicros t1 = agent_.now();
  EXPECT_GT(t1, t0);
  (void)client_.read("t", 0, 100000);
  EXPECT_GT(agent_.now(), t1);
}

TEST_F(BlobClientTest, WritesAreSequentialOnDisk) {
  // Log-structured engine: even a random-offset overwrite storm stays
  // cheaper than the equivalent random-I/O cost on an update-in-place disk.
  Rng rng(7);
  sim::SimAgent a;
  BlobClient c(store_, &a);
  const Bytes chunk = make_payload(6, 0, 4096);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(c.write("w", rng.next_below(1 << 20), as_view(chunk)).ok());
  }
  // 50 random 4K writes on a raw HDD would cost >= 50 * ~12.7ms of seek
  // alone; the log-structured path must come in far below that.
  EXPECT_LT(a.now(), 50 * 12700);
}

TEST_F(BlobClientTest, ConcurrentClientsDontCorrupt) {
  constexpr int kThreads = 8;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    sim::SimAgent a;
    BlobClient c(store_, &a);
    const Bytes data = make_payload(t, 0, 2048);
    const std::string key = strfmt("par-%zu", t);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(c.write(key, static_cast<std::uint64_t>(i) * 2048, as_view(data)).ok());
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    const std::string key = strfmt("par-%d", t);
    EXPECT_EQ(client_.size(key).value(), 20u * 2048u);
    auto r = client_.read(key, 19 * 2048, 2048);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(check_payload(t, 0, as_view(r.value())));
  }
  EXPECT_TRUE(store_.verify_all_integrity().ok());
}

// Parameterized sweep over write sizes and offsets spanning chunk/segment
// boundaries.
class BlobWriteSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(BlobWriteSweep, RoundTrips) {
  const auto [offset, len] = GetParam();
  sim::Cluster cluster;
  BlobStore store(cluster);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  const Bytes data = make_payload(offset ^ len, offset, len);
  ASSERT_TRUE(client.write("sweep", offset, as_view(data)).ok());
  EXPECT_EQ(client.size("sweep").value(), offset + len);
  auto r = client.read("sweep", offset, len);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(data)));
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndSizes, BlobWriteSweep,
    ::testing::Combine(::testing::Values(0ULL, 1ULL, 4095ULL, 1ULL << 20, (1ULL << 23) + 17),
                       ::testing::Values(1ULL, 511ULL, 4096ULL, 65536ULL)));

TEST(BlobStoreConfig, ReplicationOneStillWorks) {
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.replication = 1;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ASSERT_TRUE(client.write("k", 0, as_view(to_bytes("solo"))).ok());
  EXPECT_EQ(to_string(as_view(client.read("k", 0, 4).value())), "solo");
  EXPECT_EQ(store.replicas_of("k").size(), 1u);
}

}  // namespace
}  // namespace bsc::blob
