// Tests for the HDFS-like write-once-read-many file system.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "hdfs/hdfs.hpp"
#include "obs/metrics.hpp"
#include "vfs/helpers.hpp"

namespace bsc::hdfs {
namespace {

class HdfsTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  HdfsLikeFs fs_{cluster_};
  sim::SimAgent agent_;
  vfs::IoCtx ctx_{&agent_, 100, 100};
};

TEST_F(HdfsTest, WriteOnceReadMany) {
  const Bytes data = make_payload(1, 0, 3 << 20);  // 3 blocks
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/f", as_view(data)).ok());
  auto back = vfs::read_file(fs_, ctx_, "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
  // Reopen for overwrite: WORM violation.
  EXPECT_EQ(fs_.open(ctx_, "/f", vfs::OpenFlags::wr()).code(), Errc::read_only);
}

TEST_F(HdfsTest, RandomWriteRejected) {
  auto h = fs_.open(ctx_, "/seq", vfs::OpenFlags::wr());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 0, as_view(to_bytes("abc"))).ok());
  EXPECT_EQ(fs_.write(ctx_, h.value(), 100, as_view(to_bytes("x"))).code(),
            Errc::unsupported);
  EXPECT_EQ(fs_.write(ctx_, h.value(), 0, as_view(to_bytes("x"))).code(),
            Errc::unsupported);  // rewriting the start is also rejected
  EXPECT_TRUE(fs_.write(ctx_, h.value(), 3, as_view(to_bytes("def"))).ok());
  ASSERT_TRUE(fs_.close(ctx_, h.value()).ok());
  EXPECT_EQ(to_string(as_view(vfs::read_file(fs_, ctx_, "/seq").value())), "abcdef");
}

TEST_F(HdfsTest, TruncateUnsupported) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/t", as_view(to_bytes("x"))).ok());
  EXPECT_EQ(fs_.truncate(ctx_, "/t", 0).code(), Errc::unsupported);
}

TEST_F(HdfsTest, AppendReopensSealedFile) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/log", as_view(to_bytes("one"))).ok());
  auto h = fs_.open(ctx_, "/log", vfs::OpenFlags::ap());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 3, as_view(to_bytes("two"))).ok());
  ASSERT_TRUE(fs_.sync(ctx_, h.value()).ok());
  ASSERT_TRUE(fs_.close(ctx_, h.value()).ok());
  EXPECT_EQ(to_string(as_view(vfs::read_file(fs_, ctx_, "/log").value())), "onetwo");
}

TEST_F(HdfsTest, DoubleWriterExcluded) {
  auto h1 = fs_.open(ctx_, "/w", vfs::OpenFlags::ap());
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(fs_.open(ctx_, "/w", vfs::OpenFlags::ap()).code(), Errc::busy);
  ASSERT_TRUE(fs_.close(ctx_, h1.value()).ok());
  EXPECT_TRUE(fs_.open(ctx_, "/w", vfs::OpenFlags::ap()).ok());
}

TEST_F(HdfsTest, BlocksChunkedAndReplicated) {
  const std::uint64_t block = fs_.config().block_bytes;
  const Bytes data = make_payload(2, 0, block * 2 + 100);
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/blocks", as_view(data)).ok());
  SimMicros svc = 0;
  auto locs = fs_.namenode().block_locations("/blocks", 0, 0, &svc);
  ASSERT_TRUE(locs.ok());
  ASSERT_EQ(locs.value().size(), 3u);
  EXPECT_EQ(locs.value()[0].length, block);
  EXPECT_EQ(locs.value()[1].length, block);
  EXPECT_EQ(locs.value()[2].length, 100u);
  for (const auto& b : locs.value()) {
    EXPECT_EQ(b.datanodes.size(), fs_.config().replication);
    // Every replica datanode holds the full block.
    for (std::uint32_t dn : b.datanodes) {
      EXPECT_EQ(fs_.datanode(dn).engine().size(blob::id_key(b.id)).value(), b.length);
    }
  }
}

TEST_F(HdfsTest, MidFileRead) {
  const std::uint64_t block = fs_.config().block_bytes;
  const Bytes data = make_payload(3, 0, block * 2 + 500);
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/mid", as_view(data)).ok());
  auto h = fs_.open(ctx_, "/mid", vfs::OpenFlags::rd());
  ASSERT_TRUE(h.ok());
  // Read a range straddling the first block boundary.
  auto r = fs_.read(ctx_, h.value(), block - 100, 300);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), subview(as_view(data), block - 100, 300)));
  // Read clipped at EOF.
  auto tail = fs_.read(ctx_, h.value(), block * 2 + 400, 1000);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().size(), 100u);
}

TEST_F(HdfsTest, DirectoryOperations) {
  ASSERT_TRUE(fs_.mkdir(ctx_, "/a").ok());
  ASSERT_TRUE(fs_.mkdir(ctx_, "/a/b").ok());
  EXPECT_EQ(fs_.mkdir(ctx_, "/a/b").code(), Errc::already_exists);
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/a/f", as_view(to_bytes("x"))).ok());
  auto ls = fs_.readdir(ctx_, "/a");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls.value().size(), 2u);
  EXPECT_EQ(fs_.rmdir(ctx_, "/a").code(), Errc::not_empty);
  ASSERT_TRUE(fs_.unlink(ctx_, "/a/f").ok());
  ASSERT_TRUE(fs_.rmdir(ctx_, "/a/b").ok());
  EXPECT_TRUE(fs_.rmdir(ctx_, "/a").ok());
}

TEST_F(HdfsTest, UnlinkReleasesBlocks) {
  const Bytes data = make_payload(4, 0, 2 << 20);
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/del", as_view(data)).ok());
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < fs_.datanode_count(); ++i) {
    before += fs_.datanode(i).engine().live_bytes();
  }
  EXPECT_GT(before, 0u);
  ASSERT_TRUE(fs_.unlink(ctx_, "/del").ok());
  std::uint64_t after = 0;
  for (std::size_t i = 0; i < fs_.datanode_count(); ++i) {
    after += fs_.datanode(i).engine().live_bytes();
  }
  EXPECT_EQ(after, 0u);
  EXPECT_EQ(fs_.stat(ctx_, "/del").code(), Errc::not_found);
}

TEST_F(HdfsTest, RenameNoReplace) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/src", as_view(to_bytes("abc"))).ok());
  ASSERT_TRUE(fs_.mkdir(ctx_, "/dst").ok());
  ASSERT_TRUE(fs_.rename(ctx_, "/src", "/dst/moved").ok());
  EXPECT_EQ(to_string(as_view(vfs::read_file(fs_, ctx_, "/dst/moved").value())), "abc");
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/src2", as_view(to_bytes("x"))).ok());
  EXPECT_EQ(fs_.rename(ctx_, "/src2", "/dst/moved").code(), Errc::already_exists);
}

TEST_F(HdfsTest, Xattrs) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/x", as_view(to_bytes("x"))).ok());
  ASSERT_TRUE(fs_.setxattr(ctx_, "/x", "user.k", "v").ok());
  EXPECT_EQ(fs_.getxattr(ctx_, "/x", "user.k").value(), "v");
  EXPECT_EQ(fs_.getxattr(ctx_, "/x", "user.none").code(), Errc::not_found);
}

TEST_F(HdfsTest, PipelineChargesMoreThanSingleReplica) {
  sim::Cluster c1;
  HdfsLikeFs single(c1, HdfsConfig{.replication = 1});
  sim::Cluster c3;
  HdfsLikeFs triple(c3, HdfsConfig{.replication = 3});
  sim::SimAgent a1;
  sim::SimAgent a3;
  const Bytes data = make_payload(5, 0, 1 << 20);
  ASSERT_TRUE(vfs::write_file(single, vfs::IoCtx{&a1, 0, 0}, "/f", as_view(data)).ok());
  ASSERT_TRUE(vfs::write_file(triple, vfs::IoCtx{&a3, 0, 0}, "/f", as_view(data)).ok());
  EXPECT_GT(a3.now(), a1.now());
}

// Every HDFS leg is charged through the transport's reliable entry point: an
// append into the open block is one leg per pipeline hop (R of them), and
// so is an hflush; the block allocation before the first append is one
// namenode leg.
TEST(HdfsLegs, AppendIsOneReliableLegPerPipelineHop) {
  for (const std::uint32_t r : {1u, 3u}) {
    sim::Cluster cluster;
    HdfsLikeFs fs(cluster, HdfsConfig{.replication = r});
    sim::SimAgent agent;
    const vfs::IoCtx ctx{&agent, 0, 0};
    auto h = fs.open(ctx, "/p", vfs::OpenFlags::wr());
    ASSERT_TRUE(h.ok());
    const Bytes data = make_payload(7, 0, 4096);
    auto calls_for = [&](auto&& op) {
      const auto before = obs::MetricsRegistry::global().snapshot();
      op();
      return obs::MetricsRegistry::global().snapshot().delta_since(before).counters.at(
          "rpc.reliable_calls");
    };
    EXPECT_EQ(calls_for([&] { ASSERT_TRUE(fs.write(ctx, h.value(), 0, as_view(data)).ok()); }),
              1u + r)
        << "R=" << r;
    EXPECT_EQ(
        calls_for([&] { ASSERT_TRUE(fs.write(ctx, h.value(), 4096, as_view(data)).ok()); }), r)
        << "R=" << r;
    EXPECT_EQ(calls_for([&] { ASSERT_TRUE(fs.sync(ctx, h.value()).ok()); }), r) << "R=" << r;
  }
}

// Direct calls on one datanode pin its service-time rules: 3 µs of CPU per
// op plus 0.0001 µs per byte, appends sequential on the disk model (30 µs
// controller, 100 B/µs), reads 1 µs when page-cache resident.
class DatanodeCharges : public HdfsTest {
 protected:
  struct Read {
    Errc code = Errc::ok;
    Bytes data;
    SimMicros us = 0;
  };

  Datanode& dn() { return fs_.datanode(0); }

  SimMicros append(std::uint64_t id, std::uint64_t off, std::uint64_t len) {
    SimMicros us = 0;
    EXPECT_TRUE(dn().append(id, as_view(make_payload(id, off, len)), &us).ok());
    return us;
  }
  Read read(std::uint64_t id, std::uint64_t off, std::uint64_t len) {
    Read r;
    r.data.assign(len, std::byte{0});
    auto got = dn().read(id, off, r.data, &r.us);
    r.code = got.code();
    r.data.resize(got.ok() ? got.value() : 0);
    return r;
  }
  SimMicros drop(std::uint64_t id) {
    SimMicros us = 0;
    dn().drop(id, &us);
    return us;
  }
  std::uint64_t stored() { return dn().engine().live_bytes(); }
};

TEST_F(DatanodeCharges, ZeroLengthAppendMakesAnEmptyBlock) {
  EXPECT_EQ(append(501, 0, 0), 3 + 30);
  const Read r = read(501, 0, 10);
  EXPECT_EQ(r.code, Errc::ok);
  EXPECT_TRUE(r.data.empty());
  EXPECT_EQ(r.us, 3 + 1);
}

TEST_F(DatanodeCharges, AppendsAreSequentialAndReadsGatherAcrossThem) {
  EXPECT_EQ(append(502, 0, 100000), 3 + 10 + 30 + 1000);
  EXPECT_EQ(append(502, 100000, 100000), 1043);
  const Read r = read(502, 150000, 100000);
  EXPECT_TRUE(equal(as_view(r.data), as_view(make_payload(502, 150000, 50000))));
  EXPECT_EQ(r.us, 3 + 5 + 1);
}

TEST_F(DatanodeCharges, ReadOfAMissingBlockIsNotFoundAtCpuCost) {
  const Read r = read(503, 0, 10);
  EXPECT_EQ(r.code, Errc::not_found);
  EXPECT_EQ(r.us, 3);
}

TEST_F(DatanodeCharges, DropLowersTheStoredBytes) {
  const std::uint64_t before = stored();
  ASSERT_EQ(append(504, 0, 1000), 43);
  ASSERT_EQ(append(505, 0, 3000), 3 + 30 + 30);
  EXPECT_EQ(stored(), before + 4000);
  EXPECT_EQ(drop(504), 3);
  EXPECT_EQ(stored(), before + 3000);
  EXPECT_EQ(read(504, 0, 10).code, Errc::not_found);
  EXPECT_EQ(drop(504), 3);
  EXPECT_EQ(stored(), before + 3000);
}

// Datanode blocks live in the blob StorageEngine, so HDFS traffic publishes
// at the engine layer: an append at R = 3 is one engine write per replica,
// and a read is one engine read at the first replica.
TEST(HdfsEngine, AppendAtThreeReplicasIsThreeEngineWrites) {
  sim::Cluster cluster;
  HdfsLikeFs fs(cluster, HdfsConfig{.replication = 3});
  sim::SimAgent agent;
  const vfs::IoCtx ctx{&agent, 0, 0};
  const Bytes data = make_payload(9, 0, 4096);
  auto before = obs::MetricsRegistry::global().snapshot();
  ASSERT_TRUE(vfs::write_file(fs, ctx, "/e", as_view(data)).ok());
  auto d = obs::MetricsRegistry::global().snapshot().delta_since(before);
  EXPECT_EQ(d.counters.at("engine.op.write"), 3u);
  EXPECT_EQ(d.counters.at("engine.bytes_written"), 3u * 4096u);
  before = obs::MetricsRegistry::global().snapshot();
  auto back = vfs::read_file(fs, ctx, "/e");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
  d = obs::MetricsRegistry::global().snapshot().delta_since(before);
  EXPECT_EQ(d.counters.at("engine.op.read"), 1u);
  EXPECT_EQ(d.counters.at("engine.bytes_read"), 4096u);
}

// Parameterized over write granularity: block accounting must hold for any
// caller chunking.
class HdfsWriteChunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HdfsWriteChunking, SizeAndContentCorrect) {
  sim::Cluster cluster;
  HdfsLikeFs fs(cluster, HdfsConfig{.block_bytes = 64 * 1024});
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 0, 0};
  const Bytes data = make_payload(GetParam(), 0, 300000);
  ASSERT_TRUE(vfs::write_file(fs, ctx, "/f", as_view(data), GetParam()).ok());
  EXPECT_EQ(fs.stat(ctx, "/f").value().size, 300000u);
  auto back = vfs::read_file(fs, ctx, "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
}

INSTANTIATE_TEST_SUITE_P(Chunks, HdfsWriteChunking,
                         ::testing::Values(1000ULL, 4096ULL, 65536ULL, 100000ULL, 300000ULL));

}  // namespace
}  // namespace bsc::hdfs
