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
      EXPECT_EQ(fs_.datanode(dn).block_length(b.id).value(), b.length);
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
    before += fs_.datanode(i).bytes_stored();
  }
  EXPECT_GT(before, 0u);
  ASSERT_TRUE(fs_.unlink(ctx_, "/del").ok());
  std::uint64_t after = 0;
  for (std::size_t i = 0; i < fs_.datanode_count(); ++i) {
    after += fs_.datanode(i).bytes_stored();
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
