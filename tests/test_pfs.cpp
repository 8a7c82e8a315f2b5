// Tests for the POSIX-compliant parallel file system: namespace semantics,
// permissions, striping, strict visibility, locking, unlink-while-open.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "pfs/pfs.hpp"
#include "vfs/helpers.hpp"

namespace bsc::pfs {
namespace {

class PfsTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  LustreLikeFs fs_{cluster_};
  sim::SimAgent agent_;
  vfs::IoCtx ctx_{&agent_, 100, 100};
};

TEST_F(PfsTest, CreateWriteReadFile) {
  const Bytes data = make_payload(1, 0, 300000);  // spans several stripes
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/f", as_view(data)).ok());
  auto back = vfs::read_file(fs_, ctx_, "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
  EXPECT_EQ(fs_.stat(ctx_, "/f").value().size, 300000u);
}

TEST_F(PfsTest, OpenMissingFails) {
  EXPECT_EQ(fs_.open(ctx_, "/missing", vfs::OpenFlags::rd()).code(), Errc::not_found);
}

TEST_F(PfsTest, OpenWithoutModeFails) {
  EXPECT_EQ(fs_.open(ctx_, "/x", vfs::OpenFlags{}).code(), Errc::invalid_argument);
}

TEST_F(PfsTest, ExclusiveCreateFailsOnExisting) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/e", as_view(to_bytes("x"))).ok());
  vfs::OpenFlags excl = vfs::OpenFlags::wr();
  excl.exclusive = true;
  EXPECT_EQ(fs_.open(ctx_, "/e", excl).code(), Errc::already_exists);
}

TEST_F(PfsTest, MkdirRmdirReaddir) {
  ASSERT_TRUE(fs_.mkdir(ctx_, "/d").ok());
  ASSERT_TRUE(fs_.mkdir(ctx_, "/d/sub").ok());
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/d/file", as_view(to_bytes("x"))).ok());
  auto entries = fs_.readdir(ctx_, "/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 2u);
  EXPECT_EQ(entries.value()[0].name, "file");
  EXPECT_EQ(entries.value()[0].type, vfs::FileType::regular);
  EXPECT_EQ(entries.value()[1].name, "sub");
  EXPECT_EQ(entries.value()[1].type, vfs::FileType::directory);
  EXPECT_EQ(fs_.rmdir(ctx_, "/d").code(), Errc::not_empty);
  ASSERT_TRUE(fs_.unlink(ctx_, "/d/file").ok());
  ASSERT_TRUE(fs_.rmdir(ctx_, "/d/sub").ok());
  EXPECT_TRUE(fs_.rmdir(ctx_, "/d").ok());
}

TEST_F(PfsTest, MkdirRequiresExistingParent) {
  EXPECT_EQ(fs_.mkdir(ctx_, "/no/such/parent").code(), Errc::not_found);
}

TEST_F(PfsTest, PermissionsEnforced) {
  vfs::IoCtx owner{&agent_, 100, 100};
  vfs::IoCtx other{&agent_, 200, 200};
  ASSERT_TRUE(fs_.mkdir(ctx_, "/private", 0700).ok());
  ASSERT_TRUE(vfs::write_file(fs_, owner, "/private/secret", as_view(to_bytes("s"))).ok());
  // Other user: no execute on the directory -> lookup denied.
  EXPECT_EQ(fs_.open(other, "/private/secret", vfs::OpenFlags::rd()).code(),
            Errc::permission);
  // File mode 0600: group/other cannot read even with directory access.
  ASSERT_TRUE(fs_.chmod(owner, "/private", 0755).ok());
  ASSERT_TRUE(fs_.chmod(owner, "/private/secret", 0600).ok());
  EXPECT_EQ(fs_.open(other, "/private/secret", vfs::OpenFlags::rd()).code(),
            Errc::permission);
  EXPECT_TRUE(fs_.open(owner, "/private/secret", vfs::OpenFlags::rd()).ok());
}

TEST_F(PfsTest, ChmodOnlyByOwnerOrRoot) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/owned", as_view(to_bytes("x"))).ok());
  vfs::IoCtx other{&agent_, 200, 200};
  EXPECT_EQ(fs_.chmod(other, "/owned", 0777).code(), Errc::permission);
  vfs::IoCtx root{&agent_, 0, 0};
  EXPECT_TRUE(fs_.chmod(root, "/owned", 0640).ok());
  EXPECT_EQ(fs_.stat(ctx_, "/owned").value().mode, 0640u);
}

TEST_F(PfsTest, StrictVisibilityAcrossHandles) {
  // POSIX: a write must be immediately visible to every other process.
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/shared", as_view(to_bytes("before"))).ok());
  auto h1 = fs_.open(ctx_, "/shared", vfs::OpenFlags::rw());
  ASSERT_TRUE(h1.ok());
  sim::SimAgent other_agent;
  vfs::IoCtx other{&other_agent, 100, 100};
  auto h2 = fs_.open(other, "/shared", vfs::OpenFlags::rd());
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(fs_.write(ctx_, h1.value(), 0, as_view(to_bytes("AFTER!"))).ok());
  auto r = fs_.read(other, h2.value(), 0, 6);  // no sync needed
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(as_view(r.value())), "AFTER!");
}

TEST_F(PfsTest, AppendModeWritesAtEof) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/log", as_view(to_bytes("one"))).ok());
  auto h = fs_.open(ctx_, "/log", vfs::OpenFlags::ap());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 0, as_view(to_bytes("two"))).ok());
  ASSERT_TRUE(fs_.close(ctx_, h.value()).ok());
  auto back = vfs::read_file(fs_, ctx_, "/log");
  EXPECT_EQ(to_string(as_view(back.value())), "onetwo");
}

TEST_F(PfsTest, TruncateShrinkGrowNoStaleData) {
  const Bytes data = make_payload(2, 0, 200000);
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/t", as_view(data)).ok());
  ASSERT_TRUE(fs_.truncate(ctx_, "/t", 70000).ok());
  EXPECT_EQ(fs_.stat(ctx_, "/t").value().size, 70000u);
  // Grow again past the cut: the gap must read as zeros.
  auto h = fs_.open(ctx_, "/t", vfs::OpenFlags::rw());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 150000, as_view(to_bytes("tail"))).ok());
  auto r = fs_.read(ctx_, h.value(), 0, 150004);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 150004u);
  EXPECT_TRUE(equal(subview(as_view(r.value()), 0, 70000), subview(as_view(data), 0, 70000)));
  for (std::size_t i = 70000; i < 150000; ++i) {
    ASSERT_EQ(r.value()[i], std::byte{0}) << "stale byte at " << i;
  }
  EXPECT_EQ(to_string(subview(as_view(r.value()), 150000, 4)), "tail");
}

TEST_F(PfsTest, UnlinkWhileOpenDelaysReclaim) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/u", as_view(to_bytes("keepme"))).ok());
  auto h = fs_.open(ctx_, "/u", vfs::OpenFlags::rd());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.unlink(ctx_, "/u").ok());
  EXPECT_EQ(fs_.stat(ctx_, "/u").code(), Errc::not_found);  // gone from namespace
  auto r = fs_.read(ctx_, h.value(), 0, 6);                 // data still readable
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(as_view(r.value())), "keepme");
  ASSERT_TRUE(fs_.close(ctx_, h.value()).ok());
  EXPECT_TRUE(fs_.mds().check_tree_invariants().ok());
}

TEST_F(PfsTest, RenameMovesAndReplaces) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/a", as_view(to_bytes("aaa"))).ok());
  ASSERT_TRUE(fs_.mkdir(ctx_, "/dir").ok());
  ASSERT_TRUE(fs_.rename(ctx_, "/a", "/dir/b").ok());
  EXPECT_EQ(fs_.stat(ctx_, "/a").code(), Errc::not_found);
  EXPECT_EQ(to_string(as_view(vfs::read_file(fs_, ctx_, "/dir/b").value())), "aaa");
  // Replace an existing destination atomically.
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/c", as_view(to_bytes("ccc"))).ok());
  ASSERT_TRUE(fs_.rename(ctx_, "/c", "/dir/b").ok());
  EXPECT_EQ(to_string(as_view(vfs::read_file(fs_, ctx_, "/dir/b").value())), "ccc");
}

TEST_F(PfsTest, RenameDirOverNonEmptyDirFails) {
  ASSERT_TRUE(fs_.mkdir(ctx_, "/d1").ok());
  ASSERT_TRUE(fs_.mkdir(ctx_, "/d2").ok());
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/d2/f", as_view(to_bytes("x"))).ok());
  EXPECT_EQ(fs_.rename(ctx_, "/d1", "/d2").code(), Errc::not_empty);
}

TEST_F(PfsTest, Xattrs) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/x", as_view(to_bytes("x"))).ok());
  EXPECT_EQ(fs_.getxattr(ctx_, "/x", "user.tag").code(), Errc::not_found);
  ASSERT_TRUE(fs_.setxattr(ctx_, "/x", "user.tag", "v1").ok());
  EXPECT_EQ(fs_.getxattr(ctx_, "/x", "user.tag").value(), "v1");
  ASSERT_TRUE(fs_.setxattr(ctx_, "/x", "user.tag", "v2").ok());
  EXPECT_EQ(fs_.getxattr(ctx_, "/x", "user.tag").value(), "v2");
}

TEST_F(PfsTest, StripingDistributesAcrossOsts) {
  const Bytes data = make_payload(3, 0, 1 << 20);  // 16 stripes of 64 KiB
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/striped", as_view(data)).ok());
  std::size_t osts_used = 0;
  for (std::size_t i = 0; i < fs_.ost_count(); ++i) {
    if (fs_.ost(i).engine().live_bytes() > 0) ++osts_used;
  }
  EXPECT_EQ(osts_used, fs_.ost_count());  // 1 MiB over 8 OSTs touches all
}

// Every PFS leg is charged through the transport's reliable entry point, so
// rpc.reliable_calls counts them: a read over three stripes is one MDS leg
// (size glimpse + range lock) and one OST leg per stripe.
TEST_F(PfsTest, ReadOverThreeStripesIsOneMdsLegPlusOneLegPerStripe) {
  const std::uint64_t len = 3 * PfsConfig{}.stripe_size;
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/three", as_view(make_payload(6, 0, len))).ok());
  auto h = fs_.open(ctx_, "/three", vfs::OpenFlags::rd());
  ASSERT_TRUE(h.ok());
  const auto before = obs::MetricsRegistry::global().snapshot();
  const SimMicros t0 = agent_.now();
  auto r = fs_.read(ctx_, h.value(), 0, len);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), len);
  const auto d = obs::MetricsRegistry::global().snapshot().delta_since(before);
  EXPECT_EQ(d.counters.at("rpc.reliable_calls"), 1u + 3u);
  EXPECT_EQ(d.histogram_stats("rpc.call.latency_us").count, 1u + 3u);
  EXPECT_GT(agent_.now(), t0);
}

// OST bytes live in the blob StorageEngine, so PFS traffic publishes at the
// engine layer: one engine op per stripe object a write or read touches.
TEST_F(PfsTest, ThreeStripeWriteIsThreeEngineWrites) {
  const std::uint64_t len = 3 * PfsConfig{}.stripe_size;
  const Bytes data = make_payload(8, 0, len);
  auto h = fs_.open(ctx_, "/engine", vfs::OpenFlags::rw());
  ASSERT_TRUE(h.ok());
  auto before = obs::MetricsRegistry::global().snapshot();
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 0, as_view(data)).ok());
  auto d = obs::MetricsRegistry::global().snapshot().delta_since(before);
  EXPECT_EQ(d.counters.at("engine.op.write"), 3u);
  EXPECT_EQ(d.counters.at("engine.bytes_written"), len);
  before = obs::MetricsRegistry::global().snapshot();
  auto back = fs_.read(ctx_, h.value(), 0, len);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
  d = obs::MetricsRegistry::global().snapshot().delta_since(before);
  EXPECT_EQ(d.counters.at("engine.op.read"), 3u);
  EXPECT_EQ(d.counters.at("engine.bytes_read"), len);
}

TEST_F(PfsTest, LockManagerSeesTraffic) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/locked", as_view(make_payload(4, 0, 1000))).ok());
  const auto w0 = fs_.lock_manager().exclusive_grants();
  auto h = fs_.open(ctx_, "/locked", vfs::OpenFlags::rw());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 0, as_view(to_bytes("xx"))).ok());
  (void)fs_.read(ctx_, h.value(), 0, 2);
  EXPECT_GT(fs_.lock_manager().exclusive_grants(), w0);
  EXPECT_GT(fs_.lock_manager().shared_grants(), 0u);
}

TEST_F(PfsTest, RelaxedModeSkipsLocking) {
  sim::Cluster cluster;
  LustreLikeFs relaxed(cluster, PfsConfig{.strict_locking = false});
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  ASSERT_TRUE(vfs::write_file(relaxed, ctx, "/f", as_view(make_payload(5, 0, 4096))).ok());
  auto back = vfs::read_file(relaxed, ctx, "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(relaxed.lock_manager().exclusive_grants(), 0u);
  EXPECT_EQ(relaxed.lock_manager().shared_grants(), 0u);
}

TEST_F(PfsTest, SharedFileWritersSerializeInSimTime) {
  // Two writers to the same byte range: with strict locking the second
  // writer's completion reflects waiting for the first one's lock.
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/contend", as_view(make_payload(6, 0, 64))).ok());
  sim::SimAgent a1;
  sim::SimAgent a2;
  vfs::IoCtx c1{&a1, 100, 100};
  vfs::IoCtx c2{&a2, 100, 100};
  auto h1 = fs_.open(c1, "/contend", vfs::OpenFlags::rw());
  auto h2 = fs_.open(c2, "/contend", vfs::OpenFlags::rw());
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  const Bytes big = make_payload(7, 0, 512 * 1024);
  ASSERT_TRUE(fs_.write(c1, h1.value(), 0, as_view(big)).ok());
  const SimMicros t1 = a1.now();
  ASSERT_TRUE(fs_.write(c2, h2.value(), 0, as_view(big)).ok());
  EXPECT_GT(a2.now(), t1);  // queued behind writer 1's lock hold
}

TEST_F(PfsTest, HandleLifecycle) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/h", as_view(to_bytes("x"))).ok());
  EXPECT_EQ(fs_.open_handle_count(), 0u);
  auto h = fs_.open(ctx_, "/h", vfs::OpenFlags::rd());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(fs_.open_handle_count(), 1u);
  EXPECT_EQ(fs_.read(ctx_, 9999, 0, 1).code(), Errc::closed);
  ASSERT_TRUE(fs_.close(ctx_, h.value()).ok());
  EXPECT_EQ(fs_.close(ctx_, h.value()).code(), Errc::closed);
  EXPECT_EQ(fs_.open_handle_count(), 0u);
}

TEST_F(PfsTest, ConcurrentDisjointFilesParallel) {
  ThreadPool pool(8);
  pool.parallel_for(8, [&](std::size_t t) {
    sim::SimAgent a;
    vfs::IoCtx c{&a, 100, 100};
    const Bytes data = make_payload(t, 0, 100000);
    ASSERT_TRUE(vfs::write_file(fs_, c, strfmt("/par-%zu", t), as_view(data)).ok());
    auto back = vfs::read_file(fs_, c, strfmt("/par-%zu", t));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
  });
  EXPECT_TRUE(fs_.mds().check_tree_invariants().ok());
}

// Direct calls on one OST pin its service-time rules: 3 µs of CPU per op
// plus 0.0001 µs per byte, and the disk model's 30 µs controller, 8 500 +
// 4 170 µs seek and rotation on a random access and 100 B/µs transfer. A
// sequential write starts where the object's last write ended. The OST is
// fs_.ost(0), which holds stripe object 0 of every inode it stores.
class OstCharges : public PfsTest {
 protected:
  struct Read {
    Bytes data;
    SimMicros us = 0;
  };

  ObjectStorageTarget& ost() { return fs_.ost(0); }

  SimMicros write(InodeId ino, std::uint64_t off, std::uint64_t len) {
    SimMicros us = 0;
    EXPECT_TRUE(ost().write(ino, off, as_view(make_payload(ino, off, len)), &us).ok());
    return us;
  }
  Read read(InodeId ino, std::uint64_t off, std::uint64_t len) {
    Read r;
    r.data.assign(len, std::byte{0});
    r.data.resize(ost().read(ino, off, r.data, &r.us));
    return r;
  }
  SimMicros truncate(InodeId ino, std::uint64_t len) {
    SimMicros us = 0;
    EXPECT_TRUE(ost().truncate(ino, len, &us).ok());
    return us;
  }
  SimMicros remove(InodeId ino) {
    SimMicros us = 0;
    ost().remove_inode(ino, &us);
    return us;
  }
};

TEST_F(OstCharges, FirstWriteIsSequential) {
  EXPECT_EQ(write(1001, 0, 100000), 3 + 10 + 30 + 1000);
}

TEST_F(OstCharges, SequentialMeansAtTheLastWriteEndNotAtTheObjectEnd) {
  EXPECT_EQ(write(1002, 0, 100000), 1043);
  EXPECT_EQ(write(1002, 0, 1000), 3 + 30 + 8500 + 4170 + 10);  // back to the start
  EXPECT_EQ(write(1002, 1000, 1000), 3 + 30 + 10);  // where the overwrite ended
  EXPECT_EQ(read(1002, 0, 200000).data.size(), 100000u);
}

TEST_F(OstCharges, RandomWritePaysASeekAndLeavesAZeroHole) {
  EXPECT_EQ(write(1003, 5000, 1000), 12713);
  const Read r = read(1003, 0, 10000);
  ASSERT_EQ(r.data.size(), 6000u);
  EXPECT_TRUE(std::all_of(r.data.begin(), r.data.begin() + 5000,
                          [](std::byte b) { return b == std::byte{0}; }));
  EXPECT_TRUE(equal(subview(as_view(r.data), 5000, 1000), as_view(make_payload(1003, 5000, 1000))));
}

TEST_F(OstCharges, ReadOfANeverWrittenObjectIsEmptyAtCpuPlusController) {
  const Read r = read(1004, 0, 100);
  EXPECT_TRUE(r.data.empty());
  EXPECT_EQ(r.us, 3 + 30);
}

TEST_F(OstCharges, ReadsClipAtTheObjectEnd) {
  ASSERT_EQ(write(1005, 0, 1000), 43);
  const Read past = read(1005, 5000, 100);
  EXPECT_TRUE(past.data.empty());
  EXPECT_EQ(past.us, 3 + 1);  // page-cache resident since the write
  const Read tail = read(1005, 500, 1000);
  EXPECT_TRUE(equal(as_view(tail.data), as_view(make_payload(1005, 500, 500))));
  EXPECT_EQ(tail.us, 3 + 1);
  ost().node().cache().clear();
  EXPECT_EQ(read(1005, 0, 1000).us, 12713);  // cold: a random disk access
}

TEST_F(OstCharges, TruncateNeverGrowsAnObjectAndMovesTheWriteEnd) {
  ASSERT_EQ(write(1006, 0, 1000), 43);
  EXPECT_EQ(truncate(1006, 5000), 3 + 30);
  EXPECT_EQ(read(1006, 0, 10000).data.size(), 1000u);
  EXPECT_EQ(truncate(1006, 500), 33);
  EXPECT_EQ(read(1006, 0, 10000).data.size(), 500u);
  EXPECT_EQ(write(1006, 500, 1000), 43);  // sequential at the cut
  EXPECT_EQ(read(1006, 0, 10000).data.size(), 1500u);
  EXPECT_EQ(truncate(1007, 5000), 33);  // no object: none is made
  EXPECT_EQ(read(1007, 0, 100).us, 33);
}

TEST_F(OstCharges, RemoveInodeChargesTwoPerObjectRemoved) {
  ASSERT_EQ(write(1008, 0, 1000), 43);
  EXPECT_EQ(remove(1008), 3 + 2);
  EXPECT_EQ(remove(1008), 3);
  EXPECT_EQ(read(1008, 0, 100).us, 33);  // gone
}

// Striping property sweep: read-back equality across stripe widths and
// offsets straddling stripe boundaries.
class PfsStripeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PfsStripeSweep, ReadBackAcrossBoundaries) {
  sim::Cluster cluster;
  LustreLikeFs fs(cluster, PfsConfig{.stripe_size = 4096, .stripe_width = GetParam()});
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  Rng rng(GetParam());
  Bytes model;
  auto h = fs.open(ctx, "/sweep", vfs::OpenFlags::rw());
  ASSERT_TRUE(h.ok());
  for (int i = 0; i < 60; ++i) {
    const auto off = rng.next_below(100000);
    const auto len = 1 + rng.next_below(20000);
    const Bytes chunk = make_payload(i, off, len);
    ASSERT_TRUE(fs.write(ctx, h.value(), off, as_view(chunk)).ok());
    write_at(model, off, as_view(chunk));
  }
  auto back = vfs::read_file(fs, ctx, "/sweep");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(model)));
}

INSTANTIATE_TEST_SUITE_P(Widths, PfsStripeSweep, ::testing::Values(1u, 2u, 3u, 8u));

}  // namespace
}  // namespace bsc::pfs
