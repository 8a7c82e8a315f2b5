// Tests for BlobFs, the POSIX-on-blob adapter: file I/O mapping, chunking,
// scan-based directory emulation, and the documented semantic reductions.
#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "adapter/blobfs.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "rpc/fault.hpp"
#include "vfs/helpers.hpp"

namespace bsc::adapter {
namespace {

class BlobFsTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  blob::BlobStore store_{cluster_};
  BlobFs fs_{store_};
  sim::SimAgent agent_;
  vfs::IoCtx ctx_{&agent_, 100, 100};
};

TEST_F(BlobFsTest, KeyEncoding) {
  EXPECT_EQ(BlobFs::meta_key("/a/b"), "m!/a/b");
  EXPECT_EQ(BlobFs::chunk_key("/a/b", 3), "d!/a/b!00000003");
  EXPECT_EQ(BlobFs::child_meta_prefix("/a"), "m!/a/");
  EXPECT_EQ(BlobFs::child_meta_prefix("/"), "m!/");
}

TEST_F(BlobFsTest, FileRoundTripAcrossChunks) {
  const Bytes data = make_payload(1, 0, 900000);  // several 256 KiB chunks
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/f", as_view(data)).ok());
  EXPECT_EQ(fs_.stat(ctx_, "/f").value().size, 900000u);
  auto back = vfs::read_file(fs_, ctx_, "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
}

TEST_F(BlobFsTest, FileDataLandsInBlobStore) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/blobby", as_view(make_payload(2, 0, 600000))).ok());
  sim::SimAgent a;
  blob::BlobClient client(store_, &a);
  EXPECT_TRUE(client.exists("m!/blobby"));
  EXPECT_TRUE(client.exists("d!/blobby!00000000"));
  EXPECT_TRUE(client.exists("d!/blobby!00000002"));
  EXPECT_EQ(client.size("d!/blobby!00000000").value(), fs_.config().chunk_bytes);
}

TEST_F(BlobFsTest, SparseWriteReadsZeros) {
  auto h = fs_.open(ctx_, "/sparse", vfs::OpenFlags::rw());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 700000, as_view(to_bytes("end"))).ok());
  auto r = fs_.read(ctx_, h.value(), 0, 700003);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 700003u);
  EXPECT_EQ(r.value()[0], std::byte{0});
  EXPECT_EQ(r.value()[699999], std::byte{0});
  EXPECT_EQ(to_string(subview(as_view(r.value()), 700000, 3)), "end");
}

TEST_F(BlobFsTest, MkdirReaddirRmdirViaScan) {
  ASSERT_TRUE(fs_.mkdir(ctx_, "/dir").ok());
  EXPECT_EQ(fs_.mkdir(ctx_, "/dir").code(), Errc::already_exists);
  EXPECT_EQ(fs_.mkdir(ctx_, "/none/child").code(), Errc::not_found);
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/dir/f1", as_view(to_bytes("1"))).ok());
  ASSERT_TRUE(fs_.mkdir(ctx_, "/dir/sub").ok());
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/dir/sub/deep", as_view(to_bytes("2"))).ok());
  auto ls = fs_.readdir(ctx_, "/dir");
  ASSERT_TRUE(ls.ok());
  ASSERT_EQ(ls.value().size(), 2u);  // deep child not listed at this level
  EXPECT_EQ(ls.value()[0].name, "f1");
  EXPECT_EQ(ls.value()[0].type, vfs::FileType::regular);
  EXPECT_EQ(ls.value()[1].name, "sub");
  EXPECT_EQ(ls.value()[1].type, vfs::FileType::directory);
  EXPECT_EQ(fs_.rmdir(ctx_, "/dir").code(), Errc::not_empty);
  ASSERT_TRUE(fs_.unlink(ctx_, "/dir/sub/deep").ok());
  ASSERT_TRUE(fs_.rmdir(ctx_, "/dir/sub").ok());
  ASSERT_TRUE(fs_.unlink(ctx_, "/dir/f1").ok());
  EXPECT_TRUE(fs_.rmdir(ctx_, "/dir").ok());
}

TEST_F(BlobFsTest, RootListing) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/top", as_view(to_bytes("x"))).ok());
  ASSERT_TRUE(fs_.mkdir(ctx_, "/d").ok());
  auto ls = fs_.readdir(ctx_, "/");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls.value().size(), 2u);
}

TEST_F(BlobFsTest, UnlinkRemovesAllBlobs) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/gone", as_view(make_payload(3, 0, 600000))).ok());
  ASSERT_TRUE(fs_.unlink(ctx_, "/gone").ok());
  sim::SimAgent a;
  blob::BlobClient client(store_, &a);
  auto leftovers = client.scan("d!/gone");
  ASSERT_TRUE(leftovers.ok());
  EXPECT_TRUE(leftovers.value().empty());
  EXPECT_FALSE(client.exists("m!/gone"));
}

TEST_F(BlobFsTest, TruncateShrinkGrowNoStaleData) {
  const Bytes data = make_payload(4, 0, 600000);
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/t", as_view(data)).ok());
  ASSERT_TRUE(fs_.truncate(ctx_, "/t", 100000).ok());
  EXPECT_EQ(fs_.stat(ctx_, "/t").value().size, 100000u);
  ASSERT_TRUE(fs_.truncate(ctx_, "/t", 500000).ok());
  auto back = vfs::read_file(fs_, ctx_, "/t");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 500000u);
  EXPECT_TRUE(
      equal(subview(as_view(back.value()), 0, 100000), subview(as_view(data), 0, 100000)));
  for (std::size_t i = 100000; i < 500000; ++i) {
    ASSERT_EQ(back.value()[i], std::byte{0}) << "stale byte at " << i;
  }
}

TEST_F(BlobFsTest, RenameCopiesChunks) {
  const Bytes data = make_payload(5, 0, 300000);
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/old", as_view(data)).ok());
  ASSERT_TRUE(fs_.rename(ctx_, "/old", "/new").ok());
  EXPECT_EQ(fs_.stat(ctx_, "/old").code(), Errc::not_found);
  auto back = vfs::read_file(fs_, ctx_, "/new");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
  // Directory rename is documented-unsupported on a flat namespace.
  ASSERT_TRUE(fs_.mkdir(ctx_, "/dr").ok());
  EXPECT_EQ(fs_.rename(ctx_, "/dr", "/dr2").code(), Errc::unsupported);
}

TEST_F(BlobFsTest, PermissionsStoredNotEnforced) {
  // The documented reduction: chmod round-trips, but access is never denied.
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/open-to-all", as_view(to_bytes("x"))).ok());
  ASSERT_TRUE(fs_.chmod(ctx_, "/open-to-all", 0600).ok());
  EXPECT_EQ(fs_.stat(ctx_, "/open-to-all").value().mode, 0600u);
  vfs::IoCtx stranger{&agent_, 999, 999};
  EXPECT_TRUE(fs_.open(stranger, "/open-to-all", vfs::OpenFlags::rd()).ok());
}

TEST_F(BlobFsTest, XattrsPersistInMetaBlob) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/x", as_view(to_bytes("x"))).ok());
  ASSERT_TRUE(fs_.setxattr(ctx_, "/x", "user.a", "1").ok());
  ASSERT_TRUE(fs_.setxattr(ctx_, "/x", "user.b", "2").ok());
  ASSERT_TRUE(fs_.setxattr(ctx_, "/x", "user.a", "override").ok());
  EXPECT_EQ(fs_.getxattr(ctx_, "/x", "user.a").value(), "override");
  EXPECT_EQ(fs_.getxattr(ctx_, "/x", "user.b").value(), "2");
  // Metadata survives independent of any handle/cache.
  sim::SimAgent fresh;
  vfs::IoCtx fctx{&fresh, 100, 100};
  EXPECT_EQ(fs_.getxattr(fctx, "/x", "user.a").value(), "override");
}

TEST_F(BlobFsTest, AppendMode) {
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/log", as_view(to_bytes("one"))).ok());
  auto h = fs_.open(ctx_, "/log", vfs::OpenFlags::ap());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 0, as_view(to_bytes("two"))).ok());
  ASSERT_TRUE(fs_.close(ctx_, h.value()).ok());
  EXPECT_EQ(to_string(as_view(vfs::read_file(fs_, ctx_, "/log").value())), "onetwo");
}

TEST_F(BlobFsTest, ReaddirCostScalesWithNamespaceSize) {
  // The paper's §III caveat, measured: a scan-based listing gets more
  // expensive as unrelated objects accumulate in the flat namespace.
  ASSERT_TRUE(fs_.mkdir(ctx_, "/small").ok());
  ASSERT_TRUE(vfs::write_file(fs_, ctx_, "/small/one", as_view(to_bytes("1"))).ok());
  sim::SimAgent a1;
  vfs::IoCtx c1{&a1, 0, 0};
  ASSERT_TRUE(fs_.readdir(c1, "/small").ok());
  const SimMicros small_cost = a1.now();

  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        vfs::write_file(fs_, ctx_, strfmt("/clutter-%03d", i), as_view(to_bytes("x"))).ok());
  }
  sim::SimAgent a2;
  vfs::IoCtx c2{&a2, 0, 0};
  ASSERT_TRUE(fs_.readdir(c2, "/small").ok());
  EXPECT_GT(a2.now(), small_cost);
}

TEST_F(BlobFsTest, UnlinkRemovesEveryBlobAroundAHole) {
  // Four chunks; chunk 1 is a hole and has no stored blob, so its remove
  // answers not_found and the unlink must still go on to chunks 2 and 3.
  const std::uint64_t cb = BlobFsConfig{}.chunk_bytes;
  auto h = fs_.open(ctx_, "/holey", vfs::OpenFlags::wr());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 0, as_view(make_payload(6, 0, cb / 2))).ok());
  ASSERT_TRUE(fs_.write(ctx_, h.value(), 2 * cb, as_view(make_payload(7, 0, cb + cb / 2))).ok());
  ASSERT_TRUE(fs_.close(ctx_, h.value()).ok());
  sim::SimAgent a;
  blob::BlobClient client(store_, &a);
  ASSERT_FALSE(client.exists(BlobFs::chunk_key("/holey", 1)));
  ASSERT_TRUE(client.exists(BlobFs::chunk_key("/holey", 3)));

  ASSERT_TRUE(fs_.unlink(ctx_, "/holey").ok());
  EXPECT_TRUE(client.scan("m!/holey").value().empty());
  EXPECT_TRUE(client.scan("d!/holey").value().empty());
}

// --- One client per (BlobFs, thread) -------------------------------------
//
// BlobFs keeps one BlobClient per calling thread and starts each call with
// BlobClient::start_call. These tests pin what that reuse must not change:
// thread isolation, instance isolation, lifetime, and membership changes.

std::uint64_t series(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST(BlobFsClients, EightThreadsEachOnOwnFiles) {
  sim::Cluster cluster;
  blob::BlobStore store(cluster);
  BlobFs fs(store);
  constexpr int kThreads = 8;
  constexpr int kFiles = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fs, &failures, t] {
      sim::SimAgent agent;
      vfs::IoCtx ctx{&agent, 100, 100};
      for (int round = 0; round < 3; ++round) {
        for (int f = 0; f < kFiles; ++f) {
          const std::string path = strfmt("/t%d-f%d", t, f);
          const Bytes data =
              make_payload(static_cast<std::uint64_t>(t * 100 + f * 10 + round), 0,
                           static_cast<std::size_t>(1000 + 700 * f));
          if (!vfs::write_file(fs, ctx, path, as_view(data)).ok()) ++failures[t];
          auto back = vfs::read_file(fs, ctx, path);
          if (!back.ok() || !equal(as_view(back.value()), as_view(data))) ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 0, 0};
  auto ls = fs.readdir(ctx, "/");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls.value().size(), static_cast<std::size_t>(kThreads * kFiles));
}

TEST(BlobFsClients, TwoInstancesShareOneStore) {
  sim::Cluster cluster;
  blob::BlobStore store(cluster);
  BlobFs a(store);
  BlobFs b(store);
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  // Alternate instances on one thread: each call must reach its own
  // instance's client, and both see one namespace.
  for (int i = 0; i < 6; ++i) {
    BlobFs& writer = i % 2 == 0 ? a : b;
    BlobFs& reader = i % 2 == 0 ? b : a;
    const std::string path = strfmt("/shared-%d", i);
    const Bytes data = make_payload(static_cast<std::uint64_t>(i), 0, 1536);
    ASSERT_TRUE(vfs::write_file(writer, ctx, path, as_view(data)).ok());
    auto back = vfs::read_file(reader, ctx, path);
    ASSERT_TRUE(back.ok()) << path;
    EXPECT_TRUE(equal(as_view(back.value()), as_view(data))) << path;
  }
  ASSERT_TRUE(a.unlink(ctx, "/shared-0").ok());
  EXPECT_EQ(b.stat(ctx, "/shared-0").code(), Errc::not_found);
}

TEST(BlobFsClients, RebuiltOnSameThreadUsesItsOwnStore) {
  // The second BlobFs is built in the first one's storage, on another store:
  // a thread cache keyed by address would hand it the destroyed instance's
  // client, bound to the first store.
  sim::Cluster c1;
  sim::Cluster c2;
  blob::BlobStore s1(c1);
  blob::BlobStore s2(c2);
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  std::optional<BlobFs> fs;
  fs.emplace(s1);
  ASSERT_TRUE(vfs::write_file(*fs, ctx, "/first", as_view(make_payload(1, 0, 1536))).ok());
  fs.reset();
  fs.emplace(s2);
  const Bytes data = make_payload(2, 0, 1536);
  ASSERT_TRUE(vfs::write_file(*fs, ctx, "/second", as_view(data)).ok());
  auto back = vfs::read_file(*fs, ctx, "/second");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
  EXPECT_EQ(fs->stat(ctx, "/first").code(), Errc::not_found);
  sim::SimAgent a;
  blob::BlobClient on_first(s1, &a);
  EXPECT_FALSE(on_first.exists("m!/second"));
  EXPECT_TRUE(on_first.exists("m!/first"));
}

TEST(BlobFsClients, MembershipChangeDropsCachedPlacements) {
  sim::ClusterSpec spec;
  spec.storage_nodes = 12;
  sim::Cluster cluster(spec);
  blob::BlobStore store(cluster);
  BlobFs fs(store);
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  const Bytes data = make_payload(11, 0, 600000);  // three chunks
  ASSERT_TRUE(vfs::write_file(fs, ctx, "/moving", as_view(data)).ok());

  ASSERT_TRUE(store.begin_add_server(cluster.compute_node(0)).ok());
  blob::Rebalancer* rb = store.rebalancer();
  ASSERT_NE(rb, nullptr);
  while (!rb->done()) ASSERT_TRUE(rb->step(&agent).ok());
  ASSERT_TRUE(rb->finalize(&agent).ok());

  // The thread's client cached every chunk's placement at the old epoch. A
  // stale entry would be caught by a server's newer epoch stamp and flushed
  // (client.epoch.refreshes); dropping the cache at call start means no leg
  // ever routes by one.
  const std::uint64_t refreshes = series("client.epoch.refreshes");
  auto back = vfs::read_file(fs, ctx, "/moving");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(as_view(back.value()), as_view(data)));
  const Bytes tail = make_payload(12, 0, 1536);
  auto h = fs.open(ctx, "/moving", vfs::OpenFlags::rw());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs.write(ctx, h.value(), 524288, as_view(tail)).ok());
  ASSERT_TRUE(fs.close(ctx, h.value()).ok());
  auto again = vfs::read_file(fs, ctx, "/moving");
  ASSERT_TRUE(again.ok());
  Bytes want = data;
  std::copy(tail.begin(), tail.end(), want.begin() + 524288);
  EXPECT_TRUE(equal(as_view(again.value()), as_view(want)));
  EXPECT_EQ(series("client.epoch.refreshes"), refreshes);
}

TEST(BlobFsClients, HealthIsPerCallWhileNativeClientsKeepIt) {
  // One replica turns slow. A native client reused across reads builds up
  // its latency samples and demotes it; a BlobFs call starts from a new
  // client's health, so reads through one BlobFs context never do.
  sim::Cluster cluster;
  blob::BlobStore store(cluster);
  BlobFs fs(store);
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  constexpr int kFiles = 24;
  for (int f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(vfs::write_file(fs, ctx, strfmt("/slow-%02d", f),
                                as_view(make_payload(static_cast<std::uint64_t>(f), 0,
                                                     1024)))
                    .ok());
  }
  rpc::FaultInjector injector{/*seed=*/7};
  store.transport().set_fault_injector(&injector);
  const std::uint32_t slow =
      store.server(store.replicas_of(BlobFs::chunk_key("/slow-00", 0))[0]).node().id();
  rpc::FaultPlan gray;
  gray.added_latency_us = 2000;
  injector.set_plan(slow, gray);
  const std::uint32_t min_samples = store.config().breaker.suspect_min_samples;

  const std::uint64_t demotions = series("client.breaker.demotions");
  std::vector<vfs::FileHandle> handles;
  for (int f = 0; f < kFiles; ++f) {
    auto h = fs.open(ctx, strfmt("/slow-%02d", f), vfs::OpenFlags::rd());
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  for (std::uint32_t round = 0; round < 2 * min_samples; ++round) {
    for (const vfs::FileHandle fh : handles) ASSERT_TRUE(fs.read(ctx, fh, 0, 1024).ok());
  }
  for (const vfs::FileHandle fh : handles) ASSERT_TRUE(fs.close(ctx, fh).ok());
  EXPECT_EQ(series("client.breaker.demotions"), demotions);

  sim::SimAgent native_agent;
  blob::BlobClient native(store, &native_agent);
  for (std::uint32_t round = 0; round < 2 * min_samples; ++round) {
    for (int f = 0; f < kFiles; ++f) {
      ASSERT_TRUE(native.read(BlobFs::chunk_key(strfmt("/slow-%02d", f), 0), 0, 1024).ok());
    }
  }
  EXPECT_GT(native.counters().breaker_demotions.value(), 0u);
  EXPECT_GT(series("client.breaker.demotions"), demotions);
  store.transport().set_fault_injector(nullptr);
}

TEST(BlobFsClients, MetadataCacheNeverHitsAcrossCalls) {
  // Each call starts with an empty metadata cache, as a new client did:
  // open, sync and truncate re-read the metadata blob every time. A cut
  // into a chunk caches the chunk's size. With 64 KiB store chunks, the
  // next call's read of that (larger) chunk is a striped read, which
  // consults the cache: one kept across calls would answer it for free.
  sim::Cluster cluster;
  blob::StoreConfig small_chunks;
  small_chunks.chunk_bytes = 64 * 1024;
  blob::BlobStore store(cluster, small_chunks);
  BlobFs fs(store);
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  const std::uint64_t part = small_chunks.chunk_bytes;
  const std::uint64_t hits = series("client.metacache.hits");
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * part;
    auto h = fs.open(ctx, "/meta", vfs::OpenFlags::rw());
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(
        fs.write(ctx, h.value(), off, as_view(make_payload(static_cast<std::uint64_t>(i), 0, part)))
            .ok());
    ASSERT_TRUE(fs.sync(ctx, h.value()).ok());
    ASSERT_TRUE(fs.close(ctx, h.value()).ok());
    ASSERT_TRUE(fs.truncate(ctx, "/meta", off + part / 2).ok());
    ASSERT_EQ(vfs::read_file(fs, ctx, "/meta").value().size(), off + part / 2);
  }
  ASSERT_TRUE(fs.unlink(ctx, "/meta").ok());
  EXPECT_EQ(series("client.metacache.hits"), hits);
}

}  // namespace
}  // namespace bsc::adapter
