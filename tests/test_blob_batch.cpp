// Batched scatter-gather striping: wire envelope round-trips, equivalence
// with an unstriped reference store (byte contents, sizes, replica
// convergence), chunk coalescing, hole accounting in the read counters, the
// client metadata cache under concurrent truncate/remove/recreate, and the
// single-round behavior of absent / at-EOF striped reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blob/client.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "rpc/wire.hpp"
#include "client_agreement.hpp"

namespace bsc::blob {
namespace {

constexpr std::uint64_t kChunk = 1ULL << 20;

/// The reference store: chunk_bytes = 0 never stripes, so every op is one
/// single-chunk leg (mutation_leg / read_leg) on one replica set. The
/// striped default config must be observably identical to it. (Test names
/// still say "PerLeg": the reference runs each op as one leg.)
StoreConfig unstriped_cfg() {
  StoreConfig cfg;
  cfg.chunk_bytes = 0;
  return cfg;
}

// --- wire envelope --------------------------------------------------------

TEST(BatchWire, RequestRoundTripPinsWireSize) {
  const Bytes payload = make_payload(7, 0, 300);
  rpc::BatchRequest req;
  req.ops.push_back({rpc::BatchOpKind::write, "blob\x1f""3", 2, 4096, 0,
                     0xdeadbeefULL, as_view(payload)});
  req.ops.push_back({rpc::BatchOpKind::read, "blob", 1, 0, 512, 0, {}});
  req.ops.push_back({rpc::BatchOpKind::stat, "blob", 1, 0, 0, 0, {}});

  const Bytes buf = rpc::encode(req);
  ASSERT_EQ(rpc::wire_size(req), buf.size());

  auto dec = rpc::decode_batch_request(as_view(buf));
  ASSERT_TRUE(dec.ok());
  const auto& ops = dec.value().ops;
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, rpc::BatchOpKind::write);
  EXPECT_EQ(ops[0].key, "blob\x1f""3");
  EXPECT_EQ(ops[0].span, 2u);
  EXPECT_EQ(ops[0].offset, 4096u);
  EXPECT_EQ(ops[0].checksum, 0xdeadbeefULL);
  EXPECT_TRUE(equal(ops[0].data, as_view(payload)));
  EXPECT_EQ(ops[1].kind, rpc::BatchOpKind::read);
  EXPECT_EQ(ops[1].len, 512u);
  EXPECT_EQ(ops[2].kind, rpc::BatchOpKind::stat);
}

TEST(BatchWire, ReplyRoundTripPinsWireSize) {
  const Bytes payload = make_payload(9, 0, 129);
  rpc::BatchReply reply;
  reply.subs.push_back({0, 129, 42, 0x5eedULL, as_view(payload)});
  reply.subs.push_back({static_cast<std::uint8_t>(Errc::not_found), 0, 0, 0, {}});

  const Bytes buf = rpc::encode(reply);
  ASSERT_EQ(rpc::wire_size(reply), buf.size());

  auto dec = rpc::decode_batch_reply(as_view(buf));
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec.value().subs.size(), 2u);
  EXPECT_EQ(dec.value().subs[0].version, 42u);
  EXPECT_EQ(dec.value().subs[0].digest, 0x5eedULL);
  EXPECT_TRUE(equal(dec.value().subs[0].data, as_view(payload)));
  EXPECT_EQ(dec.value().subs[1].errc, static_cast<std::uint8_t>(Errc::not_found));
  EXPECT_EQ(dec.value().subs[1].digest, 0u);
}

TEST(BatchWire, RequestFlagsRoundTrip) {
  rpc::BatchRequest req;
  req.flags = rpc::kBatchDigestOnly;
  req.ops.push_back({rpc::BatchOpKind::read, "k", 1, 0, 64, 0, {}});
  const Bytes buf = rpc::encode(req);
  ASSERT_EQ(rpc::wire_size(req), buf.size());
  auto dec = rpc::decode_batch_request(as_view(buf));
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().flags, rpc::kBatchDigestOnly);
}

TEST(BatchWire, RejectsUnknownKindAndTruncation) {
  rpc::BatchRequest req;
  req.ops.push_back({rpc::BatchOpKind::write, "k", 1, 0, 0, 0, {}});
  Bytes buf = rpc::encode(req);
  Bytes bad = buf;
  bad[5] = std::byte{99};  // kind of the first op, after the flags u8 + u32 count
  EXPECT_FALSE(rpc::decode_batch_request(as_view(bad)).ok());
  buf.pop_back();
  EXPECT_FALSE(rpc::decode_batch_request(as_view(buf)).ok());
}

// --- striped vs unstriped equivalence -------------------------------------

/// Runs one scripted striped workload against a fresh store and returns the
/// full observable state: every app-level read plus final sizes.
struct ScriptResult {
  std::vector<Bytes> reads;
  std::vector<std::uint64_t> sizes;
  std::vector<Errc> errs;
};

ScriptResult run_script(const StoreConfig& cfg) {
  sim::Cluster cluster;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ClientRegistryAgreement agree({&client});
  ScriptResult out;

  auto record_read = [&](std::string_view key, std::uint64_t off, std::uint64_t len) {
    auto r = client.read(key, off, len);
    out.errs.push_back(r.code());
    out.reads.push_back(r.ok() ? std::move(r.value()) : Bytes{});
  };
  auto record_size = [&](std::string_view key) {
    auto s = client.size(key);
    out.sizes.push_back(s.ok() ? s.value() : ~0ULL);
  };

  // 4.5-chunk blob written at an odd offset, then overwritten mid-stripe.
  const Bytes big = make_payload(1, 12345, 4 * kChunk + kChunk / 2);
  EXPECT_TRUE(client.write("a", 12345, as_view(big)).ok());
  const Bytes over = make_payload(2, 0, kChunk);
  EXPECT_TRUE(client.write("a", 2 * kChunk - 777, as_view(over)).ok());
  record_size("a");
  record_read("a", 0, 6 * kChunk);
  record_read("a", 2 * kChunk - 800, 1000);      // straddles the overwrite
  record_read("a", kChunk - 3, 7);               // chunk boundary
  record_read("a", 4 * kChunk, 2 * kChunk);      // tail, clipped at EOF
  record_read("a", 7 * kChunk, 16);              // past EOF -> empty

  // Sparse blob: write lands in chunk 3 only; chunks 0-2 are holes.
  EXPECT_TRUE(client.write("sparse", 3 * kChunk + 11, as_view(make_payload(3, 0, 4096))).ok());
  record_size("sparse");
  record_read("sparse", 0, 4 * kChunk);
  record_read("sparse", kChunk, 100);            // pure hole chunk

  // Truncate down to mid-chunk (drops chunks 2+, trims chunk 1), then up.
  EXPECT_TRUE(client.truncate("a", kChunk + kChunk / 2).ok());
  record_size("a");
  record_read("a", 0, 2 * kChunk);
  EXPECT_TRUE(client.truncate("a", 3 * kChunk).ok());
  record_size("a");
  record_read("a", kChunk, 2 * kChunk);          // trailing zeros

  // Remove + recreate with different striped contents.
  EXPECT_TRUE(client.remove("a").ok());
  record_read("a", 0, kChunk * 2);               // not_found
  const Bytes fresh = make_payload(4, 0, 2 * kChunk + 99);
  EXPECT_TRUE(client.write("a", 0, as_view(fresh)).ok());
  record_size("a");
  record_read("a", 0, 3 * kChunk);

  // Absent blob: striped-range read of a key that never existed.
  record_read("ghost", 0, 5 * kChunk);

  // Replica convergence: scrub must be clean in both stores.
  const auto report = store.scrub(/*repair=*/false, &agent);
  EXPECT_EQ(report.divergent_replicas, 0u);
  EXPECT_EQ(report.checksum_errors, 0u);
  EXPECT_TRUE(store.verify_all_integrity().ok());
  agree.check({"client.write.calls", "client.read.calls", "client.truncate.calls",
               "client.remove.calls", "client.size.calls", "client.read.hole_bytes"});
  return out;
}

void expect_equivalent(const ScriptResult& on, const ScriptResult& off) {
  ASSERT_EQ(on.reads.size(), off.reads.size());
  ASSERT_EQ(on.errs, off.errs);
  ASSERT_EQ(on.sizes, off.sizes);
  for (std::size_t i = 0; i < on.reads.size(); ++i) {
    EXPECT_TRUE(equal(as_view(on.reads[i]), as_view(off.reads[i])))
        << "read " << i << " diverged between the two modes";
  }
}

TEST(BatchEquivalence, BatchedAndPerLegProduceIdenticalResults) {
  expect_equivalent(run_script(StoreConfig{}), run_script(unstriped_cfg()));
}

TEST(QuorumBatchEquivalence, R2BatchedMatchesPerLeg) {
  StoreConfig on;
  on.write_quorum = 2;  // replication 3 -> R = 2: every read arbitrates
  StoreConfig off = unstriped_cfg();
  off.write_quorum = 2;
  expect_equivalent(run_script(on), run_script(off));
}

TEST(QuorumBatchEquivalence, R3BatchedMatchesPerLeg) {
  StoreConfig on;
  on.write_quorum = 1;  // replication 3 -> R = 3: full-set arbitration
  StoreConfig off = unstriped_cfg();
  off.write_quorum = 1;
  expect_equivalent(run_script(on), run_script(off));
}

// --- coalescing -----------------------------------------------------------

TEST(BatchCoalescing, AdjacentChunksOnOnePrimaryShareASubHeader) {
  // One storage node: every chunk's acting primary is the same server, so
  // the chunk legs of a striped write form a single batch whose consecutive
  // chunks coalesce into one vectored sub-op.
  sim::Cluster cluster{sim::ClusterSpec::with_storage_nodes(1)};
  StoreConfig cfg;
  cfg.replication = 1;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ClientRegistryAgreement agree({&client});

  const Bytes data = make_payload(5, 0, 4 * kChunk);
  ASSERT_TRUE(client.write("c", 0, as_view(data)).ok());
  EXPECT_GE(client.counters().batch_envelopes, 1u);
  EXPECT_GE(client.counters().coalesced_ops, 1u);

  auto r = client.read("c", 0, 4 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(data)));
  // The read fanned out as one batch too (chunks 0..3 plus the stat sub).
  EXPECT_GE(client.counters().batch_envelopes, 2u);
  agree.check({"client.batch.envelopes", "client.batch.coalesced"});
}

// --- hole accounting (satellite: bytes_read counted zero-filled bytes) ----

TEST(BatchHoleAccounting, BytesReadCountsExtentBackedBytesOnly) {
  sim::Cluster cluster;
  BlobStore store(cluster, StoreConfig{});
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ClientRegistryAgreement agree({&client});

  // 4 KiB of real data deep in chunk 3; chunks 0-2 are pure holes.
  ASSERT_TRUE(client.write("h", 3 * kChunk + 11, as_view(make_payload(6, 0, 4096))).ok());
  const std::uint64_t logical = 3 * kChunk + 11 + 4096;
  auto r = client.read("h", 0, 4 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), logical);
  EXPECT_EQ(client.counters().bytes_read, 4096u);
  EXPECT_EQ(client.counters().read_hole_bytes, logical - 4096u);

  // Single-chunk path: truncate-up creates a tail hole inside chunk 0.
  ASSERT_TRUE(client.write("s", 0, as_view(make_payload(7, 0, 100))).ok());
  ASSERT_TRUE(client.truncate("s", 50000).ok());
  auto sr = client.read("s", 0, 50000);
  ASSERT_TRUE(sr.ok());
  ASSERT_EQ(sr.value().size(), 50000u);
  EXPECT_EQ(client.counters().bytes_read, 4096u + 100u);
  EXPECT_EQ(client.counters().read_hole_bytes, (logical - 4096u) + 49900u);
  agree.check({"client.read.covered_bytes", "client.read.hole_bytes",
               "client.write.bytes"});
}

// --- metadata cache -------------------------------------------------------

class MetaCacheTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  BlobStore store_{cluster_, StoreConfig{}};
  sim::SimAgent agent_a_, agent_b_;
  BlobClient a_{store_, &agent_a_};
  BlobClient b_{store_, &agent_b_};
};

TEST_F(MetaCacheTest, HitsSkipTheStatRound) {
  ClientRegistryAgreement agree({&a_, &b_});
  const Bytes data = make_payload(8, 0, 3 * kChunk);
  ASSERT_TRUE(a_.write("k", 0, as_view(data)).ok());  // write primes the cache
  ASSERT_TRUE(a_.read("k", 0, 3 * kChunk).ok());
  ASSERT_TRUE(a_.read("k", kChunk, kChunk).ok());
  EXPECT_EQ(a_.counters().metacache_hits, 2u);
  EXPECT_EQ(a_.counters().metacache_misses, 0u);

  // A fresh client misses once, then hits.
  ASSERT_TRUE(b_.read("k", 0, 3 * kChunk).ok());
  ASSERT_TRUE(b_.read("k", 0, 3 * kChunk).ok());
  EXPECT_EQ(b_.counters().metacache_misses, 1u);
  EXPECT_EQ(b_.counters().metacache_hits, 1u);
  agree.check({"client.metacache.hits", "client.metacache.misses"});
}

TEST_F(MetaCacheTest, ConcurrentTruncateIsDetectedAndReread) {
  ClientRegistryAgreement agree({&a_, &b_});
  const Bytes data = make_payload(9, 0, 3 * kChunk);
  ASSERT_TRUE(a_.write("k", 0, as_view(data)).ok());
  ASSERT_TRUE(a_.read("k", 0, 3 * kChunk).ok());

  // Another client shrinks the blob behind a_'s cache.
  ASSERT_TRUE(b_.truncate("k", kChunk + 5).ok());

  auto r = a_.read("k", 0, 3 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), kChunk + 5);  // stale size detected, re-read
  EXPECT_TRUE(equal(as_view(r.value()), subview(as_view(data), 0, kChunk + 5)));
  EXPECT_GE(a_.counters().metacache_invalidations, 1u);
  agree.check({"client.metacache.invalidations"});
}

TEST_F(MetaCacheTest, ConcurrentRemoveAndRecreateAreDetected) {
  ClientRegistryAgreement agree({&a_, &b_});
  ASSERT_TRUE(a_.write("k", 0, as_view(make_payload(10, 0, 2 * kChunk))).ok());
  ASSERT_TRUE(a_.read("k", 0, 2 * kChunk).ok());

  ASSERT_TRUE(b_.remove("k").ok());
  EXPECT_EQ(a_.read("k", 0, 2 * kChunk).code(), Errc::not_found);

  const Bytes fresh = make_payload(11, 0, 2 * kChunk + kChunk / 2);
  ASSERT_TRUE(b_.write("k", 0, as_view(fresh)).ok());
  auto r = a_.read("k", 0, 3 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(fresh)));
  agree.check({"client.remove.calls", "client.metacache.invalidations"});
}

TEST_F(MetaCacheTest, LocalMutationsInvalidate) {
  ClientRegistryAgreement agree({&a_, &b_});
  ASSERT_TRUE(a_.write("k", 0, as_view(make_payload(12, 0, 2 * kChunk))).ok());
  ASSERT_TRUE(a_.read("k", 0, 2 * kChunk).ok());
  ASSERT_TRUE(a_.truncate("k", kChunk / 2).ok());  // refreshes the entry itself
  auto r = a_.read("k", 0, 2 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), kChunk / 2);

  // A transaction on the key drops the entry outright.
  auto txn = a_.begin_transaction();
  txn.truncate("k", 10);
  ASSERT_TRUE(txn.commit().ok());
  auto r2 = a_.read("k", 0, kChunk);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().size(), 10u);
  agree.check({"client.txn.calls", "client.metacache.invalidations"});
}

// --- per-sub quorum voting in the batch envelope --------------------------

TEST(QuorumBatchedReads, SixteenChunkReadShipsOneEnvelopePerGroupReplica) {
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;  // replication 3 -> R = 2
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ClientRegistryAgreement agree({&client});

  const Bytes data = make_payload(20, 0, 16 * kChunk);
  ASSERT_TRUE(client.write("e", 0, as_view(data)).ok());

  // Reproduce the client's grouping: chunks sharing their first-R-live
  // replica tuple ride one envelope pair (the stat sentinel uses the base
  // key, which IS chunk 0's key, so it joins chunk 0's group).
  std::set<std::vector<std::uint32_t>> tuples;
  for (std::uint64_t c = 0; c < 16; ++c) {
    const auto reps = store.replicas_of(chunk_engine_key("e", c));
    ASSERT_GE(reps.size(), 2u);
    tuples.insert({reps[0], reps[1]});
  }
  const auto groups = static_cast<std::uint64_t>(tuples.size());

  const std::uint64_t env0 = client.counters().batch_envelopes;
  const std::uint64_t probes0 = client.counters().quorum_probes;
  const std::uint64_t winners0 = client.counters().quorum_winners;
  const std::uint64_t savings0 = client.counters().quorum_digest_savings_bytes;
  auto r = client.read("e", 0, 16 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(data)));

  // One payload envelope + one digest-only envelope per candidate tuple;
  // every sub resolves on the first vote (no refetch), so each sub-op's
  // payload crossed the wire exactly once.
  EXPECT_EQ(client.counters().batch_envelopes - env0, 2 * groups);
  EXPECT_EQ(client.counters().quorum_probes - probes0, groups);
  EXPECT_EQ(client.counters().quorum_winners - winners0, 16u);
  EXPECT_EQ(client.counters().quorum_refetches, 0u);
  // The digest-only envelopes saved ~1 payload per probed group.
  EXPECT_GE(client.counters().quorum_digest_savings_bytes - savings0,
            groups * kChunk);
  agree.check({"client.batch.quorum_probes", "client.batch.quorum_winners",
               "client.batch.quorum_digest_savings_bytes"});
}

TEST(QuorumBatchedReads, StaleReplicaPayloadLosesTheVoteAndIsRefetched) {
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;  // R = 2
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ClientRegistryAgreement agree({&client});

  const Bytes v1 = make_payload(21, 0, 3 * kChunk);
  ASSERT_TRUE(client.write("q", 0, as_view(v1)).ok());
  const Bytes v2 = make_payload(22, 7, 3 * kChunk);
  ASSERT_TRUE(client.write("q", 0, as_view(v2)).ok());

  // Roll chunk 1's payload-bearing replica (candidate 0 in replica order)
  // back to its v1 copy — exactly what a replica that missed the second
  // mutation looks like under quorum writes.
  const std::string c1 = chunk_engine_key("q", 1);
  const auto replicas = store.replicas_of(c1);
  ASSERT_GE(replicas.size(), 2u);
  SimMicros svc = 0;
  ASSERT_TRUE(store.server(replicas[0])
                  .install_copy(c1, subview(as_view(v1), kChunk, kChunk), kChunk,
                                /*version=*/1, &svc)
                  .ok());

  auto r = client.read("q", 0, 3 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(v2)))
      << "stale candidate-0 payload must lose the per-sub version vote";
  EXPECT_GE(client.counters().quorum_probes, 1u);
  EXPECT_GE(client.counters().quorum_refetches, 1u);
  agree.check({"client.batch.quorum_refetches"});
}

TEST(QuorumBatchedReads, OlderVersionIdenticalPayloadAcceptedByDigest) {
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;  // R = 2
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ClientRegistryAgreement agree({&client});

  const Bytes v1 = make_payload(23, 0, 3 * kChunk);
  ASSERT_TRUE(client.write("q", 0, as_view(v1)).ok());
  ASSERT_TRUE(client.write("q", 0, as_view(v1)).ok());  // no-op rewrite, version bump

  // Candidate 0 of chunk 1 missed the rewrite: older version, same bytes.
  const std::string c1 = chunk_engine_key("q", 1);
  const auto replicas = store.replicas_of(c1);
  SimMicros svc = 0;
  ASSERT_TRUE(store.server(replicas[0])
                  .install_copy(c1, subview(as_view(v1), kChunk, kChunk), kChunk,
                                /*version=*/1, &svc)
                  .ok());

  const std::uint64_t winners0 = client.counters().quorum_winners;
  auto r = client.read("q", 0, 3 * kChunk);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(v1)));
  // The span digests matched, so the older payload was accepted as-is:
  // no second payload transfer.
  EXPECT_EQ(client.counters().quorum_refetches, 0u);
  EXPECT_GT(client.counters().quorum_winners, winners0);
  agree.check({"client.batch.quorum_winners"});
}

TEST(QuorumBatchedReads, HolesArbitrateAtR2) {
  // Sparse blob at R = 2: chunks 0-2 are absent on every replica (a hole is
  // "absent everywhere", not a stale divergence) and must stay zero.
  sim::Cluster cluster;
  StoreConfig cfg;
  cfg.write_quorum = 2;
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const Bytes tail = make_payload(24, 0, 4096);
  ASSERT_TRUE(client.write("sp", 3 * kChunk + 11, as_view(tail)).ok());
  auto r = client.read("sp", 0, 4 * kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 3 * kChunk + 11 + 4096);
  Bytes expect(3 * kChunk + 11 + 4096, std::byte{0});
  std::copy(tail.begin(), tail.end(),
            expect.begin() + static_cast<std::ptrdiff_t>(3 * kChunk + 11));
  EXPECT_TRUE(equal(as_view(r.value()), as_view(expect)));
  EXPECT_EQ(client.counters().quorum_refetches, 0u);
}

// --- read accounting across the read paths (satellite) --------------------

TEST(ReadAccounting, AllReadPathsDecomposeIdentically) {
  // The same logical content and read script must yield byte-identical
  // results AND identical {bytes_read, read_hole_bytes} decompositions on
  // every read path: single-chunk (chunk_bytes = 0) and batched striped
  // (R = 1 and R = 2).
  struct Totals {
    std::uint64_t bytes_read = 0;
    std::uint64_t holes = 0;
    std::uint64_t returned = 0;
    std::vector<Bytes> reads;
  };
  auto run = [](StoreConfig cfg) {
    sim::Cluster cluster;
    BlobStore store(cluster, cfg);
    sim::SimAgent agent;
    BlobClient client(store, &agent);
    EXPECT_TRUE(
        client.write("x", 3 * kChunk + 11, as_view(make_payload(26, 0, 4096))).ok());
    EXPECT_TRUE(client.write("x", kChunk - 5, as_view(make_payload(27, 0, 10))).ok());
    EXPECT_TRUE(client.truncate("x", 5 * kChunk).ok());  // tail hole
    Totals t;
    for (const auto& [off, len] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, 6 * kChunk},           // whole blob, clipped at EOF
             {kChunk - 8, 20},          // extent straddling a chunk boundary
             {2 * kChunk, kChunk},      // pure hole chunk
             {4 * kChunk + 1, kChunk},  // tail hole, clipped
         }) {
      auto r = client.read("x", off, len);
      EXPECT_TRUE(r.ok());
      t.returned += r.ok() ? r.value().size() : 0;
      t.reads.push_back(r.ok() ? std::move(r.value()) : Bytes{});
    }
    t.bytes_read = client.counters().bytes_read;
    t.holes = client.counters().read_hole_bytes;
    return t;
  };

  StoreConfig quorum;
  quorum.write_quorum = 2;

  const Totals base = run(unstriped_cfg());  // the single-chunk read path
  // Decomposition identity: every returned byte is extent-backed or hole.
  EXPECT_EQ(base.bytes_read + base.holes, base.returned);
  for (const StoreConfig& cfg : {StoreConfig{}, quorum}) {
    const Totals t = run(cfg);
    EXPECT_EQ(t.bytes_read, base.bytes_read);
    EXPECT_EQ(t.holes, base.holes);
    EXPECT_EQ(t.returned, base.returned);
    ASSERT_EQ(t.reads.size(), base.reads.size());
    for (std::size_t i = 0; i < t.reads.size(); ++i) {
      EXPECT_TRUE(equal(as_view(t.reads[i]), as_view(base.reads[i])))
          << "read " << i;
    }
  }
}

TEST(ReadAccounting, EveryServerReadEntryPointChargesByOneRule) {
  // One object with three extents, holes between them and a tail hole,
  // prepared identically on three servers (one per node). Each server serves
  // it through a different entry point, first with the page cache dropped,
  // then warm: bytes, covered bytes and service time must all agree.
  const std::string key = "holey";
  constexpr std::uint64_t kLen = 64 * 1024;
  const Bytes a = make_payload(31, 0, 100);
  const Bytes b = make_payload(32, 0, 5000);
  const Bytes c = make_payload(33, 0, 777);
  struct Rig {
    sim::SimNode node{0, sim::NodeRole::storage};
    BlobServer srv{node};
  };
  std::array<Rig, 3> rigs;
  for (Rig& rig : rigs) {
    using Kind = BlobServer::TxnOp::Kind;
    const BlobServer::OpRef ops[] = {
        {Kind::write, &key, 0, as_view(a)},
        {Kind::write, &key, 8192, as_view(b)},
        {Kind::write, &key, 40000, as_view(c)},
        {Kind::truncate, &key, 0, {}, kLen},
    };
    SimMicros svc = 0;
    auto lk = rig.srv.lock_key(key);
    ASSERT_TRUE(rig.srv.apply_ops(ops, std::size(ops), &svc).ok());
    rig.node.cache().invalidate(fnv1a64(key));  // start cold
  }

  struct Served {
    Bytes data;
    std::uint64_t covered = 0;
    SimMicros service = 0;
  };
  auto via_read = [&](BlobServer& srv) {
    Served s;
    auto r = srv.read(key, 0, kLen, &s.service);
    EXPECT_TRUE(r.ok());
    s.data = r.value().data;
    s.covered = r.value().covered;
    return s;
  };
  auto via_read_locked = [&](BlobServer& srv) {
    auto lk = srv.lock_key(key);
    Served s;
    auto r = srv.read_locked(key, 0, kLen, &s.service);
    EXPECT_TRUE(r.ok());
    s.data = r.value().data;
    s.covered = r.value().covered;
    return s;
  };
  auto via_batch = [&](BlobServer& srv) {
    Served s;
    s.data.assign(kLen, std::byte{0});
    BlobServer::ReadSubOp sub{.key = &key, .dst = MutableByteView{s.data}};
    BlobServer::ReadSubResult res;
    srv.read_batch(&sub, 1, &res, &s.service);
    EXPECT_EQ(res.err, Errc::ok);
    EXPECT_EQ(res.data_len, kLen);
    s.covered = res.covered;
    return s;
  };

  Bytes expected(kLen, std::byte{0});
  std::copy(a.begin(), a.end(), expected.begin());
  std::copy(b.begin(), b.end(), expected.begin() + 8192);
  std::copy(c.begin(), c.end(), expected.begin() + 40000);
  SimMicros cold_service = 0;
  for (const char* pass : {"cold", "warm"}) {
    const Served ref = via_read(rigs[0].srv);
    EXPECT_TRUE(equal(as_view(ref.data), as_view(expected))) << pass;
    EXPECT_EQ(ref.covered, a.size() + b.size() + c.size()) << pass;
    for (const Served& s : {via_read_locked(rigs[1].srv), via_batch(rigs[2].srv)}) {
      EXPECT_TRUE(equal(as_view(s.data), as_view(ref.data))) << pass;
      EXPECT_EQ(s.covered, ref.covered) << pass;
      EXPECT_EQ(s.service, ref.service) << pass;
    }
    if (cold_service == 0) {
      cold_service = ref.service;
    } else {
      EXPECT_LT(ref.service, cold_service);  // the warm pass skipped the disk
    }
  }
}

// --- size()/stat() through the metadata cache (satellite) -----------------

TEST_F(MetaCacheTest, SizeAndStatAnswerFromTheCache) {
  ClientRegistryAgreement agree({&a_, &b_});
  ASSERT_TRUE(a_.write("k", 0, as_view(make_payload(14, 0, 2 * kChunk))).ok());
  const SimMicros t0 = agent_a_.now();
  auto s = a_.size("k");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), 2 * kChunk);
  EXPECT_EQ(agent_a_.now(), t0);  // cache hit: zero charged rounds
  EXPECT_EQ(a_.counters().metacache_hits, 1u);

  // A fresh client pays one charged stat round, then hits.
  const SimMicros b0 = agent_b_.now();
  ASSERT_TRUE(b_.stat("k").ok());
  EXPECT_GT(agent_b_.now(), b0);
  const SimMicros b1 = agent_b_.now();
  auto s2 = b_.size("k");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value(), 2 * kChunk);
  EXPECT_EQ(agent_b_.now(), b1);
  EXPECT_EQ(b_.counters().metacache_misses, 1u);
  EXPECT_EQ(b_.counters().metacache_hits, 1u);

  // Local mutations keep the entry coherent: size() after truncate answers
  // the new size from the refreshed entry.
  ASSERT_TRUE(b_.truncate("k", 12345).ok());
  auto s3 = b_.size("k");
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s3.value(), 12345u);

  // Absent blobs are never cached: each stat pays its round again.
  EXPECT_EQ(b_.stat("ghost").code(), Errc::not_found);
  const std::uint64_t misses = b_.counters().metacache_misses;
  EXPECT_EQ(b_.stat("ghost").code(), Errc::not_found);
  EXPECT_EQ(b_.counters().metacache_misses, misses + 1);
  agree.check({"client.size.calls", "client.stat.calls", "client.metacache.hits",
               "client.metacache.misses"});
}

// --- absent / at-EOF striped reads (satellite: full-len probe legs) -------

TEST(BatchProbeEconomy, AbsentStripedReadCostsOneStatRound) {
  sim::Cluster cluster;
  BlobStore store(cluster, StoreConfig{});
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  const SimMicros t0 = agent.now();
  EXPECT_EQ(client.stat("ghost-a").code(), Errc::not_found);
  const SimMicros stat_cost = agent.now() - t0;

  const SimMicros t1 = agent.now();
  EXPECT_EQ(client.read("ghost-b", 0, 8 * kChunk).code(), Errc::not_found);
  const SimMicros read_cost = agent.now() - t1;

  // The absent read is answered by its stat round alone — no batch envelope,
  // no full-length probe leg shipped over the wire.
  EXPECT_EQ(read_cost, stat_cost);
  EXPECT_EQ(client.counters().batch_envelopes, 0u);
}

TEST(BatchProbeEconomy, AtEofStripedReadShipsNoData) {
  sim::Cluster cluster;
  BlobStore store(cluster, StoreConfig{});
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ASSERT_TRUE(client.write("k", 0, as_view(make_payload(13, 0, 2 * kChunk))).ok());

  const std::uint64_t envelopes_before = client.counters().batch_envelopes;
  auto r = client.read("k", 5 * kChunk, 3 * kChunk);  // far past EOF
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  // Verified by a stat round, not by a data batch.
  EXPECT_EQ(client.counters().batch_envelopes, envelopes_before);
  EXPECT_EQ(client.counters().bytes_read, 0u);
}

}  // namespace
}  // namespace bsc::blob
