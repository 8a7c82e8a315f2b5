// Tests for the unified observability layer (src/obs): registry identity,
// enable-flag gating, sharded-histogram exactness, snapshot/delta semantics,
// exporters, the slow-op log, and end-to-end parity between the registry and
// the blob client's own counters.
//
// The registry is process-global and shared across every test in this
// binary, so tests assert on deltas or on series they own ("test.*"), and
// always restore the enabled flag on teardown.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "blob/client.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "client_agreement.hpp"

namespace bsc::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override { set_metrics_enabled(true); }
};

TEST_F(ObsTest, RegistryReturnsStableIdentity) {
  auto& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test.identity.counter");
  Counter& b = reg.counter("test.identity.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &reg.counter("test.identity.other"));
  EXPECT_EQ(&reg.gauge("test.identity.gauge"), &reg.gauge("test.identity.gauge"));
  EXPECT_EQ(&reg.histogram("test.identity.hist"),
            &reg.histogram("test.identity.hist"));
}

TEST_F(ObsTest, CounterAndGaugeBasics) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.basics.counter");
  c.reset();
  c.inc();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  const std::uint64_t implicit = c;  // drop-in for plain uint64_t fields
  EXPECT_EQ(implicit, 10u);

  Gauge& g = reg.gauge("test.basics.gauge");
  g.reset();
  g.set(-4);
  g.add(10);
  EXPECT_EQ(g.value(), 6);
}

TEST_F(ObsTest, EnableFlagFreezesPublishers) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.gate.counter");
  ShardedHistogram& h = reg.histogram("test.gate.hist");
  c.reset();
  h.reset();

  set_metrics_enabled(false);
  c.inc();
  c.add(5);
  h.add(42);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);

  set_metrics_enabled(true);
  c.inc();
  h.add(42);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(ObsTest, LocalCounterIgnoresMetricsSwitch) {
  LocalCounter c;
  set_metrics_enabled(false);
  c.inc();
  c.add(4);
  set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 5u);
  const std::uint64_t implicit = c;  // drop-in for plain uint64_t fields
  EXPECT_EQ(implicit, 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, ThreadSlotIdsAreRecycledAcrossThreadExit) {
  Counter& c = MetricsRegistry::global().counter("test.recycle.counter");
  c.reset();
  const std::uint64_t overflow_before = overflowed_thread_count();
  // Far more thread *lifetimes* than slots, but only one at a time: every
  // thread must land on a recycled private slot, so the count stays exact
  // through the wait-free path and nobody overflows.
  constexpr int kThreadLifetimes = static_cast<int>(kThreadSlots) * 3;
  for (int i = 0; i < kThreadLifetimes; ++i) {
    std::thread([&c] { c.inc(); }).join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreadLifetimes));
  EXPECT_EQ(overflowed_thread_count(), overflow_before);
}

TEST_F(ObsTest, ShardedHistogramMatchesPlainHistogram) {
  ShardedHistogram& sh = MetricsRegistry::global().histogram("test.sharded.equiv");
  sh.reset();
  Histogram plain;
  for (std::uint64_t v = 1; v <= 2000; ++v) {
    sh.add(v);
    plain.add(v);
  }
  const Histogram merged = sh.merged();
  EXPECT_EQ(merged.count(), plain.count());
  EXPECT_DOUBLE_EQ(merged.mean(), plain.mean());
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.percentile(p), plain.percentile(p)) << "p=" << p;
  }
}

TEST_F(ObsTest, MultithreadedPublishersAreExact) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.mt.counter");
  ShardedHistogram& h = reg.histogram("test.mt.hist");
  c.reset();
  h.reset();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        c.inc();
        h.add(static_cast<std::uint64_t>(t * kOpsPerThread + i + 1));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  // Shard merge must preserve the global extremes exactly.
  const Histogram merged = h.merged();
  EXPECT_EQ(merged.percentile(100),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(merged.percentile(0), 1u);
}

TEST_F(ObsTest, SnapshotDeltaIsolatesInterval) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.delta.counter");
  ShardedHistogram& h = reg.histogram("test.delta.hist");
  c.reset();
  h.reset();
  c.add(10);
  for (int i = 0; i < 100; ++i) h.add(50);

  const MetricsSnapshot before = reg.snapshot();
  c.add(7);
  for (int i = 0; i < 50; ++i) h.add(5000);
  const MetricsSnapshot after = reg.snapshot();

  const MetricsSnapshot delta = after.delta_since(before);
  EXPECT_EQ(delta.counters.at("test.delta.counter"), 7u);
  const HistogramStats hs = delta.histogram_stats("test.delta.hist");
  EXPECT_EQ(hs.count, 50u);
  EXPECT_DOUBLE_EQ(hs.mean, 5000.0);
  EXPECT_EQ(hs.p50, 5000u);  // every interval sample was 5000
  // The full snapshot still sees both phases.
  EXPECT_EQ(after.counters.at("test.delta.counter"), 17u);
  EXPECT_EQ(after.histogram_stats("test.delta.hist").count, 150u);
}

TEST_F(ObsTest, ExportersRenderRegisteredSeries) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.export.counter").reset();
  reg.counter("test.export.counter").add(3);
  reg.gauge("test.export.gauge").set(-4);
  ShardedHistogram& h = reg.histogram("test.export.hist");
  h.reset();
  h.add(10);

  const MetricsSnapshot snap = reg.snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"source\": \"bsc-metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.gauge\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_ops\""), std::string::npos);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE bsc_test_export_counter counter"), std::string::npos);
  EXPECT_NE(prom.find("bsc_test_export_counter 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE bsc_test_export_gauge gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE bsc_test_export_hist summary"), std::string::npos);
  EXPECT_NE(prom.find("bsc_test_export_hist{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find("bsc_test_export_hist_count 1"), std::string::npos);
}

TEST_F(ObsTest, SlowOpLogKeepsWorstDescending) {
  SlowOpLog log;
  log.configure(3, 100);
  EXPECT_EQ(log.capacity(), 3u);
  EXPECT_EQ(log.threshold_us(), 100u);

  log.observe("client.read", "k-fast", 50, 1);  // below threshold: rejected
  log.observe("client.read", "k1", 150, 2);
  log.observe("client.read", "k2", 400, 3);
  log.observe("client.read", "k3", 200, 4);
  log.observe("client.read", "k4", 300, 5);  // evicts the 150us survivor

  const std::vector<SlowOp> worst = log.worst();
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_EQ(worst[0].latency_us, 400u);
  EXPECT_EQ(worst[0].key, "k2");
  EXPECT_EQ(worst[1].latency_us, 300u);
  EXPECT_EQ(worst[2].latency_us, 200u);
  for (const SlowOp& s : worst) EXPECT_NE(s.key, "k-fast");

  // Shrinking the capacity evicts cheapest-first.
  log.configure(1, 100);
  const std::vector<SlowOp> one = log.worst();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].latency_us, 400u);

  log.clear();
  EXPECT_TRUE(log.worst().empty());
}

TEST_F(ObsTest, SlowOpLogIgnoresObservationsWhenDisabled) {
  SlowOpLog log;
  log.configure(4, 0);
  set_metrics_enabled(false);
  log.observe("client.write", "k", 999, 1);
  EXPECT_TRUE(log.worst().empty());
  set_metrics_enabled(true);
  log.observe("client.write", "k", 999, 1);
  EXPECT_EQ(log.worst().size(), 1u);
}

TEST_F(ObsTest, BlobWorkloadPublishesRegistrySeries) {
  auto& reg = MetricsRegistry::global();
  const MetricsSnapshot before = reg.snapshot();

  sim::Cluster cluster;
  blob::BlobStore store(cluster, blob::StoreConfig{});
  sim::SimAgent agent;
  blob::BlobClient client(store, &agent);

  const Bytes payload = to_bytes(std::string(4096, 'x'));
  constexpr int kWrites = 16;
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(client.write("obs-key-" + std::to_string(i % 4), 0,
                             as_view(payload))
                    .ok());
  }
  // One striped blob (two 1 MiB chunks): its write rides the per-primary
  // chunk envelopes and its chunk-crossing read is served by read_batch.
  const std::uint64_t cb = store.config().chunk_bytes;
  const Bytes striped = to_bytes(std::string(2 * cb, 's'));
  ASSERT_TRUE(client.write("obs-striped", 0, as_view(striped)).ok());
  constexpr int kReads = 8;
  for (int i = 0; i < kReads - 1; ++i) {
    ASSERT_TRUE(client.read("obs-key-" + std::to_string(i % 4), 0, 4096).ok());
  }
  const MetricsSnapshot before_striped_read = reg.snapshot();
  ASSERT_TRUE(client.read("obs-striped", cb - 2048, 4096).ok());
  EXPECT_GT(reg.snapshot().delta_since(before_striped_read).counters.at("rpc.batches"), 0u);

  const MetricsSnapshot delta = reg.snapshot().delta_since(before);
  // Registry series agree with the client's own counters for this interval.
  EXPECT_EQ(delta.counters.at("client.write.calls"),
            static_cast<std::uint64_t>(client.counters().writes));
  EXPECT_EQ(delta.counters.at("client.read.calls"),
            static_cast<std::uint64_t>(client.counters().reads));
  EXPECT_EQ(delta.counters.at("client.write.calls"),
            static_cast<std::uint64_t>(kWrites + 1));
  EXPECT_EQ(delta.counters.at("client.read.calls"),
            static_cast<std::uint64_t>(kReads));
  // Taxonomy roll-up matches the per-primitive counts.
  EXPECT_EQ(delta.counters.at("client.category.file_write"),
            static_cast<std::uint64_t>(kWrites + 1));
  EXPECT_EQ(delta.counters.at("client.category.file_read"),
            static_cast<std::uint64_t>(kReads));
  // Latency and size histograms saw every call.
  EXPECT_EQ(delta.histogram_stats("client.write.latency_us").count,
            static_cast<std::uint64_t>(kWrites + 1));
  EXPECT_EQ(delta.histogram_stats("client.read.latency_us").count,
            static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(delta.histogram_stats("client.write.bytes").count,
            static_cast<std::uint64_t>(kWrites + 1));
  EXPECT_EQ(delta.histogram_stats("client.read.bytes").count,
            static_cast<std::uint64_t>(kReads));
  // Server and engine layers published too (counts can exceed client calls
  // under replication, never fall short).
  EXPECT_GE(delta.counters.at("server.write.calls"),
            static_cast<std::uint64_t>(kWrites));
  EXPECT_GE(delta.counters.at("server.read.calls"),
            static_cast<std::uint64_t>(kReads));
  EXPECT_GE(delta.counters.at("engine.op.write"),
            static_cast<std::uint64_t>(kWrites));
  EXPECT_GE(delta.counters.at("engine.op.read"),
            static_cast<std::uint64_t>(kReads));
  // Mutations stripe-lock every replica; reads take only the shared
  // structure lock, so the floor is the write count.
  EXPECT_GE(delta.counters.at("server.stripe.acquisitions"),
            static_cast<std::uint64_t>(kWrites));
  EXPECT_GE(delta.counters.at("server.txn.calls"),
            static_cast<std::uint64_t>(kWrites));
  // Every op a server applies or serves — in a one-op request or inside an
  // envelope (apply_ops ops, read_batch subs) — publishes one service sample.
  for (const char* op : {"server.write", "server.read", "server.grow"}) {
    EXPECT_EQ(delta.histogram_stats(std::string(op) + ".service_us").count,
              delta.counters.at(std::string(op) + ".calls"))
        << op;
  }
}

TEST_F(ObsTest, StripedWriteCountsGrowOnEveryReplica) {
  auto& reg = MetricsRegistry::global();
  sim::Cluster cluster;
  blob::BlobStore store(cluster, blob::StoreConfig{});
  ASSERT_EQ(store.config().replication, 3u);
  sim::SimAgent agent;
  blob::BlobClient client(store, &agent);
  const Bytes two_chunks = to_bytes(std::string(2 * store.config().chunk_bytes, 'g'));

  const MetricsSnapshot before = reg.snapshot();
  ASSERT_TRUE(client.write("grown", 0, as_view(two_chunks)).ok());
  const MetricsSnapshot delta = reg.snapshot().delta_since(before);
  // The chunk-0 size bump lands once per replica, on the server and the
  // engine alike.
  EXPECT_EQ(delta.counters.at("server.grow.calls"), 3u);
  EXPECT_EQ(delta.counters.at("engine.op.grow"), 3u);
  EXPECT_EQ(delta.histogram_stats("server.grow.service_us").count, 3u);
}

TEST_F(ObsTest, ClientCountersKeepCountingWhenMetricsDisabled) {
  sim::Cluster cluster;
  blob::BlobStore store(cluster, blob::StoreConfig{});
  sim::SimAgent agent;
  blob::BlobClient client(store, &agent);
  const Bytes payload = to_bytes(std::string(512, 'y'));

  blob::ClientRegistryAgreement agree({&client});
  set_metrics_enabled(false);
  ASSERT_TRUE(client.write("obs-gated-key", 0, as_view(payload)).ok());
  ASSERT_TRUE(client.read("obs-gated-key", 0, 512).ok());
  set_metrics_enabled(true);

  // ClientCounters is functional accounting, not observability: it must
  // keep counting while the metrics switch is off...
  EXPECT_EQ(client.counters().writes, 1u);
  EXPECT_EQ(client.counters().reads, 1u);
  EXPECT_EQ(client.counters().bytes_written, 512u);
  EXPECT_EQ(client.counters().bytes_read, 512u);
  // ...while every event's registry series stays frozen.
  agree.check_frozen({"client.write.calls", "client.read.calls", "client.write.bytes",
                      "client.read.covered_bytes"});
}

}  // namespace
}  // namespace bsc::obs
