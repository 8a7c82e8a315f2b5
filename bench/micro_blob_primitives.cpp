// Microbenchmarks of the blob store's §III primitive set and its
// transaction layer. Two kinds of measurements per operation:
//   * wall-clock throughput of the implementation (what google-benchmark
//     reports natively), and
//   * simulated latency per operation (reported as a counter), which is the
//     number the storage comparison actually argues about.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adapter/blobfs.hpp"
#include "blob/client.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "support.hpp"

using namespace bsc;

namespace {

struct BlobRig {
  sim::Cluster cluster;
  blob::BlobStore store{cluster};
  sim::SimAgent agent;
  blob::BlobClient client{store, &agent};
};

void BM_BlobWrite(benchmark::State& state) {
  BlobRig rig;
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const Bytes data = make_payload(1, 0, size);
  std::uint64_t i = 0;
  const SimMicros t0 = rig.agent.now();
  for (auto _ : state) {
    auto r = rig.client.write(strfmt("w-%llu", static_cast<unsigned long long>(i++ % 64)),
                              0, as_view(data));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(size) * state.iterations());
  state.counters["sim_us_per_op"] = benchmark::Counter(
      static_cast<double>(rig.agent.now() - t0) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BlobWrite)->Arg(1024)->Arg(64 * 1024)->Arg(1 << 20);

// --- multi-threaded write scenarios (wall-clock scaling of the write path) ---
//
// One shared store, one client per benchmark thread. Distinct-key writers
// must scale with threads (per-key striped locking); same-key writers are
// the worst case and serialize by design (the per-key ordering invariant).

struct MtRig {
  sim::Cluster cluster;
  blob::BlobStore store{cluster};
  std::vector<std::unique_ptr<sim::SimAgent>> agents;
  std::vector<std::unique_ptr<blob::BlobClient>> clients;

  explicit MtRig(int threads) {
    for (int t = 0; t < threads; ++t) {
      agents.push_back(std::make_unique<sim::SimAgent>());
      clients.push_back(std::make_unique<blob::BlobClient>(store, agents.back().get()));
    }
  }
};
MtRig* g_mt_rig = nullptr;  // created/destroyed by benchmark thread 0

void BM_BlobWriteMTDistinctKeys(benchmark::State& state) {
  if (state.thread_index() == 0) g_mt_rig = new MtRig(static_cast<int>(state.threads()));
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const Bytes data = make_payload(11, 0, size);
  const int t = state.thread_index();
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto& client = *g_mt_rig->clients[static_cast<std::size_t>(t)];
    auto r = client.write(strfmt("mt-%d-%llu", t, static_cast<unsigned long long>(i++ % 64)),
                          0, as_view(data));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(size) * state.iterations());
  if (state.thread_index() == 0) {
    delete g_mt_rig;
    g_mt_rig = nullptr;
  }
}
BENCHMARK(BM_BlobWriteMTDistinctKeys)
    ->Arg(64 * 1024)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_BlobWriteMTSameKey(benchmark::State& state) {
  if (state.thread_index() == 0) g_mt_rig = new MtRig(static_cast<int>(state.threads()));
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const Bytes data = make_payload(12, 0, size);
  const int t = state.thread_index();
  for (auto _ : state) {
    auto& client = *g_mt_rig->clients[static_cast<std::size_t>(t)];
    auto r = client.write("mt-hot", 0, as_view(data));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(size) * state.iterations());
  if (state.thread_index() == 0) {
    delete g_mt_rig;
    g_mt_rig = nullptr;
  }
}
BENCHMARK(BM_BlobWriteMTSameKey)->Arg(64 * 1024)->Threads(8)->UseRealTime();

void BM_BlobRead(benchmark::State& state) {
  BlobRig rig;
  const auto size = static_cast<std::uint64_t>(state.range(0));
  (void)rig.client.write("r", 0, as_view(make_payload(2, 0, size)));
  const SimMicros t0 = rig.agent.now();
  for (auto _ : state) {
    auto r = rig.client.read("r", 0, size);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(size) * state.iterations());
  state.counters["sim_us_per_op"] = benchmark::Counter(
      static_cast<double>(rig.agent.now() - t0) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BlobRead)->Arg(1024)->Arg(64 * 1024)->Arg(1 << 20);

// --- striped scatter-gather scenarios --------------------------------------
//
// Arg 0 is the blob size; Arg 1 is the write quorum W (0 = classic
// all-live-replica acks, 2 over replication 3 = read quorum R=2). 8 MiB over
// 1 MiB chunks = 8-way striping: the client pays one batch envelope per
// candidate replica set, with client-computed checksums and zero-copy
// vectored sub-ops. At R=2 a read also ships one digest-only vote envelope
// per group. Per-op simulated completion times are sampled individually so
// the JSON rows carry exact p50/p99, not means.

blob::StoreConfig striped_cfg(std::uint32_t write_quorum) {
  blob::StoreConfig cfg;
  cfg.write_quorum = write_quorum;
  return cfg;
}

void report_striped(benchmark::State& state, std::uint64_t size,
                    std::vector<double>& samples, std::uint32_t write_quorum) {
  state.SetBytesProcessed(static_cast<std::int64_t>(size) * state.iterations());
  if (write_quorum != 0) state.SetLabel(strfmt("W%u", write_quorum));
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double s : samples) sum += s;
  state.counters["sim_us_per_op"] =
      benchmark::Counter(sum / static_cast<double>(samples.size()));
  state.counters["sim_p50_us"] =
      benchmark::Counter(samples[(samples.size() - 1) * 50 / 100]);
  state.counters["sim_p99_us"] =
      benchmark::Counter(samples[(samples.size() - 1) * 99 / 100]);
}

void BM_BlobStripedWrite(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const auto wq = static_cast<std::uint32_t>(state.range(1));
  sim::Cluster cluster;
  blob::BlobStore store(cluster, striped_cfg(wq));
  sim::SimAgent agent;
  blob::BlobClient client(store, &agent);
  const Bytes data = make_payload(21, 0, size);
  std::vector<double> samples;
  samples.reserve(256);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const SimMicros t0 = agent.now();
    auto r = client.write(strfmt("sw-%llu", static_cast<unsigned long long>(i++ % 8)),
                          0, as_view(data));
    benchmark::DoNotOptimize(r.ok());
    samples.push_back(static_cast<double>(agent.now() - t0));
  }
  report_striped(state, size, samples, wq);
}
BENCHMARK(BM_BlobStripedWrite)->Args({8 << 20, 0})->Args({8 << 20, 2});

void BM_BlobStripedRead(benchmark::State& state) {
  const auto size = static_cast<std::uint64_t>(state.range(0));
  const auto wq = static_cast<std::uint32_t>(state.range(1));
  sim::Cluster cluster;
  blob::BlobStore store(cluster, striped_cfg(wq));
  sim::SimAgent agent;
  blob::BlobClient client(store, &agent);
  (void)client.write("sr", 0, as_view(make_payload(22, 0, size)));
  std::vector<double> samples;
  samples.reserve(256);
  for (auto _ : state) {
    const SimMicros t0 = agent.now();
    auto r = client.read("sr", 0, size);
    benchmark::DoNotOptimize(r.ok());
    samples.push_back(static_cast<double>(agent.now() - t0));
  }
  report_striped(state, size, samples, wq);
}
BENCHMARK(BM_BlobStripedRead)->Args({8 << 20, 0})->Args({8 << 20, 2});

void BM_BlobCreateRemove(benchmark::State& state) {
  BlobRig rig;
  std::uint64_t i = 0;
  const SimMicros t0 = rig.agent.now();
  for (auto _ : state) {
    const std::string key = strfmt("cr-%llu", static_cast<unsigned long long>(i++));
    benchmark::DoNotOptimize(rig.client.create(key).ok());
    benchmark::DoNotOptimize(rig.client.remove(key).ok());
  }
  state.counters["sim_us_per_pair"] = benchmark::Counter(
      static_cast<double>(rig.agent.now() - t0) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BlobCreateRemove);

void BM_BlobScan(benchmark::State& state) {
  BlobRig rig;
  const auto objects = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < objects; ++i) {
    (void)rig.client.create(strfmt("s-%06llu", static_cast<unsigned long long>(i)));
  }
  const SimMicros t0 = rig.agent.now();
  for (auto _ : state) {
    auto r = rig.client.scan("s-0000");
    benchmark::DoNotOptimize(r.ok());
  }
  // The §III point: scan cost grows with the WHOLE namespace, not with the
  // number of matches.
  state.counters["sim_us_per_scan"] = benchmark::Counter(
      static_cast<double>(rig.agent.now() - t0) / static_cast<double>(state.iterations()));
  state.counters["namespace_objects"] = benchmark::Counter(static_cast<double>(objects));
}
BENCHMARK(BM_BlobScan)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BlobTransactionCommit(benchmark::State& state) {
  BlobRig rig;
  const auto ops = static_cast<std::uint64_t>(state.range(0));
  const Bytes data = make_payload(3, 0, 4096);
  std::uint64_t round = 0;
  const SimMicros t0 = rig.agent.now();
  for (auto _ : state) {
    auto txn = rig.client.begin_transaction();
    for (std::uint64_t i = 0; i < ops; ++i) {
      txn.write(strfmt("t-%llu", static_cast<unsigned long long>(i)),
                (round % 16) * 4096, as_view(data));
    }
    benchmark::DoNotOptimize(txn.commit().ok());
    ++round;
  }
  state.counters["sim_us_per_txn"] = benchmark::Counter(
      static_cast<double>(rig.agent.now() - t0) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BlobTransactionCommit)->Arg(1)->Arg(4)->Arg(16);

void BM_RingLocate(benchmark::State& state) {
  // Placement alone: the keys, BlobFs data-chunk keys of 64 files, are built
  // before the timed loop.
  blob::HashRing ring;
  for (std::uint32_t n = 0; n < 8; ++n) ring.add_node(n);
  Rng rng(1);
  std::vector<std::string> keys(4096);
  for (auto& key : keys) {
    const std::string path =
        strfmt("/input/text/part-%05llu", static_cast<unsigned long long>(rng.next_below(64)));
    key = adapter::BlobFs::chunk_key(path, rng.next_below(1024));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.locate(keys[i++ % keys.size()], 3));
  }
}
BENCHMARK(BM_RingLocate);

void BM_EngineCompaction(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    blob::StorageEngine engine(blob::EngineConfig{.segment_bytes = 1 << 20});
    Rng rng(7);
    const Bytes data = make_payload(4, 0, 8192);
    for (int i = 0; i < 2000; ++i) {
      (void)engine.write(strfmt("o-%d", i % 50), rng.next_below(1 << 16), as_view(data),
                         true);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.compact());
  }
}
BENCHMARK(BM_EngineCompaction);

// Host cost of one small engine call on one object holding range(0) 2 KiB
// extents: it should not grow with the extent count.
constexpr std::uint64_t kEngineExtentBytes = 2048;

blob::StorageEngine engine_with_extents(std::uint64_t extents) {
  blob::StorageEngine engine;
  const Bytes data = make_payload(8, 0, kEngineExtentBytes);
  for (std::uint64_t i = 0; i < extents; ++i) {
    (void)engine.write("obj", i * kEngineExtentBytes, as_view(data), true);
  }
  return engine;
}

void BM_EngineAppend(benchmark::State& state) {
  // range(0) - 2 sequential appends, then a tail the timed loop rewrites.
  // Each 2 KiB write appends to the log and supersedes part of the tail,
  // alternating between two offsets 1 KiB apart: the tail then always holds
  // two extents, so the object stays at range(0) extents however many
  // iterations run (a plain append past the end would grow it by one each).
  const auto extents = static_cast<std::uint64_t>(state.range(0));
  blob::StorageEngine engine = engine_with_extents(extents - 2);
  const Bytes data = make_payload(9, 0, kEngineExtentBytes);
  const std::uint64_t tail = (extents - 2) * kEngineExtentBytes;
  (void)engine.write("obj", tail, as_view(data), true);
  std::uint64_t i = 1;
  for (auto _ : state) {
    auto r = engine.write("obj", tail + (i++ & 1) * (kEngineExtentBytes / 2), as_view(data),
                          true);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(kEngineExtentBytes) * state.iterations());
}
BENCHMARK(BM_EngineAppend)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

void BM_EngineReadSmall(benchmark::State& state) {
  // 1 KiB reads sweeping, in order, the last 16 extents (32 KiB) of an
  // object of range(0) 2 KiB extents. The window is the same at every
  // extent count, so the rows differ only in the extent index they search:
  // sweeping the whole object would add cache misses that grow with its
  // 2 KiB x range(0) bytes of data, not with the cost of finding an extent.
  const auto extents = static_cast<std::uint64_t>(state.range(0));
  const blob::StorageEngine engine = engine_with_extents(extents);
  constexpr std::uint64_t kRead = 1024;
  constexpr std::uint64_t kWindow = 16 * kEngineExtentBytes;
  const std::uint64_t size = extents * kEngineExtentBytes;
  std::uint64_t off = size - kWindow;
  for (auto _ : state) {
    auto r = engine.read("obj", off, kRead);
    benchmark::DoNotOptimize(r.ok());
    off = off + kRead < size ? off + kRead : size - kWindow;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(kRead) * state.iterations());
}
BENCHMARK(BM_EngineReadSmall)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

void BM_EngineLogGrowth(benchmark::State& state) {
  // 1.5 KiB appends to distinct keys of a fresh engine until its log holds
  // 64 MiB, then a fresh engine again. Nothing is overwritten, so no slot is
  // ever recycled: every append lands in a segment the log opened itself,
  // the regime BM_EngineAppend's warm recycled slots cannot show.
  constexpr std::uint64_t kAppend = 1536;
  constexpr std::size_t kKeys = (64ULL << 20) / kAppend;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) keys.push_back(strfmt("k%zu", k));
  const Bytes data = make_payload(11, 0, kAppend);
  blob::StorageEngine engine;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == kKeys) {
      state.PauseTiming();
      engine = blob::StorageEngine();
      next = 0;
      state.ResumeTiming();
    }
    auto r = engine.write(keys[next++], 0, as_view(data), true);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(kAppend) * state.iterations());
}
BENCHMARK(BM_EngineLogGrowth);

// Ablation: replication factor vs simulated write latency.
void BM_ReplicationLatency(benchmark::State& state) {
  sim::Cluster cluster;
  blob::StoreConfig cfg;
  cfg.replication = static_cast<std::uint32_t>(state.range(0));
  blob::BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  blob::BlobClient client(store, &agent);
  const Bytes data = make_payload(5, 0, 64 * 1024);
  std::uint64_t i = 0;
  const SimMicros t0 = agent.now();
  for (auto _ : state) {
    (void)client.write(strfmt("r-%llu", static_cast<unsigned long long>(i++ % 32)), 0,
                       as_view(data));
  }
  state.counters["sim_us_per_write"] = benchmark::Counter(
      static_cast<double>(agent.now() - t0) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ReplicationLatency)->Arg(1)->Arg(2)->Arg(3);

// Ablation: GbE vs InfiniBand interconnect.
void BM_NetworkProfile(benchmark::State& state) {
  sim::ClusterSpec spec = state.range(0) == 0 ? sim::ClusterSpec::parapluie()
                                              : sim::ClusterSpec::parapluie_ib();
  sim::Cluster cluster(spec);
  blob::BlobStore store(cluster);
  sim::SimAgent agent;
  blob::BlobClient client(store, &agent);
  const Bytes data = make_payload(6, 0, 256 * 1024);
  std::uint64_t i = 0;
  const SimMicros t0 = agent.now();
  for (auto _ : state) {
    (void)client.write(strfmt("n-%llu", static_cast<unsigned long long>(i++ % 32)), 0,
                       as_view(data));
  }
  state.SetLabel(state.range(0) == 0 ? "gbe" : "ib-ddr-4x");
  state.counters["sim_us_per_write"] = benchmark::Counter(
      static_cast<double>(agent.now() - t0) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_NetworkProfile)->Arg(0)->Arg(1);

/// Console reporter that also captures every run for `--json <path>` output
/// (the machine-readable perf trajectory; schema in EXPERIMENTS.md).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      bench::BenchResult r;
      r.name = run.benchmark_name();
      r.iterations = static_cast<std::uint64_t>(run.iterations);
      r.ns_per_op = run.iterations > 0
                        ? run.real_accumulated_time * 1e9 / static_cast<double>(run.iterations)
                        : 0.0;
      auto bps = run.counters.find("bytes_per_second");
      if (bps != run.counters.end()) r.bytes_per_s = bps->second;
      auto sim = run.counters.find("sim_us_per_op");
      if (sim != run.counters.end()) r.sim_us_per_op = sim->second;
      auto p50 = run.counters.find("sim_p50_us");
      if (p50 != run.counters.end()) r.sim_p50_us = p50->second;
      auto p99 = run.counters.find("sim_p99_us");
      if (p99 != run.counters.end()) r.sim_p99_us = p99->second;
      results.push_back(std::move(r));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<bench::BenchResult> results;
};

/// Extract and remove a `--metrics <path>` argument pair (mirrors
/// bench::take_json_path, which owns `--json`).
std::string take_metrics_path(int* argc, char** argv) {
  for (int i = 1; i + 1 < *argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return path;
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json = bench::take_json_path(&argc, argv);
  const std::string metrics = take_metrics_path(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json.empty() &&
      !bench::write_bench_json(json, bench::collect_run_meta("micro_blob_primitives"),
                               reporter.results)) {
    return 1;
  }
  if (!metrics.empty()) {
    const std::string out = obs::MetricsRegistry::global().snapshot().to_json();
    std::FILE* f = std::fopen(metrics.c_str(), "wb");
    if (!f || std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
      std::fprintf(stderr, "cannot write metrics snapshot: %s\n", metrics.c_str());
      if (f) std::fclose(f);
      return 1;
    }
    std::fclose(f);
  }
  return 0;
}
