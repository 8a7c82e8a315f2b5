// Ablation benches for the layout design choices DESIGN.md calls out:
// PFS stripe size, BlobFs chunk size, and the blob engine's segment size /
// compaction threshold — measured as simulated time for a fixed workload.
#include <benchmark/benchmark.h>

#include "adapter/blobfs.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "pfs/pfs.hpp"
#include "vfs/helpers.hpp"

using namespace bsc;

namespace {

/// Fixed workload: write a 4 MiB file in 64 KiB calls, read it back in
/// 256 KiB calls.
SimMicros stream_workload(vfs::FileSystem& fs) {
  sim::SimAgent agent;
  vfs::IoCtx ctx{&agent, 100, 100};
  const Bytes chunk = make_payload(1, 0, 64 * 1024);
  auto h = fs.open(ctx, "/stream.dat", vfs::OpenFlags::rw());
  if (!h.ok()) return -1;
  for (std::uint64_t off = 0; off < (4 << 20); off += chunk.size()) {
    if (!fs.write(ctx, h.value(), off, as_view(chunk)).ok()) return -1;
  }
  for (std::uint64_t off = 0; off < (4 << 20); off += 256 * 1024) {
    if (!fs.read(ctx, h.value(), off, 256 * 1024).ok()) return -1;
  }
  (void)fs.close(ctx, h.value());
  return agent.now();
}

void BM_PfsStripeSize(benchmark::State& state) {
  const auto stripe = static_cast<std::uint64_t>(state.range(0));
  SimMicros sim = 0;
  for (auto _ : state) {
    sim::Cluster cluster;
    pfs::LustreLikeFs fs(cluster, pfs::PfsConfig{.stripe_size = stripe});
    sim = stream_workload(fs);
    benchmark::DoNotOptimize(sim);
  }
  state.SetLabel(strfmt("stripe=%lluKiB", static_cast<unsigned long long>(stripe / 1024)));
  state.counters["sim_ms_workload"] = benchmark::Counter(static_cast<double>(sim) / 1000.0);
}
BENCHMARK(BM_PfsStripeSize)->Arg(16 << 10)->Arg(64 << 10)->Arg(256 << 10)->Arg(1 << 20);

void BM_BlobFsChunkSize(benchmark::State& state) {
  const auto chunk = static_cast<std::uint64_t>(state.range(0));
  SimMicros sim = 0;
  for (auto _ : state) {
    sim::Cluster cluster;
    blob::BlobStore store(cluster);
    adapter::BlobFs fs(store, adapter::BlobFsConfig{.chunk_bytes = chunk});
    sim = stream_workload(fs);
    benchmark::DoNotOptimize(sim);
  }
  state.SetLabel(strfmt("chunk=%lluKiB", static_cast<unsigned long long>(chunk / 1024)));
  state.counters["sim_ms_workload"] = benchmark::Counter(static_cast<double>(sim) / 1000.0);
}
BENCHMARK(BM_BlobFsChunkSize)->Arg(64 << 10)->Arg(256 << 10)->Arg(1 << 20)->Arg(4 << 20);

// R=2 quorum striped reads. The client ships one payload envelope plus one
// digest-only vote envelope per candidate replica set, so only one payload
// per sub-op crosses the wire.
void BM_QuorumStripedRead(benchmark::State& state) {
  blob::StoreConfig cfg;
  cfg.write_quorum = 2;  // replication 3 -> read quorum R = 2
  SimMicros sim = 0;
  for (auto _ : state) {
    sim::Cluster cluster;
    blob::BlobStore store(cluster, cfg);
    sim::SimAgent agent;
    blob::BlobClient client(store, &agent);
    if (!client.write("q", 0, as_view(make_payload(2, 0, 8 << 20))).ok()) return;
    const SimMicros t0 = agent.now();
    for (int i = 0; i < 8; ++i) {
      auto r = client.read("q", 0, 8 << 20);
      benchmark::DoNotOptimize(r.ok());
    }
    sim = agent.now() - t0;
  }
  state.SetLabel("R2");
  state.counters["sim_ms_workload"] = benchmark::Counter(static_cast<double>(sim) / 1000.0);
}
BENCHMARK(BM_QuorumStripedRead);

void BM_EngineSegmentSize(benchmark::State& state) {
  const auto seg = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    blob::StorageEngine engine(blob::EngineConfig{.segment_bytes = seg});
    Rng rng(1);
    const Bytes data = make_payload(2, 0, 8192);
    for (int i = 0; i < 3000; ++i) {
      benchmark::DoNotOptimize(
          engine.write(strfmt("o-%d", i % 40), rng.next_below(1 << 16), as_view(data), true)
              .ok());
    }
    if (engine.needs_compaction()) benchmark::DoNotOptimize(engine.compact());
  }
  state.SetLabel(strfmt("segment=%lluKiB", static_cast<unsigned long long>(seg / 1024)));
}
BENCHMARK(BM_EngineSegmentSize)->Arg(256 << 10)->Arg(1 << 20)->Arg(8 << 20);

void BM_CompactionThreshold(benchmark::State& state) {
  const double ratio = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t compactions = 0;
  for (auto _ : state) {
    blob::StorageEngine engine(
        blob::EngineConfig{.segment_bytes = 1 << 20, .compact_dead_ratio = ratio});
    Rng rng(1);
    const Bytes data = make_payload(3, 0, 4096);
    for (int i = 0; i < 5000; ++i) {
      (void)engine.write(strfmt("o-%d", i % 20), rng.next_below(1 << 15), as_view(data),
                         true);
      if (engine.needs_compaction()) {
        engine.compact();
        ++compactions;
      }
    }
  }
  state.SetLabel(strfmt("threshold=%d%%", static_cast<int>(state.range(0))));
  state.counters["compactions"] = benchmark::Counter(
      static_cast<double>(compactions) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CompactionThreshold)->Arg(25)->Arg(50)->Arg(75);

}  // namespace
