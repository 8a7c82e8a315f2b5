// Microbenchmarks of elastic membership: what an online rebalance costs in
// simulated time (migration duration under different bandwidth throttles,
// decommission time-to-drain) and what it costs the foreground workload
// (write latency with a migration window open vs. closed — the dual-write
// and placement-stabilization tax). `sim_*` counters are simulated time;
// ns_per_op is host wall-clock for the harness itself.
//
// `--json <path>` writes the machine-readable result file; `--metrics <path>`
// dumps the registry snapshot after the run so CI can assert the rebalance.*
// series moved.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "blob/client.hpp"
#include "blob/rebalance.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "support.hpp"

using namespace bsc;

namespace {

constexpr std::uint64_t kPayload = 4096;
constexpr int kObjects = 128;

sim::ClusterSpec rig_spec() {
  sim::ClusterSpec s;
  s.storage_nodes = 8;
  return s;
}

/// Store preloaded with kObjects payload objects, ready to grow or shrink.
struct Rig {
  sim::Cluster cluster{rig_spec()};
  blob::BlobStore store{cluster, blob::StoreConfig{}};
  sim::SimAgent agent;
  blob::BlobClient client{store, &agent};

  Rig() {
    const Bytes data = make_payload(7, 0, kPayload);
    for (int i = 0; i < kObjects; ++i) {
      auto r = client.write(strfmt("o-%04d", i), 0, as_view(data));
      if (!r.ok()) std::abort();
    }
  }
};

// --- migration duration vs. throttle ---------------------------------------
// One full grow migration per iteration; Arg = bandwidth cap in KiB of
// simulated migration traffic per simulated second (0 = unthrottled). The
// figure of merit is sim_migration_us: unthrottled it is the service+wire
// cost of the copies, throttled it converges to bytes_moved / cap.

void BM_GrowMigration(benchmark::State& state) {
  const std::uint64_t cap_kib = static_cast<std::uint64_t>(state.range(0));
  Histogram dur;
  std::uint64_t bytes = 0, keys = 0;
  for (auto _ : state) {
    state.PauseTiming();  // rig construction is not the measured subject
    Rig rig;
    state.ResumeTiming();
    blob::RebalanceConfig rcfg;
    rcfg.batch_keys = 16;
    rcfg.throttle_bytes_per_sec = cap_kib * 1024;
    auto fresh = rig.store.begin_add_server(rig.cluster.compute_node(0), rcfg);
    if (!fresh.ok()) {
      state.SkipWithError("begin_add_server failed");
      return;
    }
    sim::SimAgent mig;
    blob::Rebalancer* rb = rig.store.rebalancer();
    if (!rb->run_to_completion(&mig).ok()) {
      state.SkipWithError("migration failed");
      return;
    }
    dur.add(static_cast<std::uint64_t>(mig.now()));
    bytes += rb->progress().bytes_moved;
    keys += rb->progress().keys_moved;
  }
  state.SetLabel(cap_kib == 0 ? "unthrottled"
                              : strfmt("cap=%lluKiB/s",
                                       static_cast<unsigned long long>(cap_kib)));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  const auto iters = static_cast<double>(state.iterations());
  state.counters["sim_migration_us"] = benchmark::Counter(
      iters > 0 ? dur.mean() * static_cast<double>(dur.count()) / iters : 0.0);
  state.counters["sim_p50_us"] =
      benchmark::Counter(static_cast<double>(dur.percentile(50)));
  state.counters["sim_p99_us"] =
      benchmark::Counter(static_cast<double>(dur.percentile(99)));
  state.counters["keys_moved_per_run"] =
      benchmark::Counter(iters > 0 ? static_cast<double>(keys) / iters : 0.0);
}
BENCHMARK(BM_GrowMigration)->Arg(0)->Arg(4096)->Arg(1024)->Unit(benchmark::kMillisecond);

// --- foreground write latency with a window open ---------------------------
// The same write loop against a quiescent store (Arg 0) and against a store
// whose migration window is open the whole time (Arg 1; the rebalancer is
// stepped every 8 writes so the window stays live and dual writes flow).
// The spread is the per-op tax of placement stabilization + dual-apply.
// A fixed op count keeps the sim columns independent of host speed: the
// rest of the migration is charged after the loop and spread over the ops.

void BM_WriteDuringMigration(benchmark::State& state) {
  const bool migrating = state.range(0) != 0;
  Rig rig;
  blob::Rebalancer* rb = nullptr;
  if (migrating) {
    blob::RebalanceConfig rcfg;
    rcfg.batch_keys = 2;  // drain slowly: keep the window open under load
    if (!rig.store.begin_add_server(rig.cluster.compute_node(1), rcfg).ok()) {
      state.SkipWithError("begin_add_server failed");
      return;
    }
    rb = rig.store.rebalancer();
  }
  const Bytes data = make_payload(11, 0, kPayload);
  Histogram lat;
  std::uint64_t i = 0;
  const SimMicros sim_start = rig.agent.now();
  for (auto _ : state) {
    const SimMicros t0 = rig.agent.now();
    auto r = rig.client.write(
        strfmt("o-%04d", static_cast<int>(i % kObjects)), 0, as_view(data));
    benchmark::DoNotOptimize(r.ok());
    lat.add(static_cast<std::uint64_t>(rig.agent.now() - t0));
    if (rb && !rb->done() && (++i % 8) == 0) (void)rb->step(&rig.agent);
    else ++i;
  }
  if (rb) {
    (void)rb->run_to_completion(&rig.agent);
  }
  state.SetLabel(migrating ? "window-open" : "quiescent");
  state.SetBytesProcessed(static_cast<std::int64_t>(kPayload) * state.iterations());
  const auto iters = static_cast<double>(state.iterations());
  state.counters["sim_us_per_op"] = benchmark::Counter(
      iters > 0 ? static_cast<double>(rig.agent.now() - sim_start) / iters : 0.0);
  state.counters["sim_p50_us"] =
      benchmark::Counter(static_cast<double>(lat.percentile(50)));
  state.counters["sim_p99_us"] =
      benchmark::Counter(static_cast<double>(lat.percentile(99)));
  state.counters["dual_writes"] = benchmark::Counter(
      static_cast<double>(rig.client.counters().dual_writes.value()));
}
BENCHMARK(BM_WriteDuringMigration)->Arg(0)->Arg(1)->Iterations(20000)
    ->Unit(benchmark::kMicrosecond);

// --- decommission time-to-drain --------------------------------------------
// One full decommission per iteration: re-replicate everything the subject
// holds, digest-verify against the draining source, cut over, drop. The
// reported sim time is the availability-relevant window during which the
// cluster runs one replica short on the moved keys.

void BM_DecommissionDrain(benchmark::State& state) {
  Histogram dur;
  std::uint64_t digests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rig rig;
    state.ResumeTiming();
    if (!rig.store.begin_decommission(0).ok()) {
      state.SkipWithError("begin_decommission failed");
      return;
    }
    sim::SimAgent mig;
    blob::Rebalancer* rb = rig.store.rebalancer();
    if (!rb->run_to_completion(&mig).ok()) {
      state.SkipWithError("decommission failed");
      return;
    }
    dur.add(static_cast<std::uint64_t>(mig.now()));
    digests += rb->progress().digests_checked;
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["sim_drain_us"] = benchmark::Counter(
      iters > 0 ? dur.mean() * static_cast<double>(dur.count()) / iters : 0.0);
  state.counters["sim_p50_us"] =
      benchmark::Counter(static_cast<double>(dur.percentile(50)));
  state.counters["sim_p99_us"] =
      benchmark::Counter(static_cast<double>(dur.percentile(99)));
  state.counters["digests_per_run"] =
      benchmark::Counter(iters > 0 ? static_cast<double>(digests) / iters : 0.0);
}
BENCHMARK(BM_DecommissionDrain)->Unit(benchmark::kMillisecond);

// --- concurrent joins: overlapped epoch chain vs serialized windows ---------
// Two servers join the same preloaded store. Arg 0 runs the windows one
// after the other (each drained to finalize before the next opens — the
// pre-chain schedule); Arg 1 opens both, drains them interleaved on two
// separate migration agents, and finalizes out of order. Wall-clock
// migration time is the serialized sum vs the overlapped max; a foreground
// write rides along every drain round in both schedules, so sim_p50_us is
// the per-write tax of the (deeper) open window.

void BM_ConcurrentJoin(benchmark::State& state) {
  const bool overlapped = state.range(0) != 0;
  Histogram fg;
  Histogram dur;
  std::uint64_t keys = 0;
  const Bytes data = make_payload(13, 0, kPayload);
  for (auto _ : state) {
    state.PauseTiming();
    Rig rig;
    state.ResumeTiming();
    blob::RebalanceConfig rcfg;
    rcfg.batch_keys = 8;
    std::uint64_t fg_seq = 0;
    const auto foreground = [&] {
      const SimMicros t0 = rig.agent.now();
      auto r = rig.client.write(
          strfmt("o-%04d", static_cast<int>(fg_seq++ % kObjects)), 0, as_view(data));
      benchmark::DoNotOptimize(r.ok());
      fg.add(static_cast<std::uint64_t>(rig.agent.now() - t0));
    };
    if (overlapped) {
      if (!rig.store.begin_add_server(rig.cluster.compute_node(0), rcfg).ok() ||
          !rig.store.begin_add_server(rig.cluster.compute_node(1), rcfg).ok()) {
        state.SkipWithError("begin_add_server failed");
        return;
      }
      blob::Rebalancer* rb0 = rig.store.rebalancer_at(0);
      blob::Rebalancer* rb1 = rig.store.rebalancer_at(1);
      sim::SimAgent m0;
      sim::SimAgent m1;
      while (!rb0->done() || !rb1->done()) {
        if (!rb0->done() && !rb0->step(&m0).ok()) {
          state.SkipWithError("migration failed");
          return;
        }
        if (!rb1->done() && !rb1->step(&m1).ok()) {
          state.SkipWithError("migration failed");
          return;
        }
        foreground();
      }
      // Out-of-order finalize: the newer epoch cuts over first.
      if (!rb1->finalize(&m1).ok() || !rb0->finalize(&m0).ok()) {
        state.SkipWithError("finalize failed");
        return;
      }
      dur.add(static_cast<std::uint64_t>(std::max(m0.now(), m1.now())));
      keys += rb0->progress().keys_moved + rb1->progress().keys_moved;
    } else {
      SimMicros total = 0;
      for (int j = 0; j < 2; ++j) {
        if (!rig.store.begin_add_server(rig.cluster.compute_node(j), rcfg).ok()) {
          state.SkipWithError("begin_add_server failed");
          return;
        }
        blob::Rebalancer* rb = rig.store.rebalancer();
        sim::SimAgent mig;
        while (!rb->done()) {
          if (!rb->step(&mig).ok()) {
            state.SkipWithError("migration failed");
            return;
          }
          foreground();
        }
        if (!rb->finalize(&mig).ok()) {
          state.SkipWithError("finalize failed");
          return;
        }
        total += mig.now();
        keys += rb->progress().keys_moved;
      }
      dur.add(static_cast<std::uint64_t>(total));
    }
  }
  state.SetLabel(overlapped ? "overlapped" : "serialized");
  const auto iters = static_cast<double>(state.iterations());
  state.counters["sim_migration_us"] = benchmark::Counter(
      iters > 0 ? dur.mean() * static_cast<double>(dur.count()) / iters : 0.0);
  state.counters["sim_p50_us"] =
      benchmark::Counter(static_cast<double>(fg.percentile(50)));
  state.counters["sim_p99_us"] =
      benchmark::Counter(static_cast<double>(fg.percentile(99)));
  state.counters["keys_moved_per_run"] =
      benchmark::Counter(iters > 0 ? static_cast<double>(keys) / iters : 0.0);
}
BENCHMARK(BM_ConcurrentJoin)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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
      if (sim == run.counters.end()) sim = run.counters.find("sim_migration_us");
      if (sim == run.counters.end()) sim = run.counters.find("sim_drain_us");
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
/// bench::take_json_path; the registry snapshot goes there after the run).
std::string take_metrics_path(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= *argc) return {};
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
      !bench::write_bench_json(json, bench::collect_run_meta("micro_rebalance"),
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
