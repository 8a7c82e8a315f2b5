// Microbenchmarks of the fault-tolerance layer: what the retry/quorum/hint
// machinery costs when nothing fails (the overhead every request pays), and
// how request completion times stretch — mean, p50, p99 — when a fraction of
// request legs is dropped and the client has to ride retries and failover.
// `sim_*` counters are simulated time (the paper's latency dimension);
// ns_per_op is host wall-clock (what the harness itself costs).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "blob/client.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "rpc/fault.hpp"
#include "support.hpp"

using namespace bsc;

namespace {

constexpr std::uint64_t kPayload = 4096;
constexpr int kKeys = 64;
// Every row runs this many ops: the sim columns are totals over the op
// script divided by the op count, so it must not be left to google-benchmark,
// which picks iteration counts from host wall-clock time.
constexpr benchmark::IterationCount kOps = 20000;

/// One client rig: cluster, store (quorum W=2), injector wired but empty.
struct Rig {
  sim::Cluster cluster;
  blob::BlobStore store;
  rpc::FaultInjector injector{42};
  sim::SimAgent agent;
  blob::BlobClient client;

  explicit Rig(std::uint32_t write_quorum)
      : store(cluster, make_config(write_quorum)), client(store, &agent) {
    store.transport().set_fault_injector(&injector);
  }

  static blob::StoreConfig make_config(std::uint32_t w) {
    blob::StoreConfig cfg;
    cfg.write_quorum = w;
    return cfg;
  }

  void plan_all(const rpc::FaultPlan& plan) {
    for (std::uint32_t i = 0; i < store.server_count(); ++i) {
      injector.set_plan(store.server(i).node().id(), plan);
    }
  }
};

void report_sim(benchmark::State& state, const Histogram& lat, SimMicros total) {
  state.counters["sim_us_per_op"] = benchmark::Counter(
      state.iterations() > 0
          ? static_cast<double>(total) / static_cast<double>(state.iterations())
          : 0.0);
  state.counters["sim_p50_us"] =
      benchmark::Counter(static_cast<double>(lat.percentile(50)));
  state.counters["sim_p99_us"] =
      benchmark::Counter(static_cast<double>(lat.percentile(99)));
}

// --- fault-free-path overhead ----------------------------------------------
// The same 4 KiB write loop under three configurations: the classic path
// (W=0, no injector logic beyond a null check), quorum machinery enabled
// (W=2, injector absent-plan lookups on every leg), and quorum + an injector
// plan that is present but trivial. The spread is the pure bookkeeping tax
// of the fault layer when nothing ever fails.

void BM_WriteFaultFree(benchmark::State& state) {
  // 0 = classic W=0; 1 = W=2, empty injector; 2 = W=2, trivial plans set.
  const int mode = static_cast<int>(state.range(0));
  Rig rig(mode == 0 ? 0 : 2);
  if (mode == 2) rig.plan_all({});  // present-but-trivial plan on every node
  const Bytes data = make_payload(1, 0, kPayload);
  Histogram lat;
  std::uint64_t i = 0;
  const SimMicros sim_start = rig.agent.now();
  for (auto _ : state) {
    const SimMicros t0 = rig.agent.now();
    auto r = rig.client.write(strfmt("w-%llu", static_cast<unsigned long long>(i++ % kKeys)),
                              0, as_view(data));
    benchmark::DoNotOptimize(r.ok());
    lat.add(static_cast<std::uint64_t>(rig.agent.now() - t0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(kPayload) * state.iterations());
  state.SetLabel(mode == 0 ? "w0-classic" : (mode == 1 ? "w2-no-plans" : "w2-trivial-plans"));
  report_sim(state, lat, rig.agent.now() - sim_start);
  state.counters["retries_per_op"] = benchmark::Counter(
      state.iterations() > 0
          ? static_cast<double>(rig.client.counters().retries) /
                static_cast<double>(state.iterations())
          : 0.0);
}
BENCHMARK(BM_WriteFaultFree)->Arg(0)->Arg(1)->Arg(2)->Iterations(kOps)
    ->Unit(benchmark::kMicrosecond);

// --- completion time under drop faults -------------------------------------
// Every node drops the given percentage of request legs; the client's retry
// policy (4 attempts, 2 ms attempt deadline, decorrelated-jitter backoff)
// rides most losses at the price of a latency tail: the p99/p50 gap is the
// figure of merit, the mean barely moves at 1%. A forward that still misses
// leaves its replica behind for good: the miss is hinted, but hints drain
// only when a server recovers (BlobStore::recover_server), and later
// forwards skip a replica whose version does not match. A key whose second
// replica also misses stays below W=2, and every later write to it fails:
// at 10% most of the `failed_ops` are such keys; at 1% and 5% none fail.

void BM_WriteUnderDrop(benchmark::State& state) {
  Rig rig(2);
  rpc::FaultPlan plan;
  plan.drop_probability = static_cast<double>(state.range(0)) / 100.0;
  rig.plan_all(plan);
  const Bytes data = make_payload(2, 0, kPayload);
  Histogram lat;
  std::uint64_t i = 0, failed = 0;
  const SimMicros sim_start = rig.agent.now();
  for (auto _ : state) {
    const SimMicros t0 = rig.agent.now();
    auto r = rig.client.write(strfmt("w-%llu", static_cast<unsigned long long>(i++ % kKeys)),
                              0, as_view(data));
    if (!r.ok()) ++failed;
    lat.add(static_cast<std::uint64_t>(rig.agent.now() - t0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(kPayload) * state.iterations());
  report_sim(state, lat, rig.agent.now() - sim_start);
  state.counters["retries_per_op"] = benchmark::Counter(
      state.iterations() > 0
          ? static_cast<double>(rig.client.counters().retries) /
                static_cast<double>(state.iterations())
          : 0.0);
  state.counters["failed_ops"] = benchmark::Counter(static_cast<double>(failed));
  state.counters["hints"] =
      benchmark::Counter(static_cast<double>(rig.client.counters().hints_written));
}
BENCHMARK(BM_WriteUnderDrop)->Arg(1)->Arg(5)->Arg(10)->Iterations(kOps)
    ->Unit(benchmark::kMicrosecond);

void BM_ReadUnderDrop(benchmark::State& state) {
  Rig rig(2);
  const Bytes data = make_payload(3, 0, kPayload);
  for (int k = 0; k < kKeys; ++k) {
    auto r = rig.client.write(strfmt("r-%d", k), 0, as_view(data));
    if (!r.ok()) {
      state.SkipWithError("seed write failed");
      return;
    }
  }
  rpc::FaultPlan plan;
  plan.drop_probability = static_cast<double>(state.range(0)) / 100.0;
  rig.plan_all(plan);
  Histogram lat;
  std::uint64_t i = 0, failed = 0;
  const SimMicros sim_start = rig.agent.now();
  for (auto _ : state) {
    const SimMicros t0 = rig.agent.now();
    auto r = rig.client.read(strfmt("r-%llu", static_cast<unsigned long long>(i++ % kKeys)),
                             0, kPayload);
    if (!r.ok()) ++failed;
    lat.add(static_cast<std::uint64_t>(rig.agent.now() - t0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(kPayload) * state.iterations());
  report_sim(state, lat, rig.agent.now() - sim_start);
  state.counters["retries_per_op"] = benchmark::Counter(
      state.iterations() > 0
          ? static_cast<double>(rig.client.counters().retries) /
                static_cast<double>(state.iterations())
          : 0.0);
  state.counters["failed_ops"] = benchmark::Counter(static_cast<double>(failed));
}
BENCHMARK(BM_ReadUnderDrop)->Arg(1)->Arg(5)->Arg(10)->Iterations(kOps)
    ->Unit(benchmark::kMicrosecond);

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

}  // namespace

int main(int argc, char** argv) {
  const std::string json = bench::take_json_path(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json.empty() &&
      !bench::write_bench_json(json, bench::collect_run_meta("micro_faults"),
                               reporter.results)) {
    return 1;
  }
  return 0;
}
