// hpc_census and spark_suite: the paper's application models running on the
// POSIX-on-blob adapter, each repeated in a closed loop from one agent (1 MPI
// rank / a 1-thread Spark pool), so every simulated figure is bit-exact.
// After the timed blob passes, one pass of the same traffic runs on the
// paper's file-system baseline (pfs-strict / hdfs) for fs_sim_s and for the
// census cross-check.
#include <algorithm>
#include <array>
#include <functional>
#include <memory>

#include "adapter/blobfs.hpp"
#include "apps/hpc_apps.hpp"
#include "apps/spark_apps.hpp"
#include "blob/store.hpp"
#include "common/strings.hpp"
#include "hdfs/hdfs.hpp"
#include "pfs/pfs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace apps = bsc::apps;
using bsc::strfmt;

constexpr std::uint32_t kStorageNodes = 8;

enum class Backend { blobfs, pfs_strict, hdfs };

const char* layer_name(Backend b) {
  switch (b) {
    case Backend::blobfs: return "adapter";
    case Backend::pfs_strict: return "pfs";
    case Backend::hdfs: return "hdfs";
  }
  return "?";
}

/// One pass of a workload's application set on one backend.
struct FsPass {
  bool ok = true;
  std::string error;
  double setup_s = 0.0;  ///< cluster build + input staging
  double run_s = 0.0;    ///< first traced call to the end of the apps
  CallStats calls;       ///< at the backend boundary, run phase only
  NodeStats nodes;
  double sim_us = 0.0;                 ///< Σ simulated completion time of the apps
  std::vector<std::uint64_t> census;   ///< traced call totals, one per census
  bsc::trace::DirOpBreakdown dir_ops;  ///< spark_suite only
  std::uint64_t live_bytes = 0;        ///< blobfs: engine live bytes, all replicas
  std::uint64_t logical_bytes = 0;     ///< blobfs: Σ size of live files
  std::uint64_t hot_stripe = 0;        ///< blobfs: busiest stripe's run-phase acquisitions

  void fail(std::string why) {
    if (ok) error = std::move(why);
    ok = false;
  }
  [[nodiscard]] std::uint64_t census_total() const {
    std::uint64_t n = 0;
    for (auto c : census) n += c;
    return n;
  }
};

/// Cluster and backend under one application run.
struct Rig {
  explicit Rig(Backend b) : cluster(bsc::sim::ClusterSpec::with_storage_nodes(kStorageNodes)) {
    switch (b) {
      case Backend::blobfs:
        store = std::make_unique<bsc::blob::BlobStore>(cluster);
        fs = std::make_unique<bsc::adapter::BlobFs>(*store);
        break;
      case Backend::pfs_strict:
        fs = std::make_unique<bsc::pfs::LustreLikeFs>(cluster);
        break;
      case Backend::hdfs:
        fs = std::make_unique<bsc::hdfs::HdfsLikeFs>(cluster);
        break;
    }
  }

  bsc::sim::Cluster cluster;
  std::unique_ptr<bsc::blob::BlobStore> store;
  std::unique_ptr<bsc::vfs::FileSystem> fs;
};

/// Build a rig for `b`, run `body(fs, cluster)` through a TimedFs, and fold
/// what the pass saw into `pass`. The TimedFs marks the run phase; registry
/// deltas (when `layers` is set) cover the run phase only.
template <class Body>
void run_on_rig(Backend b, SpanLog* spans, LayerAcc* layers, FsPass& pass, Body&& body) {
  pin_to_quietest_cpu();
  const Clock::time_point t0 = Clock::now();
  Rig rig(b);
  NodeStats nodes0;
  std::vector<std::uint64_t> stripes0;
  TimedFs timed(*rig.fs, spans, std::string(layer_name(b)) + ".", [&] {
    nodes0 = mark_nodes(rig.cluster);
    if (rig.store) stripes0 = stripe_counts(*rig.store);
    if (layers) layers->begin();
  });
  body(static_cast<bsc::vfs::FileSystem&>(timed), rig.cluster);
  const Clock::time_point t1 = Clock::now();
  timed.finish(t1);
  if (!timed.run_started()) {
    pass.fail("no traced call reached the file system");
    return;
  }
  if (layers) layers->end();
  pass.setup_s += seconds_between(t0, timed.run_start());
  pass.run_s += seconds_between(timed.run_start(), t1);
  pass.calls.merge(timed.stats());
  pass.nodes.merge(node_stats(rig.cluster, nodes0));
  if (rig.store) {
    pass.live_bytes += rig.store->total_live_bytes();
    pass.logical_bytes += logical_file_bytes(*rig.fs);
    pass.hot_stripe =
        std::max(pass.hot_stripe, hottest_stripe(stripes0, stripe_counts(*rig.store)));
  }
}

// ------------------------------------------------------------ hpc_census ----

constexpr std::array<apps::HpcAppKind, 4> kHpcApps = {
    apps::HpcAppKind::blast, apps::HpcAppKind::mom, apps::HpcAppKind::ecoham,
    apps::HpcAppKind::raytracing};

FsPass hpc_pass(Backend b, std::uint64_t seed, SpanLog* spans, LayerAcc* layers) {
  FsPass pass;
  SpanScope pass_span(spans, strfmt("pass.%s", layer_name(b)), SpanLog::kNoParent);
  for (apps::HpcAppKind kind : kHpcApps) {
    apps::HpcRunOptions o;
    o.ranks = 1;
    o.with_prep_script = false;  // EH/MPI: the MPI phase only
    o.seed = seed;
    const std::string name = apps::hpc_app_name(kind, o.with_prep_script);
    SpanScope app_span(spans, "app." + name, pass_span.id());
    if (spans) spans->set_call_parent(app_span.id());
    run_on_rig(b, spans, layers, pass, [&](bsc::vfs::FileSystem& fs, bsc::sim::Cluster& c) {
      auto r = apps::run_hpc_app(kind, fs, c, o);
      if (!r.ok) pass.fail(name + ": " + r.error);
      pass.sim_us += static_cast<double>(r.sim_time);
      pass.census.push_back(r.census.census.total_calls());
    });
    if (!pass.ok) break;
  }
  return pass;
}

// ----------------------------------------------------------- spark_suite ----

FsPass spark_pass(Backend b, std::uint64_t seed, SpanLog* spans, LayerAcc* layers) {
  FsPass pass;
  SpanScope pass_span(spans, strfmt("pass.%s", layer_name(b)), SpanLog::kNoParent);
  if (spans) spans->set_call_parent(pass_span.id());
  run_on_rig(b, spans, layers, pass, [&](bsc::vfs::FileSystem& fs, bsc::sim::Cluster& c) {
    bsc::ThreadPool pool(1);
    apps::SparkSuiteOptions o;
    o.seed = seed;
    auto r = apps::run_spark_suite(fs, c, pool, o);
    if (!r.ok) pass.fail("spark suite: " + r.error);
    for (const auto& a : r.per_app) {
      pass.sim_us += static_cast<double>(a.sim_time);
      pass.census.push_back(a.census.total_calls());
    }
    pass.census.push_back(r.session.total_calls());
    pass.dir_ops = r.dir_ops;
  });
  return pass;
}

/// Table II of the paper: mkdir / rmdir / opendir(input) / opendir(other).
bool table2_matches(const bsc::trace::DirOpBreakdown& d) {
  return d.mkdir == 43 && d.rmdir == 43 && d.opendir_input == 5 && d.opendir_other == 0;
}

// ------------------------------------------------------ shared pass loop ----

struct FsWorkload {
  const char* name;
  Backend baseline;
  double seconds_per_pass;  ///< sets the pass count: about one pass's set-up + run
  std::function<FsPass(Backend, std::uint64_t, SpanLog*, LayerAcc*)> pass;
  /// Workload-specific gate on any pass (blob or baseline).
  std::function<void(Report&, const FsPass&, const char* label)> gate;
};

/// Closed loop of `count` blob passes (stops early on a failed pass).
std::vector<FsPass> measure(const FsWorkload& w, std::uint64_t seed, int count, SpanLog* spans,
                            LayerAcc* layers) {
  std::vector<FsPass> passes;
  for (int i = 0; i < count && (passes.empty() || passes.back().ok); ++i) {
    passes.push_back(w.pass(Backend::blobfs, seed, spans, layers));
  }
  return passes;
}

void check_pass(Report& rep, const FsWorkload& w, const FsPass& p, const FsPass& base,
                const char* label) {
  rep.add_gate(p.ok, strfmt("%s pass failed: %s", label, p.error.c_str()));
  if (!p.ok || !base.ok) return;
  rep.add_gate(p.census == base.census,
               strfmt("%s census (%llu calls) differs from the %s census (%llu calls)", label,
                      static_cast<unsigned long long>(p.census_total()), layer_name(w.baseline),
                      static_cast<unsigned long long>(base.census_total())));
  if (w.gate) w.gate(rep, p, label);
}

/// The timed calls of every pass. One agent makes the same calls in the
/// same order in every pass, so the passes are aligned; the caller gates on
/// that.
PhaseFigures figures(const std::vector<FsPass>& passes) {
  PhaseFigures f;
  for (const FsPass& p : passes) {
    PassCalls pc;
    pc.calls = p.calls.seq;
    for (const CallRec& c : pc.calls) pc.elapsed_s += c.gap_us * 1e-6;
    f.add_pass(std::move(pc));
    f.attempted += p.calls.calls;
    f.failed += p.calls.failed;
  }
  f.aligned = same_calls(f.passes);
  return f;
}

void add_layer_metrics(Report& rep, const FsWorkload& w, const std::vector<FsPass>& traced,
                       const FsPass& base, const LayerAcc& L, double overhead_pct) {
  const double n = static_cast<double>(traced.size());
  CallStats all;
  NodeStats nodes;
  double run_s = 0.0;
  std::uint64_t hot = 0;
  for (const FsPass& p : traced) {
    all.merge(p.calls);
    nodes.merge(p.nodes);
    run_s += p.run_s;
    hot = std::max(hot, p.hot_stripe);
  }
  const FsPass& last = traced.back();
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto& m = rep.per_layer;

  m.push_back({"adapter.calls", static_cast<double>(all.calls) / n, "count"});
  m.push_back({"adapter.busy_s", all.busy_s / n, "s"});
  const PhaseFigures f = figures(traced);
  m.push_back({"adapter.read.wall_p50_us", percentile(f.read_wall_us, 50), "us"});
  m.push_back({"adapter.write.wall_p50_us", percentile(f.write_wall_us, 50), "us"});
  m.push_back({"adapter.meta.sim_us", all.meta_sim_us / n, "sim_us"});
  m.push_back({"adapter.dir.sim_us", all.dir_sim_us / n, "sim_us"});
  m.push_back({"adapter.client_calls_per_call",
               ratio(L.client_calls_total(), static_cast<double>(all.calls)), "ratio"});

  m.push_back({"app.self_s", (run_s - all.busy_s) / n, "s"});
  m.push_back({"trace.calls.total", static_cast<double>(last.census_total()), "count"});

  const bool pfs = w.baseline == Backend::pfs_strict;
  m.push_back({"pfs.calls", pfs ? static_cast<double>(base.calls.calls) : 0.0, "count"});
  m.push_back({"pfs.sim_us", pfs ? base.calls.total_sim_us : 0.0, "sim_us"});
  m.push_back({"hdfs.calls", pfs ? 0.0 : static_cast<double>(base.calls.calls), "count"});
  m.push_back({"hdfs.sim_us", pfs ? 0.0 : base.calls.total_sim_us, "sim_us"});

  StoreLayerInputs in;
  in.units = n;
  in.user_bytes_written = static_cast<double>(all.bytes_written);
  in.hot_stripe = hot;
  in.live_bytes = last.live_bytes;
  in.nodes = nodes;
  for (const FsPass& p : traced) in.sim_total_us += p.sim_us;
  // The adapter calls the client internally: no benchmark-side timer can sit
  // between them, so client wall time is measured on blob_ckpt only.
  add_store_layer_metrics(rep, L, in);

  m.push_back({"obs.trace_overhead_pct", overhead_pct, "%"});
}

Report run_fs_workload(const Options& opts, const FsWorkload& w) {
  Report rep;
  std::unique_ptr<SpanLog> spans = opts.trace ? std::make_unique<SpanLog>() : nullptr;

  // Untimed warm-up pass: only its set-up time is reported (in setup_s).
  const FsPass warm = w.pass(Backend::blobfs, opts.seed, nullptr, nullptr);
  std::vector<double> setup_s{warm.setup_s};
  // The memory one pass needs; later passes only add allocator fragmentation.
  const double rss_mb = peak_rss_mb();

  const int passes = pass_count(opts.seconds, w.seconds_per_pass);
  const int plain_passes = opts.trace ? passes / 2 : passes;
  const std::vector<FsPass> plain = measure(w, opts.seed, plain_passes, nullptr, nullptr);
  for (const FsPass& p : plain) setup_s.push_back(p.setup_s);

  LayerAcc layers;
  std::vector<FsPass> traced;
  if (opts.trace) traced = measure(w, opts.seed, passes - plain_passes, spans.get(), &layers);

  // The same traffic on the file-system baseline, once per run.
  FsPass base = w.pass(w.baseline, opts.seed, spans.get(), nullptr);
  rep.add_gate(base.ok, strfmt("%s baseline pass failed: %s", layer_name(w.baseline),
                               base.error.c_str()));
  if (w.gate) w.gate(rep, base, layer_name(w.baseline));
  check_pass(rep, w, warm, base, "warm-up blobfs");
  for (const FsPass& p : plain) check_pass(rep, w, p, base, "blobfs");
  for (const FsPass& p : traced) check_pass(rep, w, p, base, "traced blobfs");

  const FsPass& first = plain.front();
  const double space_amp = first.logical_bytes
                               ? static_cast<double>(first.live_bytes) /
                                     static_cast<double>(first.logical_bytes)
                               : 0.0;
  PhaseFigures f = figures(plain);
  rep.add_gate(f.aligned, "the timed blobfs passes did not make the same calls in the same order");
  f.attempted += base.calls.calls;
  f.failed += base.calls.failed;
  const PhaseFigures ft = figures(traced);
  f.attempted += ft.attempted;
  f.failed += ft.failed;
  add_host_metrics(rep, f, setup_s, rss_mb, space_amp);

  rep.extra.push_back({"sim_s", first.sim_us / 1e6, "sim_s"});
  rep.extra.push_back({"fs_sim_s", base.sim_us / 1e6, "sim_s"});
  rep.extra.push_back({"sim_read_p50_us", percentile(first.calls.read_sim_us, 50), "sim_us"});
  rep.extra.push_back({"sim_write_p50_us", percentile(first.calls.write_sim_us, 50), "sim_us"});

  if (opts.trace && !traced.empty()) {
    add_layer_metrics(rep, w, traced, base, layers, trace_overhead_pct(f, ft));
    if (!opts.out_dir.empty()) {
      (void)spans->write(strfmt("%s/spans-%s-seed%llu.tsv", opts.out_dir.c_str(), w.name,
                                static_cast<unsigned long long>(opts.seed)),
                         stamp(opts));
    }
  }
  return rep;
}

}  // namespace

Report run_hpc_census(const Options& opts) {
  FsWorkload w{"hpc_census", Backend::pfs_strict, 1.5, hpc_pass, nullptr};
  return run_fs_workload(opts, w);
}

Report run_spark_suite(const Options& opts) {
  FsWorkload w{"spark_suite", Backend::hdfs, 4.5, spark_pass,
               [](Report& rep, const FsPass& p, const char* label) {
                 if (!p.ok) return;
                 rep.add_gate(table2_matches(p.dir_ops),
                              strfmt("%s Table II breakdown %llu/%llu/%llu/%llu, expected 43/43/5/0",
                                     label, static_cast<unsigned long long>(p.dir_ops.mkdir),
                                     static_cast<unsigned long long>(p.dir_ops.rmdir),
                                     static_cast<unsigned long long>(p.dir_ops.opendir_input),
                                     static_cast<unsigned long long>(p.dir_ops.opendir_other)));
               }};
  return run_fs_workload(opts, w);
}

}  // namespace perfbench
