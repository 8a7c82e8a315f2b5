#include "apps/spark_apps.hpp"

#include <algorithm>

#include "apps/app_spec.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "spark/analytics.hpp"
#include "spark/engine.hpp"
#include "trace/tracing_fs.hpp"
#include "vfs/helpers.hpp"

namespace bsc::apps {

namespace {

const vfs::IoCtx kProvisionCtx{nullptr, 1000, 1000};
constexpr SimMicros kComputePerReqUs = 10;

std::string input_dir(SparkAppKind kind) {
  switch (kind) {
    case SparkAppKind::sort: return "/input/sort";
    case SparkAppKind::grep: return "/input/text";      // shared corpus
    case SparkAppKind::tokenizer: return "/input/text"; // shared corpus
    case SparkAppKind::decision_tree: return "/input/dt";
    case SparkAppKind::connected_components: return "/input/cc";
  }
  return "/input";
}

std::string output_dir(SparkAppKind kind) {
  return "/output/" + spark_app_name(kind);
}

SparkAppSpec spec_of(SparkAppKind kind) {
  switch (kind) {
    case SparkAppKind::sort: return sort_spec();
    case SparkAppKind::grep: return grep_spec();
    case SparkAppKind::decision_tree: return decision_tree_spec();
    case SparkAppKind::connected_components: return connected_components_spec();
    case SparkAppKind::tokenizer: return tokenizer_spec();
  }
  return {};
}

enum class DataKind { text, edges, features };

DataKind data_kind_of(SparkAppKind kind) {
  switch (kind) {
    case SparkAppKind::sort:
    case SparkAppKind::grep:
    case SparkAppKind::tokenizer:
      return DataKind::text;
    case SparkAppKind::connected_components:
      return DataKind::edges;
    case SparkAppKind::decision_tree:
      return DataKind::features;
  }
  return DataKind::text;
}

constexpr std::uint32_t kDtFeatures = 8;
constexpr std::uint32_t kCcNodes = 1 << 16;

/// Generate a real dataset of the right flavor (text corpus, edge list,
/// feature rows) — the analytics kernels parse these bytes for real.
Bytes make_dataset(DataKind kind, std::uint64_t seed, std::uint64_t size) {
  switch (kind) {
    case DataKind::text:
      return spark::generate_text(seed, size);
    case DataKind::edges:
      return spark::generate_edges(seed, kCcNodes,
                                   static_cast<std::uint32_t>(size / 8));
    case DataKind::features:
      return spark::generate_features(
          seed, static_cast<std::uint32_t>(size / (kDtFeatures * 8)), kDtFeatures);
  }
  return {};
}

Status provision_dataset(vfs::FileSystem& fs, const std::string& dir, DataKind kind,
                         std::uint64_t total_bytes, std::uint32_t files,
                         std::uint64_t seed) {
  auto st = vfs::mkdir_recursive(fs, kProvisionCtx, dir);
  if (!st.ok()) return st;
  const std::uint64_t per_file = total_bytes / files;
  for (std::uint32_t f = 0; f < files; ++f) {
    const std::uint64_t size = f + 1 == files ? total_bytes - per_file * (files - 1)
                                              : per_file;
    const Bytes data = make_dataset(kind, seed ^ f, size);
    st = vfs::write_file(fs, kProvisionCtx, strfmt("%s/part-%05u", dir.c_str(), f),
                         as_view(data), 1 << 20);
    if (!st.ok()) return st;
  }
  return Status::success();
}

/// Task body: read one input split sequentially in `req`-sized calls, then
/// run the application's analytics kernel over the split's real bytes.
/// The kernel result feeds the task's compute charge, so the work cannot
/// be optimized away and heavier splits genuinely take longer.
Status read_split_task(SparkAppKind kind, spark::TaskContext& tc,
                       const spark::InputSplit& split, std::uint64_t req) {
  auto fh = tc.fs->open(tc.io, split.path, vfs::OpenFlags::rd());
  if (!fh.ok()) return fh.error();
  Bytes content;
  content.reserve(split.length);
  std::uint64_t done = 0;
  while (done < split.length) {
    const std::uint64_t n = std::min(req, split.length - done);
    auto r = tc.fs->read(tc.io, fh.value(), split.offset + done, n);
    if (!r.ok()) {
      (void)tc.fs->close(tc.io, fh.value());
      return r.error();
    }
    if (r.value().empty()) break;
    done += r.value().size();
    append(content, as_view(r.value()));
    tc.io.charge(kComputePerReqUs);
  }
  auto st = tc.fs->close(tc.io, fh.value());
  if (!st.ok()) return st;

  std::uint64_t work = 0;
  switch (kind) {
    case SparkAppKind::grep:
      work = spark::grep_count(as_view(content), "w7");
      break;
    case SparkAppKind::tokenizer:
      work = spark::tokenize(as_view(content), nullptr);
      break;
    case SparkAppKind::sort:
      work = spark::sample_sort_keys(as_view(content), 16).size();
      break;
    case SparkAppKind::connected_components: {
      std::vector<std::uint32_t> labels(kCcNodes);
      for (std::uint32_t i = 0; i < kCcNodes; ++i) labels[i] = i;
      work = spark::label_propagation_sweep(as_view(content), &labels);
      break;
    }
    case SparkAppKind::decision_tree: {
      const auto stats = spark::feature_stats(as_view(content), kDtFeatures);
      work = stats.empty() ? 0 : static_cast<std::uint64_t>(stats.front().mean);
      break;
    }
  }
  // ~1 simulated microsecond per 64 result units keeps compute subordinate
  // to I/O (these applications are storage-bound in the paper's runs).
  tc.io.charge(static_cast<SimMicros>(work / 64));
  return Status::success();
}

/// Task body: write `bytes` of synthetic output to `path` by direct path
/// (no directory operations — Spark's direct output committer behaviour).
Status write_part_task(spark::TaskContext& tc, const std::string& path,
                       std::uint64_t bytes, std::uint64_t req, std::uint64_t seed) {
  auto fh = tc.fs->open(tc.io, path, vfs::OpenFlags::wr());
  if (!fh.ok()) return fh.error();
  Bytes buf(std::min(req, bytes));
  std::uint64_t done = 0;
  while (done < bytes) {
    const MutableByteView chunk(buf.data(), std::min(req, bytes - done));
    fill_payload(seed, done, chunk);
    auto w = tc.fs->write(tc.io, fh.value(), done, chunk);
    if (!w.ok()) {
      (void)tc.fs->close(tc.io, fh.value());
      return w.error();
    }
    done += w.value();
    tc.io.charge(kComputePerReqUs);
  }
  return tc.fs->close(tc.io, fh.value());
}

/// Drive one application through its stages.
Status drive_app(SparkAppKind kind, spark::SparkApp& app, spark::SparkCluster& sc,
                 sim::SimAgent& driver, const SparkSuiteOptions& opts) {
  const SparkAppSpec spec = spec_of(kind);
  auto st = app.submit(driver);
  if (!st.ok()) return st;

  auto splits = app.plan_input(driver, input_dir(kind), opts.split_bytes);
  if (!splits.ok()) return splits.error();
  const auto& sp = splits.value();
  const std::uint32_t executors = sc.config().executors;

  for (std::uint32_t pass = 0; pass < spec.passes; ++pass) {
    // Map stage: one task per split, reading the data.
    st = app.run_stage(driver, strfmt("map-pass-%u", pass),
                       static_cast<std::uint32_t>(sp.size()),
                       [&](spark::TaskContext& tc) {
                         return read_split_task(kind, tc, sp[tc.task_id], spec.read_req);
                       });
    if (!st.ok()) return st;
    if (spec.shuffle_fraction_pct > 0) {
      app.charge_shuffle(driver, spec.input_total / spec.passes *
                                     spec.shuffle_fraction_pct / 100);
    }
    // Iterative apps write intermediate results each pass; one-shot apps
    // write everything in the single pass.
    const std::uint64_t pass_output = spec.output_total / spec.passes;
    if (pass_output > 0) {
      const std::uint64_t per_task = pass_output / executors;
      st = app.run_stage(driver, strfmt("write-pass-%u", pass), executors,
                         [&](spark::TaskContext& tc) {
                           const std::string path =
                               strfmt("%s/pass%02u-part-%05u",
                                      output_dir(kind).c_str(), pass, tc.task_id);
                           return write_part_task(tc, path, per_task, spec.write_req,
                                                  opts.seed ^ (pass * 101 + tc.task_id));
                         });
      if (!st.ok()) return st;
    }
  }
  return app.finish(driver);
}

Status provision_all(vfs::FileSystem& fs, const std::vector<SparkAppKind>& kinds,
                     std::uint64_t seed) {
  // Platform provisioning, outside the traced application activity: the
  // user's home chain, the input datasets, and the output roots.
  auto st = vfs::mkdir_recursive(fs, kProvisionCtx, "/user/spark");
  if (!st.ok()) return st;
  st = vfs::mkdir_recursive(fs, kProvisionCtx, spark::SparkConfig{}.archive_base);
  if (!st.ok()) return st;
  bool text_done = false;
  for (SparkAppKind k : kinds) {
    const SparkAppSpec spec = spec_of(k);
    const std::string in = input_dir(k);
    if (in == "/input/text") {
      if (!text_done) {
        st = provision_dataset(fs, in, DataKind::text, spec.input_total / spec.passes, 8,
                               seed ^ 0x77);
        if (!st.ok()) return st;
        text_done = true;
      }
    } else {
      st = provision_dataset(fs, in, data_kind_of(k), spec.input_total / spec.passes, 4,
                             seed ^ static_cast<std::uint64_t>(k));
      if (!st.ok()) return st;
    }
    st = vfs::mkdir_recursive(fs, kProvisionCtx, output_dir(k));
    if (!st.ok()) return st;
  }
  return Status::success();
}

void cleanup_outputs(vfs::FileSystem& fs, SparkAppKind kind) {
  auto entries = fs.readdir(kProvisionCtx, output_dir(kind));
  if (!entries.ok()) return;
  for (const auto& e : entries.value()) {
    (void)fs.unlink(kProvisionCtx, join_path(output_dir(kind), e.name));
  }
}

SparkSuiteResult run_suite_impl(const std::vector<SparkAppKind>& kinds,
                                vfs::FileSystem& backing_fs, sim::Cluster& cluster,
                                ThreadPool& pool, const SparkSuiteOptions& opts) {
  SparkSuiteResult result;
  auto st = provision_all(backing_fs, kinds, opts.seed);
  if (!st.ok()) {
    result.error = "provisioning: " + st.message();
    return result;
  }
  cluster.reset();

  spark::SparkConfig scfg;
  scfg.executors = opts.executors;
  scfg.seed = opts.seed;

  // Session setup under its own recorder (the 3 session mkdirs).
  trace::TraceRecorder session_rec;
  trace::TracingFs session_fs(backing_fs, session_rec);
  spark::SparkCluster session_cluster(session_fs, cluster, pool, scfg);
  sim::SimAgent session_agent;
  st = session_cluster.setup(session_agent);
  if (!st.ok()) {
    result.error = "session setup: " + st.message();
    return result;
  }

  std::uint64_t input_listings = 0;
  std::uint64_t other_listings = 0;
  std::uint32_t app_id = 1;
  for (SparkAppKind kind : kinds) {
    trace::TraceRecorder rec;
    trace::TracingFs traced(backing_fs, rec);
    spark::SparkCluster sc(traced, cluster, pool, scfg);
    spark::SparkApp app(sc, spark_app_name(kind), app_id++);
    sim::SimAgent driver;
    st = drive_app(kind, app, sc, driver, opts);
    if (!st.ok()) {
      result.error = spark_app_name(kind) + ": " + st.message();
      return result;
    }
    input_listings += sc.input_listings();
    const trace::Census c = rec.census();
    other_listings += c.count(trace::OpKind::readdir) - sc.input_listings();

    trace::AppCensus ac;
    ac.name = spark_app_name(kind);
    ac.platform = "Cloud / Spark";
    ac.usage = spec_of(kind).usage;
    ac.census = c;
    ac.sim_time = driver.now();
    result.per_app.push_back(std::move(ac));

    if (opts.cleanup_outputs_between_apps) cleanup_outputs(backing_fs, kind);
  }

  st = session_cluster.teardown(session_agent);
  if (!st.ok()) {
    result.error = "session teardown: " + st.message();
    return result;
  }
  result.session = session_rec.census();

  // Table II: aggregate directory operations across the whole deployment.
  trace::Census all = result.session;
  for (const auto& a : result.per_app) all += a.census;
  result.dir_ops.mkdir = all.count(trace::OpKind::mkdir);
  result.dir_ops.rmdir = all.count(trace::OpKind::rmdir);
  result.dir_ops.opendir_input = input_listings;
  result.dir_ops.opendir_other =
      all.count(trace::OpKind::readdir) - input_listings;
  result.ok = true;
  return result;
}

}  // namespace

std::string spark_app_name(SparkAppKind kind) {
  switch (kind) {
    case SparkAppKind::sort: return "Sort";
    case SparkAppKind::grep: return "Grep";
    case SparkAppKind::decision_tree: return "DT";
    case SparkAppKind::connected_components: return "CC";
    case SparkAppKind::tokenizer: return "Tokenizer";
  }
  return "?";
}

SparkSuiteResult run_spark_suite(vfs::FileSystem& backing_fs, sim::Cluster& cluster,
                                 ThreadPool& pool, const SparkSuiteOptions& opts) {
  return run_suite_impl({SparkAppKind::sort, SparkAppKind::grep, SparkAppKind::decision_tree,
                         SparkAppKind::connected_components, SparkAppKind::tokenizer},
                        backing_fs, cluster, pool, opts);
}

SparkSuiteResult run_spark_single(SparkAppKind kind, vfs::FileSystem& backing_fs,
                                  sim::Cluster& cluster, ThreadPool& pool,
                                  const SparkSuiteOptions& opts) {
  return run_suite_impl({kind}, backing_fs, cluster, pool, opts);
}

}  // namespace bsc::apps
