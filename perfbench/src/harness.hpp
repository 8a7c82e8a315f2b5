// Benchmark-side measurement harness shared by the three workloads:
//
//   * TimedFs   — a FileSystem decorator that times every call (host wall and
//                 simulated µs) at one layer boundary and, in traced runs,
//                 records one span per call;
//   * SpanLog   — in-memory spans (name, start, end, parent), written out at
//                 exit;
//   * LayerAcc  — accumulates deltas of the process-wide obs::MetricsRegistry
//                 over measured phases only;
//   * Report    — named metrics with units, printed for humans, saved as a
//                 results file, and emitted as the one-line JSON verdict.
//
// Nothing here reaches inside src/: every number comes from a timer around a
// public call, a registry series, or a public accessor.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "blob/store.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "support.hpp"
#include "trace/taxonomy.hpp"
#include "vfs/file_system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Exact percentile (nearest rank) of raw samples; sorts a copy. 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);

/// Number of timed passes a run of `seconds` makes: one per
/// `seconds_per_pass`, at least 3. It depends on the run length only, so
/// every build under test gets the same number of samples.
[[nodiscard]] int pass_count(double seconds, double seconds_per_pass);

/// Pin the calling thread, and the threads it starts from now on, to the
/// allowed CPU whose caches answer fastest right now: each CPU times a random
/// walk over 1.5 MiB (a private L2 on an idle core) for a few ms. On a shared
/// host a vCPU whose physical core is busy with another tenant reads its L2
/// 2-4x slower, and a single-threaded pass run there slows by up to 1.7x;
/// which vCPUs are busy changes from second to second. The single-agent
/// workloads call this before each rig is built; the walk leaves the caches
/// cold, so it is not repeated inside a run phase. A few ms on 4 CPUs.
void pin_to_quietest_cpu();

// --------------------------------------------------------------- spans ----

/// Spans recorded at benchmark-side boundaries. Per-call spans stop being
/// kept once `kMaxSpans` are held (the count of dropped ones is written with
/// the file); phase spans are always kept.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 100'000;
  static constexpr std::uint32_t kNoParent = 0;

  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t name = 0;  ///< index into names()
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  SpanLog();

  /// Open a phase span now; returns its id (never dropped).
  std::uint32_t open(std::string_view name, std::uint32_t parent);
  void close(std::uint32_t id);

  /// Record a completed per-call span (dropped once the log is full).
  void record(std::string_view name, std::uint32_t parent, Clock::time_point start,
              Clock::time_point end);

  /// Parent for per-call spans recorded by TimedFs (the open app span).
  void set_call_parent(std::uint32_t id) { call_parent_.store(id, std::memory_order_relaxed); }
  [[nodiscard]] std::uint32_t call_parent() const {
    return call_parent_.load(std::memory_order_relaxed);
  }

  /// Tab-separated: id, parent, name, start_ns, end_ns (relative to the log's
  /// creation). Returns false on I/O failure.
  bool write(const std::string& path, const std::string& header) const;

 private:
  std::uint32_t intern_locked(std::string_view name);
  [[nodiscard]] std::int64_t rel_ns(Clock::time_point t) const;

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::atomic<std::uint32_t> call_parent_{kNoParent};
};

/// RAII phase span; a null log makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string_view name, std::uint32_t parent)
      : log_(log), id_(log ? log->open(name, parent) : SpanLog::kNoParent) {}
  ~SpanScope() {
    if (log_) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

// ------------------------------------------------------------ TimedFs ----

enum class CallKind : std::uint8_t { other, read, write };

/// One timed call. `gap_us` runs from the call's start to the next call's
/// start (for the last call of a TimedFs, to the end of its run phase), so it
/// also covers the caller's own work between calls; blob_ckpt leaves it 0.
struct CallRec {
  double gap_us = 0.0;
  double wall_us = 0.0;
  std::uint64_t bytes = 0;
  CallKind kind = CallKind::other;
};

/// What one TimedFs saw during the run phase of a pass.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t absent_probes = 0;  ///< stat answered "not found" (not a failure)
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  double busy_s = 0.0;  ///< host seconds spent inside the wrapped FileSystem
  std::vector<double> read_sim_us;
  std::vector<double> write_sim_us;
  double meta_sim_us = 0.0;   ///< Σ simulated µs of "other" (metadata) calls
  double dir_sim_us = 0.0;    ///< Σ simulated µs of directory calls
  double total_sim_us = 0.0;  ///< Σ simulated µs of every call
  std::vector<CallRec> seq;   ///< every call, in call order

  void merge(const CallStats& o);
};

/// Times every call into `inner`. Calls made before the first call that
/// carries a simulated agent are input staging (the apps stage with a
/// null-agent IoCtx): they are forwarded untimed and their wall time is
/// set-up. The first agent-bearing call fires `on_run_start` and starts the
/// run phase; every later call, staged-style housekeeping included, is timed.
class TimedFs final : public bsc::vfs::FileSystem {
 public:
  TimedFs(bsc::vfs::FileSystem& inner, SpanLog* spans, std::string span_prefix,
          std::function<void()> on_run_start);

  [[nodiscard]] std::string backend_name() const override { return inner_->backend_name(); }

  /// Run-phase statistics; read after the workload has returned.
  [[nodiscard]] const CallStats& stats() const { return stats_; }
  [[nodiscard]] bool run_started() const { return run_started_.load(); }
  [[nodiscard]] Clock::time_point run_start() const { return run_start_; }
  /// Close the run phase at `end`: sets the last call's gap.
  void finish(Clock::time_point end);

  bsc::Result<bsc::vfs::FileHandle> open(const bsc::vfs::IoCtx& ctx, std::string_view path,
                                         bsc::vfs::OpenFlags flags,
                                         bsc::vfs::Mode mode = bsc::vfs::kDefaultFileMode) override;
  bsc::Status close(const bsc::vfs::IoCtx& ctx, bsc::vfs::FileHandle fh) override;
  bsc::Result<bsc::Bytes> read(const bsc::vfs::IoCtx& ctx, bsc::vfs::FileHandle fh,
                               std::uint64_t offset, std::uint64_t len) override;
  bsc::Result<std::uint64_t> write(const bsc::vfs::IoCtx& ctx, bsc::vfs::FileHandle fh,
                                   std::uint64_t offset, bsc::ByteView data) override;
  bsc::Status sync(const bsc::vfs::IoCtx& ctx, bsc::vfs::FileHandle fh) override;
  bsc::Status truncate(const bsc::vfs::IoCtx& ctx, std::string_view path,
                       std::uint64_t new_size) override;
  bsc::Status unlink(const bsc::vfs::IoCtx& ctx, std::string_view path) override;
  bsc::Status mkdir(const bsc::vfs::IoCtx& ctx, std::string_view path,
                    bsc::vfs::Mode mode = bsc::vfs::kDefaultDirMode) override;
  bsc::Status rmdir(const bsc::vfs::IoCtx& ctx, std::string_view path) override;
  bsc::Result<std::vector<bsc::vfs::DirEntry>> readdir(const bsc::vfs::IoCtx& ctx,
                                                       std::string_view path) override;
  bsc::Result<bsc::vfs::FileInfo> stat(const bsc::vfs::IoCtx& ctx,
                                       std::string_view path) override;
  bsc::Status rename(const bsc::vfs::IoCtx& ctx, std::string_view from,
                     std::string_view to) override;
  bsc::Status chmod(const bsc::vfs::IoCtx& ctx, std::string_view path,
                    bsc::vfs::Mode mode) override;
  bsc::Result<std::string> getxattr(const bsc::vfs::IoCtx& ctx, std::string_view path,
                                    std::string_view name) override;
  bsc::Status setxattr(const bsc::vfs::IoCtx& ctx, std::string_view path,
                       std::string_view name, std::string_view value) override;

 private:
  /// Forward `fn()`; time and account for it once the run phase started.
  template <class Fn>
  auto timed(bsc::trace::OpKind op, const bsc::vfs::IoCtx& ctx, Fn&& fn);

  bsc::vfs::FileSystem* inner_;
  SpanLog* spans_;
  std::string span_prefix_;
  std::function<void()> on_run_start_;
  std::atomic<bool> run_started_{false};
  Clock::time_point run_start_{};
  std::mutex mu_;  ///< guards stats_ and last_start_ (Spark tasks may call from a pool thread)
  CallStats stats_;
  Clock::time_point last_start_{};  ///< start of stats_.seq.back()
};

/// Σ logical size of every regular file reachable from "/" (untimed,
/// null-agent walk through the FileSystem API).
[[nodiscard]] std::uint64_t logical_file_bytes(bsc::vfs::FileSystem& fs);

// ----------------------------------------------------- simulated nodes ----

/// Storage-node counters of one cluster: lifetime values from mark_nodes(),
/// activity between two instants from node_stats(), summed by merge().
struct NodeStats {
  std::vector<double> busy_us;  ///< per storage-node index
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  void merge(const NodeStats& o);
};
[[nodiscard]] NodeStats mark_nodes(bsc::sim::Cluster& cluster);
[[nodiscard]] NodeStats node_stats(bsc::sim::Cluster& cluster, const NodeStats& since);

/// Lifetime lock acquisitions of every (server, stripe) pair of a store.
[[nodiscard]] std::vector<std::uint64_t> stripe_counts(bsc::blob::BlobStore& store);

/// Acquisitions of the busiest stripe between two stripe_counts() readings.
[[nodiscard]] std::uint64_t hottest_stripe(const std::vector<std::uint64_t>& before,
                                           const std::vector<std::uint64_t>& after);

// ------------------------------------------------ registry accumulation ----

/// Sum of registry deltas over the measured phases of a run.
class LayerAcc {
 public:
  void begin();  ///< snapshot now
  void end();    ///< add (now - last begin) to the running sum

  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] bsc::obs::HistogramStats hist(const std::string& name) const;
  /// Σ over every counter named client.<primitive>.calls.
  [[nodiscard]] double client_calls_total() const;

 private:
  bsc::obs::MetricsSnapshot before_;
  bsc::obs::MetricsSnapshot sum_;
};

// -------------------------------------------------------------- report ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark invocation reports.
struct Report {
  std::vector<Metric> end_to_end;  ///< the BENCHMARK.json end_to_end set, in order
  std::vector<Metric> extra;       ///< workload-specific end-to-end metrics (sim_*, fail_ratio)
  std::vector<Metric> per_layer;   ///< traced runs only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::vector<std::string> notes;  ///< extra human-readable lines

  void add_gate(bool ok, std::string what) {
    if (!ok) gate_failures.push_back(std::move(what));
  }
  [[nodiscard]] bool correct() const { return gate_failures.empty(); }
};

/// Invocation parameters shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  bsc::bench::RunMeta meta;  ///< git rev, build type, hardware threads
};

/// "workload=.. seed=.. git_rev=.. build_type=.. hardware_threads=..": the
/// stamp every output of a run carries.
[[nodiscard]] std::string stamp(const Options& opts);

/// The calls one timed pass made, in call order (on blob_ckpt, every
/// client's calls, client after client), and the host time the pass took.
struct PassCalls {
  std::vector<CallRec> calls;
  double elapsed_s = 0.0;
};

/// Everything one measured phase timed, pass by pass.
struct PhaseFigures {
  std::vector<PassCalls> passes;
  /// Every pass made the same calls in the same order (one agent): call i
  /// of every pass is the same work, so the lower envelope applies.
  bool aligned = false;
  std::vector<double> read_wall_us;   ///< every read, pooled over passes
  std::vector<double> write_wall_us;  ///< every write, pooled over passes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add_pass(PassCalls p);
};

/// True when every pass made the same calls (kind and bytes) in the same order.
[[nodiscard]] bool same_calls(const std::vector<PassCalls>& passes);

/// The host-clock end-to-end figures of a phase.
///
/// The tails are per-pass figures: read_p99_us and write_p99_us are the
/// median over passes of each pass's p99, so a stall that some passes hit
/// still moves them.
///
/// When the passes are aligned, the throughputs and p50s come from the
/// lower envelope: each call's smallest wall time (and smallest start-to-
/// next-start gap) over the passes. On a shared host a call only ever
/// loses time to the host, and the host's slow stretches fall on different
/// calls in different passes, so the envelope keeps each call's own cost.
/// The number of passes depends on the run length only, so every build
/// gets the same number of samples per call. Otherwise (blob_ckpt) every
/// figure is the median over passes.
struct HostFigures {
  double ops_per_s = 0.0;
  double mb_per_s = 0.0;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double write_p50_us = 0.0;
  double write_p99_us = 0.0;
};
[[nodiscard]] HostFigures host_figures(const PhaseFigures& f);

/// Append the host-measured end-to-end metrics common to every workload
/// (host_figures; setup_s the median over passes), the attempted/failed
/// counts, and `fail_ratio`. The latency percentiles go to `extra`: printed
/// and saved, but not in the verdict line. Call after every correctness
/// gate has been checked: each gate breach counts as one failure. `rss_mb`
/// is peak_rss_mb() read right after the warm-up pass.
void add_host_metrics(Report& rep, const PhaseFigures& f, const std::vector<double>& setup_s,
                      double rss_mb, double space_amp);

/// (untraced ÷ traced calls per second − 1) × 100, each the median over the
/// phase's passes.
[[nodiscard]] double trace_overhead_pct(const PhaseFigures& plain, const PhaseFigures& traced);

/// Inputs of the blob-stack layer metrics that do not come from the
/// registry. Counts are reported per `units` (passes, or client-generations
/// on blob_ckpt) so that they do not depend on how many fit in a run.
struct StoreLayerInputs {
  double units = 1.0;
  double user_bytes_written = 0.0;  ///< at the workload's entry layer
  std::uint64_t hot_stripe = 0;     ///< busiest stripe's acquisitions in one store
  std::uint64_t live_bytes = 0;     ///< engine live bytes at the end of the phase
  NodeStats nodes;                  ///< storage nodes over the phase
  double sim_total_us = 0.0;        ///< simulated time the phase covered
  double client_read_wall_p50_us = 0.0;
  double client_write_wall_p50_us = 0.0;
};

/// Append the blob.client, blob.server, blob.engine, rpc and sim layer
/// metrics, in BENCHMARK.json order.
void add_store_layer_metrics(Report& rep, const LayerAcc& L, const StoreLayerInputs& in);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Write the human-readable report, the results file and the verdict line.
/// Returns the process exit code.
int emit(const Options& opts, const Report& rep);

}  // namespace perfbench
