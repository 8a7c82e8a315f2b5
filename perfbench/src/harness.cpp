#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "common/strings.hpp"

namespace perfbench {

using bsc::Bytes;
using bsc::ByteView;
using bsc::Result;
using bsc::Status;
using bsc::trace::OpKind;
namespace vfs = bsc::vfs;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least p% of samples at or below.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int pass_count(double seconds, double seconds_per_pass) {
  return std::max(3, static_cast<int>(std::lround(seconds / seconds_per_pass)));
}

namespace {

/// A random cyclic walk with one step per cache line of a `bytes` buffer:
/// every step is a dependent load, so its time is the load latency of
/// whichever cache level holds the buffer.
class CacheWalk {
 public:
  explicit CacheWalk(std::size_t bytes) : next_(bytes / sizeof(std::uint32_t)) {
    constexpr std::size_t kStride = 64 / sizeof(std::uint32_t);
    const std::size_t lines = next_.size() / kStride;
    std::vector<std::uint32_t> order(lines);
    for (std::size_t i = 0; i < lines; ++i) order[i] = static_cast<std::uint32_t>(i * kStride);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64: fixed, seed-independent order
    for (std::size_t i = lines - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (std::size_t i = 0; i < lines; ++i) next_[order[i]] = order[(i + 1) % lines];
  }

  double ns_per_step(int steps) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < steps; ++i) at_ = next_[at_];
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / steps;
  }

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
};

}  // namespace

void pin_to_quietest_cpu() {
  static const cpu_set_t allowed = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) CPU_ZERO(&s);
    return s;
  }();
  static CacheWalk walk(1536 << 10);
  int best_cpu = -1;
  double best_ns = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    (void)walk.ns_per_step(25'000);  // one lap: bring the buffer into this core's caches
    const double ns = walk.ns_per_step(50'000);
    if (best_cpu < 0 || ns < best_ns) {
      best_cpu = cpu;
      best_ns = ns;
    }
  }
  if (best_cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best_cpu, &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

// --------------------------------------------------------------- spans ----

SpanLog::SpanLog() : epoch_(Clock::now()) { names_.emplace_back("<none>"); }

std::int64_t SpanLog::rel_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::uint32_t SpanLog::intern_locked(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanLog::open(std::string_view name, std::uint32_t parent) {
  const std::int64_t now = rel_ns(Clock::now());
  std::scoped_lock lk(mu_);
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = intern_locked(name);
  s.start_ns = now;
  s.end_ns = now;
  spans_.push_back(s);
  return s.id;
}

void SpanLog::close(std::uint32_t id) {
  const std::int64_t now = rel_ns(Clock::now());
  std::scoped_lock lk(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = now;
}

void SpanLog::record(std::string_view name, std::uint32_t parent, Clock::time_point start,
                     Clock::time_point end) {
  std::scoped_lock lk(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = intern_locked(name);
  s.start_ns = rel_ns(start);
  s.end_ns = rel_ns(end);
  spans_.push_back(s);
}

bool SpanLog::write(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return false;
  }
  std::scoped_lock lk(mu_);
  std::fprintf(f, "# %s spans=%zu dropped=%llu\n", header.c_str(), spans_.size(),
               static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u\t%u\t%s\t%lld\t%lld\n", s.id, s.parent, names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ TimedFs ----

void CallStats::merge(const CallStats& o) {
  calls += o.calls;
  failed += o.failed;
  absent_probes += o.absent_probes;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  busy_s += o.busy_s;
  read_sim_us.insert(read_sim_us.end(), o.read_sim_us.begin(), o.read_sim_us.end());
  write_sim_us.insert(write_sim_us.end(), o.write_sim_us.begin(), o.write_sim_us.end());
  meta_sim_us += o.meta_sim_us;
  dir_sim_us += o.dir_sim_us;
  total_sim_us += o.total_sim_us;
  seq.insert(seq.end(), o.seq.begin(), o.seq.end());
}

TimedFs::TimedFs(vfs::FileSystem& inner, SpanLog* spans, std::string span_prefix,
                 std::function<void()> on_run_start)
    : inner_(&inner),
      spans_(spans),
      span_prefix_(std::move(span_prefix)),
      on_run_start_(std::move(on_run_start)) {}

namespace {

std::uint64_t moved_bytes(const Result<Bytes>& r) { return r.ok() ? r.value().size() : 0; }
std::uint64_t moved_bytes(const Result<std::uint64_t>& r) { return r.ok() ? r.value() : 0; }
template <class R>
std::uint64_t moved_bytes(const R&) {
  return 0;
}

}  // namespace

template <class Fn>
auto TimedFs::timed(OpKind op, const vfs::IoCtx& ctx, Fn&& fn) {
  if (!run_started_.load(std::memory_order_relaxed)) {
    if (ctx.agent == nullptr) return fn();  // input staging: set-up, untimed
    if (on_run_start_) on_run_start_();
    run_start_ = Clock::now();
    run_started_.store(true, std::memory_order_relaxed);
  }
  const bsc::SimMicros sim0 = ctx.now();
  const Clock::time_point t0 = Clock::now();
  auto r = fn();
  const Clock::time_point t1 = Clock::now();
  const double wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  const auto sim_us = static_cast<double>(ctx.now() - sim0);
  if (spans_) {
    spans_->record(span_prefix_ + std::string(bsc::trace::to_string(op)),
                   spans_->call_parent(), t0, t1);
  }
  std::scoped_lock lk(mu_);
  if (!stats_.seq.empty()) {
    stats_.seq.back().gap_us = std::chrono::duration<double, std::micro>(t0 - last_start_).count();
  }
  last_start_ = t0;
  CallRec& rec = stats_.seq.emplace_back();
  rec.wall_us = wall_us;
  ++stats_.calls;
  if (!r.ok()) {
    // stat is the workloads' existence probe: "not found" is its answer.
    if (op == OpKind::stat && r.code() == bsc::Errc::not_found) {
      ++stats_.absent_probes;
    } else {
      ++stats_.failed;
    }
  }
  stats_.busy_s += wall_us * 1e-6;
  stats_.total_sim_us += sim_us;
  switch (bsc::trace::classify(op)) {
    case bsc::trace::Category::file_read:
      rec.kind = CallKind::read;
      rec.bytes = moved_bytes(r);
      stats_.bytes_read += rec.bytes;
      stats_.read_sim_us.push_back(sim_us);
      break;
    case bsc::trace::Category::file_write:
      rec.kind = CallKind::write;
      rec.bytes = moved_bytes(r);
      stats_.bytes_written += rec.bytes;
      stats_.write_sim_us.push_back(sim_us);
      break;
    case bsc::trace::Category::directory:
      stats_.dir_sim_us += sim_us;
      break;
    default:
      stats_.meta_sim_us += sim_us;
      break;
  }
  return r;
}

void TimedFs::finish(Clock::time_point end) {
  std::scoped_lock lk(mu_);
  if (!stats_.seq.empty()) {
    stats_.seq.back().gap_us = std::chrono::duration<double, std::micro>(end - last_start_).count();
  }
}

Result<vfs::FileHandle> TimedFs::open(const vfs::IoCtx& ctx, std::string_view path,
                                      vfs::OpenFlags flags, vfs::Mode mode) {
  return timed(OpKind::open, ctx, [&] { return inner_->open(ctx, path, flags, mode); });
}
Status TimedFs::close(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  return timed(OpKind::close, ctx, [&] { return inner_->close(ctx, fh); });
}
Result<Bytes> TimedFs::read(const vfs::IoCtx& ctx, vfs::FileHandle fh, std::uint64_t offset,
                            std::uint64_t len) {
  return timed(OpKind::read, ctx, [&] { return inner_->read(ctx, fh, offset, len); });
}
Result<std::uint64_t> TimedFs::write(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                                     std::uint64_t offset, ByteView data) {
  return timed(OpKind::write, ctx, [&] { return inner_->write(ctx, fh, offset, data); });
}
Status TimedFs::sync(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  return timed(OpKind::sync, ctx, [&] { return inner_->sync(ctx, fh); });
}
Status TimedFs::truncate(const vfs::IoCtx& ctx, std::string_view path, std::uint64_t new_size) {
  return timed(OpKind::truncate, ctx, [&] { return inner_->truncate(ctx, path, new_size); });
}
Status TimedFs::unlink(const vfs::IoCtx& ctx, std::string_view path) {
  return timed(OpKind::unlink, ctx, [&] { return inner_->unlink(ctx, path); });
}
Status TimedFs::mkdir(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  return timed(OpKind::mkdir, ctx, [&] { return inner_->mkdir(ctx, path, mode); });
}
Status TimedFs::rmdir(const vfs::IoCtx& ctx, std::string_view path) {
  return timed(OpKind::rmdir, ctx, [&] { return inner_->rmdir(ctx, path); });
}
Result<std::vector<vfs::DirEntry>> TimedFs::readdir(const vfs::IoCtx& ctx,
                                                    std::string_view path) {
  return timed(OpKind::readdir, ctx, [&] { return inner_->readdir(ctx, path); });
}
Result<vfs::FileInfo> TimedFs::stat(const vfs::IoCtx& ctx, std::string_view path) {
  return timed(OpKind::stat, ctx, [&] { return inner_->stat(ctx, path); });
}
Status TimedFs::rename(const vfs::IoCtx& ctx, std::string_view from, std::string_view to) {
  return timed(OpKind::rename, ctx, [&] { return inner_->rename(ctx, from, to); });
}
Status TimedFs::chmod(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  return timed(OpKind::chmod, ctx, [&] { return inner_->chmod(ctx, path, mode); });
}
Result<std::string> TimedFs::getxattr(const vfs::IoCtx& ctx, std::string_view path,
                                      std::string_view name) {
  return timed(OpKind::getxattr, ctx, [&] { return inner_->getxattr(ctx, path, name); });
}
Status TimedFs::setxattr(const vfs::IoCtx& ctx, std::string_view path, std::string_view name,
                         std::string_view value) {
  return timed(OpKind::setxattr, ctx,
               [&] { return inner_->setxattr(ctx, path, name, value); });
}

std::uint64_t logical_file_bytes(vfs::FileSystem& fs) {
  const vfs::IoCtx ctx{nullptr, 0, 0};
  std::uint64_t total = 0;
  std::deque<std::string> dirs{"/"};
  while (!dirs.empty()) {
    const std::string dir = std::move(dirs.front());
    dirs.pop_front();
    auto entries = fs.readdir(ctx, dir);
    if (!entries.ok()) continue;
    for (const auto& e : entries.value()) {
      const std::string path = bsc::join_path(dir, e.name);
      if (e.type == vfs::FileType::directory) {
        dirs.push_back(path);
      } else if (auto info = fs.stat(ctx, path); info.ok()) {
        total += info.value().size;
      }
    }
  }
  return total;
}

// ----------------------------------------------------- simulated nodes ----

void NodeStats::merge(const NodeStats& o) {
  if (busy_us.size() < o.busy_us.size()) busy_us.resize(o.busy_us.size(), 0.0);
  for (std::size_t i = 0; i < o.busy_us.size(); ++i) busy_us[i] += o.busy_us[i];
  requests += o.requests;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
}

NodeStats mark_nodes(bsc::sim::Cluster& cluster) {
  NodeStats m;
  for (std::size_t n = 0; n < cluster.storage_count(); ++n) {
    auto& node = cluster.storage_node(n);
    m.busy_us.push_back(static_cast<double>(node.busy_total()));
    m.requests += node.requests_served();
    m.cache_hits += node.cache().hits();
    m.cache_misses += node.cache().misses();
    m.cache_evictions += node.cache().evictions();
  }
  return m;
}

NodeStats node_stats(bsc::sim::Cluster& cluster, const NodeStats& since) {
  const NodeStats now = mark_nodes(cluster);
  NodeStats s;
  for (std::size_t n = 0; n < now.busy_us.size(); ++n) {
    s.busy_us.push_back(now.busy_us[n] - (n < since.busy_us.size() ? since.busy_us[n] : 0.0));
  }
  s.requests = now.requests - since.requests;
  s.cache_hits = now.cache_hits - since.cache_hits;
  s.cache_misses = now.cache_misses - since.cache_misses;
  s.cache_evictions = now.cache_evictions - since.cache_evictions;
  return s;
}

std::vector<std::uint64_t> stripe_counts(bsc::blob::BlobStore& store) {
  std::vector<std::uint64_t> out;
  for (std::uint32_t s = 0; s < store.server_count(); ++s) {
    for (auto a : store.server(s).stripe_acquisitions()) out.push_back(a);
  }
  return out;
}

std::uint64_t hottest_stripe(const std::vector<std::uint64_t>& before,
                             const std::vector<std::uint64_t>& after) {
  std::uint64_t hot = 0;
  for (std::size_t i = 0; i < after.size() && i < before.size(); ++i) {
    hot = std::max(hot, after[i] - before[i]);
  }
  return hot;
}

// ------------------------------------------------ registry accumulation ----

void LayerAcc::begin() { before_ = bsc::obs::MetricsRegistry::global().snapshot(); }

void LayerAcc::end() {
  const auto d = bsc::obs::MetricsRegistry::global().snapshot().delta_since(before_);
  for (const auto& [name, v] : d.counters) sum_.counters[name] += v;
  for (const auto& [name, h] : d.histograms) sum_.histograms[name].merge(h);
}

double LayerAcc::counter(const std::string& name) const {
  const auto it = sum_.counters.find(name);
  return it == sum_.counters.end() ? 0.0 : static_cast<double>(it->second);
}

bsc::obs::HistogramStats LayerAcc::hist(const std::string& name) const {
  return sum_.histogram_stats(name);
}

double LayerAcc::client_calls_total() const {
  double total = 0.0;
  for (const auto& [name, v] : sum_.counters) {
    if (name.starts_with("client.") && name.ends_with(".calls") &&
        name.find('.', 7) == name.size() - 6) {
      total += static_cast<double>(v);
    }
  }
  return total;
}

// -------------------------------------------------------------- report ----

void PhaseFigures::add_pass(PassCalls p) {
  for (const CallRec& c : p.calls) {
    if (c.kind == CallKind::read) read_wall_us.push_back(c.wall_us);
    if (c.kind == CallKind::write) write_wall_us.push_back(c.wall_us);
  }
  passes.push_back(std::move(p));
}

bool same_calls(const std::vector<PassCalls>& passes) {
  if (passes.empty()) return false;
  const std::vector<CallRec>& first = passes.front().calls;
  for (const PassCalls& p : passes) {
    if (p.calls.size() != first.size()) return false;
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (p.calls[i].kind != first[i].kind || p.calls[i].bytes != first[i].bytes) return false;
    }
  }
  return true;
}

HostFigures host_figures(const PhaseFigures& f) {
  constexpr double kMiB = 1024.0 * 1024.0;
  std::vector<double> ops, mb, r50, r99, w50, w99;
  for (const PassCalls& p : f.passes) {
    std::vector<double> reads;
    std::vector<double> writes;
    double bytes = 0.0;
    for (const CallRec& c : p.calls) {
      bytes += static_cast<double>(c.bytes);
      if (c.kind == CallKind::read) reads.push_back(c.wall_us);
      if (c.kind == CallKind::write) writes.push_back(c.wall_us);
    }
    if (p.elapsed_s <= 0.0) continue;
    ops.push_back(static_cast<double>(p.calls.size()) / p.elapsed_s);
    mb.push_back(bytes / kMiB / p.elapsed_s);
    r50.push_back(percentile(reads, 50));
    r99.push_back(percentile(reads, 99));
    w50.push_back(percentile(writes, 50));
    w99.push_back(percentile(writes, 99));
  }
  HostFigures h{median(ops), median(mb), median(r50), median(r99), median(w50), median(w99)};
  if (!f.aligned || f.passes.size() < 2) return h;

  // Lower envelope: call i at its fastest over the passes.
  const std::size_t n = f.passes.front().calls.size();
  double elapsed_us = 0.0;
  double bytes = 0.0;
  std::vector<double> reads;
  std::vector<double> writes;
  for (std::size_t i = 0; i < n; ++i) {
    double gap = f.passes.front().calls[i].gap_us;
    double wall = f.passes.front().calls[i].wall_us;
    for (const PassCalls& p : f.passes) {
      gap = std::min(gap, p.calls[i].gap_us);
      wall = std::min(wall, p.calls[i].wall_us);
    }
    const CallRec& c = f.passes.front().calls[i];
    elapsed_us += gap;
    bytes += static_cast<double>(c.bytes);
    if (c.kind == CallKind::read) reads.push_back(wall);
    if (c.kind == CallKind::write) writes.push_back(wall);
  }
  if (elapsed_us > 0.0) {
    h.ops_per_s = static_cast<double>(n) / (elapsed_us * 1e-6);
    h.mb_per_s = bytes / kMiB / (elapsed_us * 1e-6);
  }
  h.read_p50_us = percentile(reads, 50);
  h.write_p50_us = percentile(writes, 50);
  return h;
}

void add_host_metrics(Report& rep, const PhaseFigures& f, const std::vector<double>& setup_s,
                      double rss_mb, double space_amp) {
  const HostFigures h = host_figures(f);
  rep.notes.push_back(bsc::strfmt("host-clock figures over %zu timed passes (%s)",
                                  f.passes.size(),
                                  f.aligned ? "lower envelope, per-pass p99s"
                                            : "medians of per-pass figures"));
  std::string line = "setup_s per pass:";
  for (double x : setup_s) line += bsc::strfmt(" %.6g", x);
  rep.notes.push_back(line);
  rep.end_to_end.push_back({"ops_per_s", h.ops_per_s, "1/s"});
  rep.end_to_end.push_back({"mb_per_s", h.mb_per_s, "MiB/s"});
  rep.end_to_end.push_back({"setup_s", median(setup_s), "s"});
  rep.end_to_end.push_back({"peak_rss_mb", rss_mb, "MiB"});
  rep.end_to_end.push_back({"space_amp", space_amp, "ratio"});
  rep.extra.push_back({"read_p50_us", h.read_p50_us, "us"});
  rep.extra.push_back({"read_p99_us", h.read_p99_us, "us"});
  rep.extra.push_back({"write_p50_us", h.write_p50_us, "us"});
  rep.extra.push_back({"write_p99_us", h.write_p99_us, "us"});
  rep.attempted += f.attempted;
  rep.failed += f.failed + rep.gate_failures.size();
  rep.extra.push_back({"fail_ratio",
                       rep.attempted ? static_cast<double>(rep.failed) /
                                           static_cast<double>(rep.attempted)
                                     : 0.0,
                       "ratio"});
}

double trace_overhead_pct(const PhaseFigures& plain, const PhaseFigures& traced) {
  // Median pass, not the lower envelope: the two halves may differ by a
  // pass, and an envelope over more passes reads faster.
  auto ops = [](const PhaseFigures& f) {
    std::vector<double> v;
    for (const PassCalls& p : f.passes) {
      if (p.elapsed_s > 0.0) v.push_back(static_cast<double>(p.calls.size()) / p.elapsed_s);
    }
    return median(v);
  };
  const double ops_traced = ops(traced);
  return ops_traced > 0.0 ? (ops(plain) / ops_traced - 1.0) * 100.0 : 0.0;
}

void add_store_layer_metrics(Report& rep, const LayerAcc& L, const StoreLayerInputs& in) {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto per_unit = [&](const std::string& series) { return L.counter(series) / in.units; };
  auto p50 = [&](const std::string& series) { return static_cast<double>(L.hist(series).p50); };
  auto& m = rep.per_layer;

  m.push_back({"client.read.calls", per_unit("client.read.calls"), "count"});
  m.push_back({"client.write.calls", per_unit("client.write.calls"), "count"});
  m.push_back({"client.scan.calls", per_unit("client.scan.calls"), "count"});
  m.push_back({"client.txn.calls", per_unit("client.txn.calls"), "count"});
  m.push_back({"client.read.latency_p50_us", p50("client.read.latency_us"), "sim_us"});
  m.push_back({"client.write.latency_p50_us", p50("client.write.latency_us"), "sim_us"});
  const auto scan = L.hist("client.scan.latency_us");
  m.push_back({"client.scan.latency_sum_us",
               scan.mean * static_cast<double>(scan.count) / in.units, "sim_us"});
  m.push_back({"client.batch.envelopes", per_unit("client.batch.envelopes"), "count"});
  m.push_back({"rpc.batch.subops_per_batch",
               ratio(L.counter("rpc.batch.subops"), L.counter("rpc.batches")), "ratio"});
  m.push_back({"client.batch.coalesced", per_unit("client.batch.coalesced"), "count"});
  const double mc_hits = L.counter("client.metacache.hits");
  m.push_back({"client.metacache.hit_ratio",
               ratio(mc_hits, mc_hits + L.counter("client.metacache.misses")), "ratio"});
  m.push_back({"client.read.wall_p50_us", in.client_read_wall_p50_us, "us"});
  m.push_back({"client.write.wall_p50_us", in.client_write_wall_p50_us, "us"});

  m.push_back({"server.read.calls", per_unit("server.read.calls"), "count"});
  m.push_back({"server.write.calls", per_unit("server.write.calls"), "count"});
  m.push_back({"server.read.service_p50_us", p50("server.read.service_us"), "sim_us"});
  m.push_back({"server.write.service_p50_us", p50("server.write.service_us"), "sim_us"});
  m.push_back({"server.stripe.acquisitions", per_unit("server.stripe.acquisitions"), "count"});
  m.push_back({"server.stripe.contended_ratio",
               ratio(L.counter("server.stripe.contended"),
                     L.counter("server.stripe.acquisitions")),
               "ratio"});
  m.push_back({"server.stripe.hot_max", static_cast<double>(in.hot_stripe), "count"});

  m.push_back({"engine.op.write", per_unit("engine.op.write"), "count"});
  m.push_back({"engine.op.read", per_unit("engine.op.read"), "count"});
  m.push_back({"engine.bytes_written_per_user_byte",
               ratio(L.counter("engine.bytes_written"), in.user_bytes_written), "ratio"});
  m.push_back({"engine.compactions", per_unit("engine.compactions"), "count"});
  m.push_back({"engine.live_bytes", static_cast<double>(in.live_bytes), "B"});

  m.push_back({"rpc.calls", per_unit("rpc.calls"), "count"});
  m.push_back({"rpc.batches", per_unit("rpc.batches"), "count"});
  m.push_back({"rpc.call_failures", per_unit("rpc.call_failures"), "count"});
  m.push_back({"rpc.timeouts", per_unit("rpc.timeouts"), "count"});

  const auto& busy = in.nodes.busy_us;
  const double busy_max = busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end());
  m.push_back({"sim.node.busy_max_us", busy_max / in.units, "sim_us"});
  m.push_back({"sim.node.util_max", ratio(busy_max, in.sim_total_us), "ratio"});
  m.push_back({"sim.node.requests", static_cast<double>(in.nodes.requests) / in.units, "count"});
  m.push_back({"sim.cache.hit_ratio",
               ratio(static_cast<double>(in.nodes.cache_hits),
                     static_cast<double>(in.nodes.cache_hits + in.nodes.cache_misses)),
               "ratio"});
  m.push_back({"sim.cache.evictions", static_cast<double>(in.nodes.cache_evictions) / in.units,
               "count"});
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return bsc::strfmt("%.17g", v);
}

void json_metrics(std::string& out, const std::vector<Metric>& ms) {
  out += "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += bsc::strfmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                       ms[i].name.c_str(), json_number(ms[i].value).c_str(),
                       ms[i].unit.c_str());
  }
  out += "}";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  if (ms.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

std::string stamp(const Options& opts) {
  return bsc::strfmt("workload=%s seed=%llu git_rev=%s build_type=%s hardware_threads=%u",
                     opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
                     opts.meta.git_rev.c_str(), opts.meta.build_type.c_str(),
                     opts.meta.hardware_threads);
}

int emit(const Options& opts, const Report& rep) {
  const bsc::bench::RunMeta& meta = opts.meta;
  const std::string meta_json = bsc::strfmt(
      "{\"bench\": \"%s\", \"git_rev\": \"%s\", \"build_type\": \"%s\", "
      "\"hardware_threads\": %u, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}",
      meta.bench.c_str(), meta.git_rev.c_str(), meta.build_type.c_str(),
      meta.hardware_threads, opts.workload.c_str(),
      static_cast<unsigned long long>(opts.seed), json_number(opts.seconds).c_str(),
      opts.trace ? 1 : 0);

  std::printf("perfbench %s seed=%llu trace=%d | git %s, %s build, %u hardware threads\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.trace ? 1 : 0, meta.git_rev.c_str(), meta.build_type.c_str(),
              meta.hardware_threads);
  print_metrics("end-to-end (host clock unless named sim_*):", rep.end_to_end);
  print_metrics("end-to-end, workload-specific:", rep.extra);
  print_metrics("per-layer (traced run):", rep.per_layer);
  for (const std::string& n : rep.notes) std::printf("%s\n", n.c_str());
  std::printf("attempted %llu, failed %llu\n", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (const std::string& g : rep.gate_failures) std::printf("CORRECTNESS GATE FAILED: %s\n", g.c_str());

  if (!opts.out_dir.empty()) {
    const std::string path = bsc::strfmt("%s/result-%s-seed%llu-trace%d.json",
                                         opts.out_dir.c_str(), opts.workload.c_str(),
                                         static_cast<unsigned long long>(opts.seed),
                                         opts.trace ? 1 : 0);
    std::string body = "{\"meta\": " + meta_json + ", \"correct\": ";
    body += rep.correct() ? "true" : "false";
    body += ", \"end_to_end\": ";
    json_metrics(body, rep.end_to_end);
    body += ", \"extra\": ";
    json_metrics(body, rep.extra);
    body += ", \"per_layer\": ";
    json_metrics(body, rep.per_layer);
    body += "}\n";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(body.c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  std::string line = bsc::strfmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
                                 rep.correct() ? "true" : "false",
                                 static_cast<unsigned long long>(rep.attempted),
                                 static_cast<unsigned long long>(rep.failed));
  json_metrics(line, opts.trace ? rep.per_layer : rep.end_to_end);
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}

}  // namespace perfbench
