// Unified observability layer: a process-wide registry of named counters,
// gauges, and sharded latency/size histograms, with point-in-time snapshot
// and delta semantics plus two exporters (structured JSON in the spirit of
// the bench --json schema, and Prometheus-style text).
//
// The paper's whole argument is a storage-call census; this layer makes that
// census an always-on runtime artifact instead of an offline trace product.
// Every storage layer (BlobClient, BlobServer, StorageEngine, page cache,
// persist::Journal, rpc::Transport, trace::TraceRecorder) publishes into the
// one global registry under a dotted naming scheme. The StorageEngine is the
// object store under all three backends (blob servers, PFS OSTs, HDFS
// datanodes), so engine.* counts the traffic of each:
//
//   client.<primitive>.{calls,latency_us,bytes}   blob API primitives (§III)
//   client.category.<category>                    paper taxonomy roll-up
//   server.<op>.{calls,service_us}                per-server service times
//   server.stripe.{acquisitions,contended}        lock-stripe contention
//   engine.op.<kind> / engine.bytes_*             storage-engine op counts, all backends
//   cache.{hits,misses,evictions}                 page-cache aggregate
//   wal.{appends,fsyncs,append_us,fsync_us,...}   journal / group commit
//   rpc.{attempts,drops,errors,outages,...}       transport fault verdicts
//   trace.calls.<category> / trace.bytes_*        offline-trace census mirror
//
// Design constraints: registration is rare and locked; the hot path is an
// atomic add (counter/gauge) or one striped mutex + array increment
// (histogram). Entries are never removed, so references returned by the
// registry stay valid for the process lifetime — callers cache them in
// function-local statics. A process-wide enable flag turns every publisher
// into a cheap early-out so the instrumentation tax can be measured (see
// bench/micro_obs) and switched off wholesale.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace bsc::obs {

/// Process-wide metrics switch. Default on; bench/micro_obs flips it to
/// price the instrumentation. Publishers early-out when disabled (readings
/// freeze; nothing is lost structurally).
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// Per-thread slot capacity shared by Counter and ShardedHistogram: each
/// thread leases a process-wide small integer id on first publish and
/// returns it at thread exit; ids below kThreadSlots index a private cell
/// (single-writer, so updates are plain relaxed load+store — no RMW on the
/// hot path). Only when more than kThreadSlots threads publish
/// *concurrently* do the extras fall back to a shared RMW cell: still
/// correct, just not wait-free.
inline constexpr std::size_t kThreadSlots = 64;

/// Cache-line size used to pad per-thread counter stripes: without padding,
/// neighbouring slot ids write the same line on every add() and the false
/// sharing serializes the stripes, defeating the whole design under
/// multithreaded load.
inline constexpr std::size_t kCacheLineBytes = 64;

namespace detail {
/// Process-wide slot-id pool with recycling: a thread takes an id on first
/// publish and its thread_local lease returns it at thread exit, so bounded
/// worker pools — however often they churn — keep reusing the same
/// kThreadSlots private cells instead of permanently exhausting them.
/// Handing a recycled id to a successor thread is safe: the predecessor has
/// exited, and the pool mutex orders its final relaxed stores before the
/// successor's first, so cells stay single-writer *over time*. Threads that
/// start while every id is leased get the kThreadSlots sentinel (shared
/// overflow path); `overflow_threads` records each such thread so the
/// degradation is observable rather than silent.
struct SlotIdPool {
  std::mutex mu;
  std::vector<std::size_t> free_ids;
  std::size_t next_fresh = 0;
  std::uint64_t overflow_threads = 0;

  SlotIdPool() { free_ids.reserve(kThreadSlots); }  // release() never allocates

  static SlotIdPool& instance() {
    // Leaked on purpose: thread exits (lease destructors) can outlive
    // static destruction of ordinary globals.
    static SlotIdPool* pool = new SlotIdPool();
    return *pool;
  }

  std::size_t acquire() noexcept {
    std::scoped_lock lk(mu);
    if (!free_ids.empty()) {
      const std::size_t id = free_ids.back();
      free_ids.pop_back();
      return id;
    }
    if (next_fresh < kThreadSlots) return next_fresh++;
    ++overflow_threads;
    return kThreadSlots;  // sentinel: routes every publisher to its overflow path
  }

  void release(std::size_t id) noexcept {
    if (id >= kThreadSlots) return;
    std::scoped_lock lk(mu);
    free_ids.push_back(id);
  }
};

/// RAII lease binding one slot id to the current thread for its lifetime.
struct ThreadSlotLease {
  const std::size_t id = SlotIdPool::instance().acquire();
  ~ThreadSlotLease() { SlotIdPool::instance().release(id); }
};

inline std::size_t thread_slot_id() noexcept {
  static thread_local const ThreadSlotLease lease;
  return lease.id;
}
}  // namespace detail

/// Number of threads that ever started publishing while all kThreadSlots
/// ids were leased to live threads — i.e. how often the wait-free private
/// path was unavailable and the shared RMW/overflow path was used instead.
[[nodiscard]] inline std::uint64_t overflowed_thread_count() {
  auto& pool = detail::SlotIdPool::instance();
  std::scoped_lock lk(pool.mu);
  return pool.overflow_threads;
}

/// Monotonic counter, striped per thread (see kThreadSlots): add() is a
/// relaxed load+store on a cache-line-padded cell only this thread writes,
/// value() sums the stripes. Implicitly readable as an integer so that
/// registry-backed counters can replace plain uint64_t struct fields
/// without touching their consumers. A read concurrent with writers may
/// miss in-flight adds; after writers quiesce it is exact. Gated on
/// metrics_enabled(): readings freeze while the switch is off — use
/// LocalCounter for functional accounting that must never stop.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta) noexcept {
    if (!metrics_enabled()) return;
    const std::size_t tid = detail::thread_slot_id();
    if (tid < kThreadSlots) {
      auto& c = slots_[tid].v;
      c.store(c.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
    } else {
      overflow_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  void inc() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t v = overflow_.load(std::memory_order_relaxed);
    for (const auto& c : slots_) v += c.v.load(std::memory_order_relaxed);
    return v;
  }
  operator std::uint64_t() const noexcept { return value(); }  // NOLINT(google-explicit-constructor)

  /// Not linearizable against concurrent writers (for tests and benches).
  void reset() noexcept {
    for (auto& c : slots_) c.v.store(0, std::memory_order_relaxed);
    overflow_.store(0, std::memory_order_relaxed);
  }

 private:
  /// One stripe per slot id, padded so neighbouring ids never share a line.
  struct alignas(kCacheLineBytes) Cell {
    std::atomic<std::uint64_t> v{0};
  };

  Cell slots_[kThreadSlots];
  std::atomic<std::uint64_t> overflow_{0};
};

/// Always-on single-cell relaxed atomic counter for *functional* accounting
/// that must keep counting while the metrics switch is off (obs::Counter
/// early-outs when disabled). blob::ClientCounters uses this for its
/// fault-tolerance bookkeeping — retries, hints, quorum shortfalls — which
/// feeds repair decisions and test oracles, not dashboards. fetch_add is an
/// RMW, but these objects are per-client, so contention is bounded by
/// design.
class LocalCounter {
 public:
  LocalCounter() = default;
  LocalCounter(const LocalCounter&) = delete;
  LocalCounter& operator=(const LocalCounter&) = delete;

  void add(std::uint64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const noexcept { return value(); }  // NOLINT(google-explicit-constructor)

  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time signed value (queue depths, open handles, buffered bytes).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    if (metrics_enabled()) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (metrics_enabled()) v_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Thread-safe latency/size histogram with a wait-free write path: each
/// thread owns a private slot (lazily allocated, indexed by a process-wide
/// per-thread id), so add() is plain relaxed loads/stores on cells no other
/// thread writes — no lock, no RMW. merged() folds every slot back into one
/// bsc::Histogram. A snapshot taken while writers are mid-add may lag by the
/// in-flight operations; once writers quiesce (join), it is exact.
///
/// Threads that start while all kSlots ids are leased to live threads
/// (slot ids are recycled at thread exit, so only genuine >kSlots
/// concurrency gets here) share a spinlocked overflow histogram — correct,
/// just not wait-free.
class ShardedHistogram {
 public:
  static constexpr std::size_t kSlots = kThreadSlots;

  ShardedHistogram() = default;
  ~ShardedHistogram();
  ShardedHistogram(const ShardedHistogram&) = delete;
  ShardedHistogram& operator=(const ShardedHistogram&) = delete;

  void add(std::uint64_t value) noexcept {
    if (!metrics_enabled()) return;
    const std::size_t tid = detail::thread_slot_id();
    if (tid >= kSlots) {
      add_overflow(value);
      return;
    }
    Slot* s = slots_[tid].load(std::memory_order_relaxed);  // own prior store
    if (s == nullptr) s = claim_slot(tid);
    // Single-writer cells: load+store, no RMW — this is the whole reason the
    // hot path is wait-free.
    auto& cell = s->buckets[Histogram::bucket_index(value)];
    cell.store(cell.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    s->total.store(s->total.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    s->sum.store(s->sum.load(std::memory_order_relaxed) + static_cast<double>(value),
                 std::memory_order_relaxed);
    if (value > s->max.load(std::memory_order_relaxed)) {
      s->max.store(value, std::memory_order_relaxed);
    }
  }

  /// Fold all slots into one histogram (bucket-wise sums).
  [[nodiscard]] Histogram merged() const;
  [[nodiscard]] std::uint64_t count() const noexcept;

  /// Zero every slot. Not linearizable against concurrent writers (an
  /// in-flight add may survive); for tests and bench-phase isolation.
  void reset() noexcept;

 private:
  /// One thread's private recorder: atomics for reader visibility, but only
  /// the owning thread ever writes, so updates are load+store, never RMW.
  /// Cache-line aligned so separately-claimed slots never share a line.
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> buckets[Histogram::kBucketCount] = {};
    std::atomic<std::uint64_t> total{0};
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> max{0};
  };

  Slot* claim_slot(std::size_t tid) noexcept;
  void add_overflow(std::uint64_t value) noexcept;

  std::atomic<Slot*> slots_[kSlots] = {};
  mutable std::atomic_flag overflow_busy_ = ATOMIC_FLAG_INIT;
  Histogram overflow_;
};

/// One admitted slow operation.
struct SlowOp {
  std::string op;            ///< metric-style op name, e.g. "client.read"
  std::string key;           ///< blob key / path the call targeted
  std::uint64_t latency_us = 0;
  std::uint64_t at_us = 0;   ///< (simulated) completion time of the call
};

/// Threshold-configurable ring of the worst-latency calls seen so far: a
/// bounded min-heap on latency, so the cheapest survivor is evicted first.
/// The hot path is one relaxed atomic load: `gate_us_` caches the current
/// admission floor (max of the threshold and, once the heap is full, the
/// cheapest survivor), so calls that cannot qualify return without taking
/// the mutex. The gate is a hint — admission is re-checked under the lock.
class SlowOpLog {
 public:
  void configure(std::size_t capacity, std::uint64_t threshold_us);
  void observe(std::string_view op, std::string_view key, std::uint64_t latency_us,
               std::uint64_t at_us);

  /// Worst-first (descending latency).
  [[nodiscard]] std::vector<SlowOp> worst() const;
  [[nodiscard]] std::uint64_t threshold_us() const;
  [[nodiscard]] std::size_t capacity() const;
  void clear();

 private:
  /// Recompute `gate_us_` from the heap state. Caller holds `mu_`.
  void refresh_gate() noexcept;

  mutable std::mutex mu_;
  std::atomic<std::uint64_t> gate_us_{0};  ///< lock-free admission floor
  std::size_t capacity_ = 64;
  std::uint64_t threshold_us_ = 0;  ///< 0 = admit everything (worst-N still bounds)
  std::vector<SlowOp> heap_;        ///< min-heap by latency_us
};

/// Derived summary of one histogram series inside a snapshot.
struct HistogramStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

/// Point-in-time copy of every registered series. Counters and histogram
/// contents are subtractable (`delta_since`) so a bench phase can be
/// isolated from whatever ran before it.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Histogram> histograms;
  std::vector<SlowOp> slow_ops;  ///< worst-first

  [[nodiscard]] HistogramStats histogram_stats(const std::string& name) const;

  /// Series-wise difference vs an `earlier` snapshot of the same registry:
  /// counters subtract (clamped at zero), histograms subtract bucket-wise
  /// (percentiles of the delta are exact; `max` is the newer cumulative max,
  /// an upper bound for the interval), gauges keep their newer point-in-time
  /// value, and slow ops keep the newer worst-list.
  [[nodiscard]] MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;

  /// Structured JSON export, shaped like the bench --json files: a `meta`
  /// object plus flat series maps (schema in EXPERIMENTS.md).
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition: dots become underscores, histograms export
  /// as summaries (quantile-labelled gauges plus _count/_sum).
  [[nodiscard]] std::string to_prometheus() const;
};

/// The process-wide registry. Lookup-or-create is locked and allocates; the
/// returned references are stable for the process lifetime (entries are
/// zeroed by reset(), never destroyed), so hot paths cache them.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  ShardedHistogram& histogram(std::string_view name);
  SlowOpLog& slow_ops() noexcept { return slow_ops_; }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every registered series (references stay valid). Slow-op log is
  /// cleared too. For tests and bench phase isolation.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<ShardedHistogram>, std::less<>> histograms_;
  SlowOpLog slow_ops_;
};

}  // namespace bsc::obs
