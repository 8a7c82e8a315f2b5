// blob_ckpt: native blob checkpoint/restart (the BlobCR use case) from
// min(2, nproc / 2) client threads, each with its own BlobClient on one
// shared BlobStore, checkpointing together. Every generation a client writes
// an 8 MiB state blob (striped over 1 MiB chunks) and 16 distinct-key 64 KiB
// log blobs, commits its manifest in one transaction, then restarts: it
// stats and reads the manifest and reads back the previous generation, byte
// for byte. Keys recycle every 8 generations.
//
// Only host-clock figures are end-to-end metrics here: with several agents
// (and the client's striped fan-out) simulated time depends on thread
// interleaving, so no sim_* figure is reported for this workload.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <memory>
#include <thread>

#include "blob/client.hpp"
#include "blob/store.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bsc::strfmt;

constexpr std::uint32_t kStorageNodes = 8;
constexpr std::uint64_t kStateBytes = 8ULL << 20;
constexpr std::uint64_t kStateStride = 1ULL << 20;  ///< one stamp per striping chunk
constexpr std::uint32_t kLogBlobs = 16;
constexpr std::uint64_t kLogBytes = 64ULL << 10;
/// Keys recycle every kSlots generations: with two clients about 430 MiB
/// after replication, 54 MiB per node, more than the simulated page cache.
constexpr std::uint32_t kSlots = 8;
constexpr int kTimedPasses = 8;           ///< fresh store per pass: setup_s samples
constexpr double kWarmupPassSeconds = 0.5;
constexpr std::size_t kStampBytes = 16;   ///< {generation, tag} at each stride start

std::string state_key(std::uint32_t c, std::uint64_t slot) {
  return strfmt("ckpt/c%u/s%llu/state", c, static_cast<unsigned long long>(slot));
}
std::string log_key(std::uint32_t c, std::uint64_t slot, std::uint32_t i) {
  return strfmt("ckpt/c%u/s%llu/log-%02u", c, static_cast<unsigned long long>(slot), i);
}
std::string manifest_key(std::uint32_t c) { return strfmt("ckpt/c%u/MANIFEST", c); }

/// A writer-side blob image. Each stride begins with a {generation, tag}
/// stamp rewritten before every write, so a read-back proves every chunk
/// came from the expected generation; the rest of the bytes are the seeded
/// payload and are compared byte for byte.
struct BlobImage {
  bsc::Bytes bytes;
  std::uint64_t stride = 0;
  std::uint64_t tag = 0;

  void stamp(std::uint64_t gen) {
    for (std::uint64_t off = 0; off < bytes.size(); off += stride) {
      const std::uint64_t t = tag + off / stride;
      std::memcpy(bytes.data() + off, &gen, 8);
      std::memcpy(bytes.data() + off + 8, &t, 8);
    }
  }

  [[nodiscard]] bool matches(bsc::ByteView got, std::uint64_t gen) const {
    if (got.size() != bytes.size()) return false;
    for (std::uint64_t off = 0; off < bytes.size(); off += stride) {
      std::uint64_t g = 0;
      std::uint64_t t = 0;
      std::memcpy(&g, got.data() + off, 8);
      std::memcpy(&t, got.data() + off + 8, 8);
      const std::uint64_t body = std::min<std::uint64_t>(stride, bytes.size() - off) - kStampBytes;
      if (g != gen || t != tag + off / stride ||
          std::memcmp(got.data() + off + kStampBytes, bytes.data() + off + kStampBytes, body) != 0) {
        return false;
      }
    }
    return true;
  }
};

/// One checkpointing client thread.
struct Writer {
  std::uint32_t id = 0;
  bsc::sim::SimAgent agent;
  std::unique_ptr<bsc::blob::BlobClient> client;
  BlobImage state;
  std::vector<BlobImage> logs;
  bsc::blob::Version manifest_version = 0;  ///< precondition of the next commit
  std::uint64_t next_gen = 0;

  // Timed-phase results.
  std::vector<CallRec> log;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t generations = 0;
  double busy_s = 0.0;  ///< host time inside BlobClient calls
  std::vector<std::string> breaches;

  void stage(std::uint64_t seed) {
    const std::uint64_t base = seed * 0x9e3779b97f4a7c15ULL + id;
    state = {bsc::make_payload(base, 0, kStateBytes), kStateStride,
             (std::uint64_t{id} << 32)};
    logs.clear();
    for (std::uint32_t i = 0; i < kLogBlobs; ++i) {
      logs.push_back({bsc::make_payload(base ^ (std::uint64_t{i + 1} << 40), 0, kLogBytes),
                      kLogBytes, (std::uint64_t{id} << 32) | (1000 + i)});
    }
  }

  /// Run `fn` (a BlobClient call) and, in the timed phase, account for it.
  /// The call's moved bytes are filled in by the caller once checked.
  template <class Fn>
  auto call(bool timed, CallKind kind, SpanLog* spans, std::uint32_t parent, const char* name,
            Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    auto r = fn();
    const Clock::time_point t1 = Clock::now();
    if (timed) {
      const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
      ++calls;
      if (!r.ok()) ++failed;
      busy_s += us * 1e-6;
      log.push_back({0.0, us, 0, kind});
      if (spans) spans->record(name, parent, t0, t1);
    }
    return r;
  }

  void breach(std::string what) { breaches.push_back(strfmt("client %u: ", id) + what); }

  /// One generation: checkpoint, commit, restart-read of the previous one.
  void generation(bool timed, SpanLog* spans, std::uint32_t pass_span) {
    const std::uint64_t g = next_gen++;
    const std::uint64_t slot = g % kSlots;
    SpanScope gen_span(timed ? spans : nullptr, "generation", pass_span);
    SpanLog* s = timed ? spans : nullptr;
    const std::uint32_t parent = gen_span.id();
    auto& c = *client;

    state.stamp(g);
    for (auto& l : logs) l.stamp(g);
    auto write_blob = [&](const std::string& key, const BlobImage& img) {
      auto w = call(timed, CallKind::write, s, parent, "client.write",
                    [&] { return c.write(key, 0, bsc::as_view(img.bytes)); });
      if (!w.ok() || w.value() != img.bytes.size()) {
        breach(strfmt("write %s failed: %s", key.c_str(),
                      w.ok() ? "short write" : w.error().message().c_str()));
      } else if (timed) {
        bytes_written += w.value();
        log.back().bytes = w.value();
      }
    };
    write_blob(state_key(id, slot), state);
    for (std::uint32_t i = 0; i < kLogBlobs; ++i) write_blob(log_key(id, slot, i), logs[i]);

    const std::string manifest = manifest_key(id);
    const std::string body = strfmt("generation=%020llu slot=%llu\n",
                                    static_cast<unsigned long long>(g),
                                    static_cast<unsigned long long>(slot));
    auto commit = call(timed, CallKind::other, s, parent, "client.commit", [&] {
      auto txn = c.begin_transaction();
      txn.expect_version(manifest, manifest_version);
      txn.write(manifest, 0, bsc::as_view(bsc::to_bytes(body)));
      return txn.commit();
    });
    if (!commit.ok()) breach(strfmt("generation %llu manifest commit: %s",
                                    static_cast<unsigned long long>(g),
                                    commit.message().c_str()));

    // Restart: find the newest complete generation, read back the previous.
    auto st = call(timed, CallKind::other, s, parent, "client.stat",
                   [&] { return c.stat(manifest); });
    if (st.ok()) manifest_version = st.value().version;
    auto m = call(timed, CallKind::read, s, parent, "client.read",
                  [&] { return c.read(manifest, 0, body.size()); });
    if (!st.ok() || !m.ok() || bsc::to_string(bsc::as_view(m.value())) != body) {
      breach(strfmt("manifest of generation %llu did not read back",
                    static_cast<unsigned long long>(g)));
    } else if (timed) {
      bytes_read += m.value().size();
      log.back().bytes = m.value().size();
    }
    if (g == 0) return;
    const std::uint64_t prev = (g - 1) % kSlots;
    auto read_blob = [&](const std::string& key, const BlobImage& img) {
      auto r = call(timed, CallKind::read, s, parent, "client.read",
                    [&] { return c.read(key, 0, img.bytes.size()); });
      if (!r.ok() || !img.matches(bsc::as_view(r.value()), g - 1)) {
        breach(strfmt("read-back of %s (generation %llu) does not match what was written",
                      key.c_str(), static_cast<unsigned long long>(g - 1)));
      } else if (timed) {
        bytes_read += r.value().size();
        log.back().bytes = r.value().size();
      }
    };
    read_blob(state_key(id, prev), state);
    for (std::uint32_t i = 0; i < kLogBlobs; ++i) read_blob(log_key(id, prev, i), logs[i]);
    if (timed) ++generations;
  }
};

/// What one pass (fresh cluster and store) measured.
struct CkptPass {
  double setup_s = 0.0;  ///< cluster + store + clients + payloads + warm-up generations
  double run_s = 0.0;
  std::vector<Writer> writers;
  NodeStats nodes;
  double sim_window_us = 0.0;
  std::uint64_t hot_stripe = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t logical_bytes = 0;

  [[nodiscard]] std::uint64_t sum(std::uint64_t Writer::*field) const {
    std::uint64_t n = 0;
    for (const Writer& w : writers) n += w.*field;
    return n;
  }
};

CkptPass run_pass(std::uint64_t seed, std::uint32_t threads, double timed_s, SpanLog* spans,
                  LayerAcc* layers) {
  CkptPass pass;
  SpanScope pass_span(spans, "pass.blob_ckpt", SpanLog::kNoParent);
  const Clock::time_point t0 = Clock::now();
  bsc::sim::Cluster cluster(bsc::sim::ClusterSpec::with_storage_nodes(kStorageNodes));
  bsc::blob::BlobStore store(cluster);
  pass.writers.resize(threads);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads) + 1);
  Clock::time_point run0{};
  Clock::time_point deadline{};
  // Coordinated checkpointing: every client starts each timed generation
  // together, and together they decide whether another one fits before the
  // deadline. Left free, the clients settle into a different overlap of
  // their striped calls in every pass, and the per-pass read p99 jumped
  // between modes 2x apart.
  std::atomic<bool> breached{false};
  bool next_generation = false;
  auto decide = [&]() noexcept {
    next_generation = Clock::now() < deadline && !breached.load();
  };
  std::barrier generation_sync(static_cast<std::ptrdiff_t>(threads), decide);
  {
    std::vector<std::jthread> pool;
    for (std::uint32_t i = 0; i < threads; ++i) {
      pool.emplace_back([&, i] {
        Writer& w = pass.writers[i];
        w.id = i;
        w.client = std::make_unique<bsc::blob::BlobClient>(store, &w.agent);
        w.stage(seed);
        for (std::uint32_t g = 0; g < kSlots && w.breaches.empty(); ++g) {
          w.generation(false, nullptr, SpanLog::kNoParent);
        }
        if (!w.breaches.empty()) breached = true;
        sync.arrive_and_wait();  // set-up done
        sync.arrive_and_wait();  // timing starts
        for (;;) {
          generation_sync.arrive_and_wait();
          if (!next_generation) break;
          w.generation(true, spans, pass_span.id());
          if (!w.breaches.empty()) breached = true;
        }
        sync.arrive_and_wait();  // timing ends
      });
    }
    sync.arrive_and_wait();
    const NodeStats nodes0 = mark_nodes(cluster);
    const auto stripes0 = stripe_counts(store);
    bsc::SimMicros sim0 = 0;
    for (const Writer& w : pass.writers) sim0 = std::max(sim0, w.agent.now());
    if (layers) layers->begin();
    run0 = Clock::now();
    pass.setup_s = seconds_between(t0, run0);
    deadline = run0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(timed_s));
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    pass.run_s = seconds_between(run0, Clock::now());
    if (layers) layers->end();
    pass.nodes = node_stats(cluster, nodes0);
    bsc::SimMicros sim1 = 0;
    for (const Writer& w : pass.writers) sim1 = std::max(sim1, w.agent.now());
    pass.sim_window_us = static_cast<double>(sim1 - sim0);
    pass.hot_stripe = hottest_stripe(stripes0, stripe_counts(store));
  }  // joins the writers
  pass.live_bytes = store.total_live_bytes();
  bsc::blob::BlobClient auditor(store, nullptr);
  if (auto all = auditor.scan("ckpt/"); all.ok()) {
    for (const auto& b : all.value()) pass.logical_bytes += b.size;
  }
  for (Writer& w : pass.writers) w.client.reset();
  return pass;
}

/// min(2, nproc / 2) clients. Each client fans its striped calls out on a
/// pool of min(8, nproc) threads, so two clients already run twice as many
/// threads as a 4-core host has cores. With four, the read p99 of a pass
/// depended on how the scheduler packed 20 threads, and jumped 2x between
/// passes and runs.
std::uint32_t client_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(hw / 2, 1, 2);
}

void check(Report& rep, const CkptPass& p, const char* label) {
  for (const Writer& w : p.writers) {
    for (const auto& b : w.breaches) rep.add_gate(false, strfmt("%s: %s", label, b.c_str()));
  }
}

/// The timed calls of every pass, over the pass's timed window. Clients
/// interleave differently in every pass, so the passes are not aligned.
PhaseFigures figures(const std::vector<CkptPass>& passes) {
  PhaseFigures f;
  for (const CkptPass& p : passes) {
    PassCalls pc;
    pc.elapsed_s = p.run_s;
    for (const Writer& w : p.writers) pc.calls.insert(pc.calls.end(), w.log.begin(), w.log.end());
    f.add_pass(std::move(pc));
    f.attempted += p.sum(&Writer::calls);
    f.failed += p.sum(&Writer::failed);
  }
  return f;
}

}  // namespace

Report run_blob_ckpt(const Options& opts) {
  Report rep;
  const std::uint32_t threads = client_threads();
  std::unique_ptr<SpanLog> spans = opts.trace ? std::make_unique<SpanLog>() : nullptr;

  // Untimed warm-up pass: only its set-up time is reported (in setup_s).
  const CkptPass warm = run_pass(opts.seed, threads, kWarmupPassSeconds, nullptr, nullptr);
  check(rep, warm, "warm-up");
  std::vector<double> setup_s{warm.setup_s};
  // The memory one pass needs; later passes only add allocator fragmentation.
  const double rss_mb = peak_rss_mb();

  const int plain_passes = opts.trace ? kTimedPasses / 2 : kTimedPasses;
  const double pass_s = opts.seconds / kTimedPasses;
  std::vector<CkptPass> plain;
  for (int i = 0; i < plain_passes; ++i) {
    plain.push_back(run_pass(opts.seed, threads, pass_s, nullptr, nullptr));
    check(rep, plain.back(), "timed");
    setup_s.push_back(plain.back().setup_s);
  }
  LayerAcc layers;
  std::vector<CkptPass> traced;
  if (opts.trace) {
    for (int i = 0; i < kTimedPasses - plain_passes; ++i) {
      traced.push_back(run_pass(opts.seed, threads, pass_s, spans.get(), &layers));
      check(rep, traced.back(), "traced");
    }
  }

  const CkptPass& first = plain.front();
  const double space_amp = first.logical_bytes ? static_cast<double>(first.live_bytes) /
                                                     static_cast<double>(first.logical_bytes)
                                               : 0.0;
  PhaseFigures f = figures(plain);
  const PhaseFigures ft = figures(traced);
  f.attempted += ft.attempted;
  f.failed += ft.failed;
  add_host_metrics(rep, f, setup_s, rss_mb, space_amp);
  rep.extra.push_back({"client_threads", static_cast<double>(threads), "count"});

  if (opts.trace && !traced.empty()) {
    auto& m = rep.per_layer;
    // blob_ckpt calls the blob client directly: the adapter, the app models
    // and the file-system baselines are not on its path.
    m.push_back({"adapter.calls", 0.0, "count"});
    m.push_back({"adapter.busy_s", 0.0, "s"});
    m.push_back({"adapter.read.wall_p50_us", 0.0, "us"});
    m.push_back({"adapter.write.wall_p50_us", 0.0, "us"});
    m.push_back({"adapter.meta.sim_us", 0.0, "sim_us"});
    m.push_back({"adapter.dir.sim_us", 0.0, "sim_us"});
    m.push_back({"adapter.client_calls_per_call", 0.0, "ratio"});
    StoreLayerInputs in;
    in.units = 0.0;  // Σ timed client-generations
    double run_s = 0.0;
    double busy_s = 0.0;
    std::uint64_t written = 0;
    for (const CkptPass& p : traced) {
      in.units += static_cast<double>(p.sum(&Writer::generations));
      in.nodes.merge(p.nodes);
      in.sim_total_us += p.sim_window_us;
      in.hot_stripe = std::max(in.hot_stripe, p.hot_stripe);
      written += p.sum(&Writer::bytes_written);
      run_s += p.run_s * threads;
      for (const Writer& w : p.writers) busy_s += w.busy_s;
    }
    in.user_bytes_written = static_cast<double>(written);
    in.live_bytes = traced.back().live_bytes;
    in.client_read_wall_p50_us = percentile(ft.read_wall_us, 50);
    in.client_write_wall_p50_us = percentile(ft.write_wall_us, 50);
    m.push_back({"app.self_s", (run_s - busy_s) / in.units, "s"});
    m.push_back({"trace.calls.total", 0.0, "count"});
    m.push_back({"pfs.calls", 0.0, "count"});
    m.push_back({"pfs.sim_us", 0.0, "sim_us"});
    m.push_back({"hdfs.calls", 0.0, "count"});
    m.push_back({"hdfs.sim_us", 0.0, "sim_us"});
    add_store_layer_metrics(rep, layers, in);
    m.push_back({"obs.trace_overhead_pct", trace_overhead_pct(f, ft), "%"});
    if (!opts.out_dir.empty()) {
      (void)spans->write(strfmt("%s/spans-blob_ckpt-seed%llu.tsv", opts.out_dir.c_str(),
                                static_cast<unsigned long long>(opts.seed)),
                         stamp(opts) + strfmt(" threads=%u", threads));
    }
  }
  return rep;
}

}  // namespace perfbench
