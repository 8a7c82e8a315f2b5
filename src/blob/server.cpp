#include "blob/server.hpp"

#include <cmath>

#include "common/hash.hpp"
#include "obs/metrics.hpp"

namespace bsc::blob {

namespace {
/// Registry series of one server-side op (calls + simulated service time).
struct OpSeries {
  obs::Counter& calls;
  obs::ShardedHistogram& service_us;
};

OpSeries make_op(const char* op) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string base = std::string{"server."} + op;
  return OpSeries{reg.counter(base + ".calls"), reg.histogram(base + ".service_us")};
}

/// All server series, aggregated across every BlobServer instance in the
/// process (per-server decomposition stays with the stripe counter arrays).
struct ServerMetrics {
  OpSeries create = make_op("create");
  OpSeries remove = make_op("remove");
  OpSeries write = make_op("write");
  OpSeries read = make_op("read");
  OpSeries truncate = make_op("truncate");
  OpSeries grow = make_op("grow");
  OpSeries stat = make_op("stat");
  OpSeries scan = make_op("scan");
  OpSeries txn = make_op("txn");
  obs::ShardedHistogram& read_bytes =
      obs::MetricsRegistry::global().histogram("server.read.bytes");
  obs::ShardedHistogram& write_bytes =
      obs::MetricsRegistry::global().histogram("server.write.bytes");
  obs::Counter& stripe_acquisitions =
      obs::MetricsRegistry::global().counter("server.stripe.acquisitions");
  obs::Counter& stripe_contended =
      obs::MetricsRegistry::global().counter("server.stripe.contended");
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

template <typename T>
Status status_of(const Result<T>& r) {
  return r.ok() ? Status::success() : Status{r.error()};
}

/// One op served: a call plus its service time as a one-op request.
void publish(const OpSeries& s, SimMicros service_us) {
  s.calls.inc();
  s.service_us.add(static_cast<std::uint64_t>(service_us));
}

/// Publishes one op when the enclosing call returns; every return path
/// writes the service cost through `service_us` first.
class OpPublisher {
 public:
  OpPublisher(const OpSeries& s, const SimMicros* service_us)
      : s_(s), svc_(service_us) {}
  OpPublisher(const OpPublisher&) = delete;
  OpPublisher& operator=(const OpPublisher&) = delete;
  ~OpPublisher() { publish(s_, *svc_); }

 private:
  const OpSeries& s_;
  const SimMicros* svc_;
};
}  // namespace

std::size_t BlobServer::stripe_of(std::string_view key) noexcept {
  static_assert((kLockStripes & (kLockStripes - 1)) == 0, "stripe count is a power of two");
  return fnv1a64(key) & (kLockStripes - 1);
}

std::unique_lock<std::mutex> BlobServer::acquire_stripe(std::size_t index) {
  Stripe& s = stripes_[index];
  auto& m = server_metrics();
  m.stripe_acquisitions.inc();
  // Contention probe: a failed try_lock means another writer holds this
  // stripe right now — the wait that follows is real contention, not just
  // an acquisition.
  std::unique_lock stripe(s.mu, std::try_to_lock);
  if (!stripe.owns_lock()) {
    m.stripe_contended.inc();
    stripe.lock();
  }
  s.acquisitions.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

BlobServer::KeyLock BlobServer::lock_key(std::string_view key) {
  KeyLock lk;
  lk.structure = std::shared_lock(mu_);
  lk.stripe = acquire_stripe(stripe_of(key));
  return lk;
}

BlobServer::MultiKeyLock BlobServer::lock_keys(const std::vector<std::string_view>& keys) {
  MultiKeyLock lk;
  lk.structure = std::shared_lock(mu_);
  // Dedup the batch's stripes and take them in ascending index order — the
  // same total order repeated lock_key() calls would follow, minus the
  // duplicate acquisitions when several chunk keys share a stripe.
  std::array<bool, kLockStripes> want{};
  for (std::string_view key : keys) want[stripe_of(key)] = true;
  for (std::size_t i = 0; i < kLockStripes; ++i) {
    if (want[i]) lk.stripes.push_back(acquire_stripe(i));
  }
  return lk;
}

Status BlobServer::enable_persistence(const std::string& dir, persist::JournalConfig jcfg) {
  std::unique_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  auto j = persist::Journal::open(dir, jcfg);
  if (!j.ok()) return j.error();
  journal_ = std::move(j).take();
  persist_dir_ = dir;
  jcfg_ = jcfg;
  engine_.attach_journal(journal_.get());
  if (engine_.object_count() > 0) {
    // Late enable: objects written before the journal existed are only in
    // memory; snapshot them so the log has a durable base.
    auto c = engine_.write_checkpoint();
    if (!c.ok()) return c.error();
  }
  return Status::success();
}

void BlobServer::crash() {
  std::unique_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  engine_.attach_journal(nullptr);
  if (journal_) journal_->abandon();  // un-fsynced batch dies with the process
  journal_.reset();
  engine_ = StorageEngine(ecfg_);
  {
    // Hints are process state, not engine state: they die too. Resync is
    // the durable backstop for whatever they would have repaired.
    std::scoped_lock hlk(hints_mu_);
    hints_.clear();
  }
}

Status BlobServer::restart(persist::RecoveryReport* report) {
  std::unique_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  if (persist_dir_.empty()) return {Errc::invalid_argument, "persistence not enabled"};
  auto e = StorageEngine::recover(persist_dir_, ecfg_, report);
  if (!e.ok()) return e.error();
  engine_ = std::move(e).take();
  auto j = persist::Journal::open(persist_dir_, jcfg_);
  if (!j.ok()) return j.error();
  journal_ = std::move(j).take();
  engine_.attach_journal(journal_.get());
  return Status::success();
}

std::array<std::uint64_t, BlobServer::kLockStripes> BlobServer::stripe_acquisitions() const {
  std::array<std::uint64_t, kLockStripes> out{};
  for (std::size_t i = 0; i < kLockStripes; ++i) {
    out[i] = stripes_[i].acquisitions.load(std::memory_order_relaxed);
  }
  return out;
}

Status BlobServer::remove(const std::string& key, SimMicros* service_us) {
  OpPublisher pub(server_metrics().remove, service_us);
  KeyLock lk = lock_key(key);
  *service_us = svc_metadata();
  node_->cache().invalidate(fnv1a64(key));
  std::scoped_lock elk(engine_mu_);
  return engine_.remove(key);
}

Result<ReadOutcome> BlobServer::read(const std::string& key, std::uint64_t off,
                                     std::uint64_t len, SimMicros* service_us) {
  std::shared_lock lk(mu_);
  return read_locked(key, off, len, service_us);
}

SimMicros BlobServer::svc_read(const std::string& key, std::uint64_t obj_size,
                               std::uint64_t data_len, std::uint32_t extents_touched) {
  server_metrics().read_bytes.add(data_len);
  const SimMicros cpu = costs_.bytes_us(data_len);
  const bool cached = node_->cache().touch_read(fnv1a64(key), obj_size);
  if (cached || extents_touched == 0) {
    return cpu + 1;  // served from the page cache (or a pure hole): no disk access
  }
  // First extent pays the seek; subsequent extents are near-sequential in
  // the log and pay a short settle instead of a full stroke.
  const auto& disk = node_->disk();
  return cpu + disk.service_us(data_len, /*sequential=*/false) +
         static_cast<SimMicros>(extents_touched - 1) * (disk.params().rotational_us / 2);
}

void BlobServer::read_batch(const ReadSubOp* subs, std::size_t count,
                            ReadSubResult* results, SimMicros* service_us,
                            SimMicros* per_op_us) {
  auto& m = server_metrics();
  // One structure-lock acquisition and one fixed CPU charge for the whole
  // envelope; each sub-op then pays exactly what read()/stat() would have
  // charged for its own data (stat subs ride along for 1µs).
  std::shared_lock lk(mu_);
  SimMicros t = costs_.cpu_op_us;
  // Serves one sub, adding its cost to t; returns the series it counts
  // against (none for a failed read).
  auto serve = [&](const ReadSubOp& sub, ReadSubResult& res) -> const OpSeries* {
    res = {};
    if (sub.stat_only) {
      t += 1;
      std::scoped_lock elk(engine_mu_);
      auto s = engine_.meta(*sub.key);
      if (!s.ok()) {
        res.err = Errc::not_found;
        return &m.stat;
      }
      res.size = s.value().length;
      res.version = s.value().version;
      return &m.stat;
    }
    if (sub.digest_only) {
      // Answered from the extent index (span_probe folds the stored
      // per-extent checksums) — no payload bytes are read, so a quorum vote
      // costs what a stat does, and the reply carries only (version,
      // digest).
      t += 1;
      std::scoped_lock elk(engine_mu_);
      auto pr = engine_.span_probe(*sub.key, sub.off, sub.len);
      if (!pr.ok()) {
        res.err = pr.code();
        return nullptr;
      }
      res.version = pr.value().version;
      res.digest = pr.value().digest;
      res.data_len = pr.value().data_len;  // the payload bytes the vote avoided
      res.covered = pr.value().covered;
      return &m.stat;
    }
    std::uint64_t span_digest = 0;
    auto r = [&] {
      std::scoped_lock elk(engine_mu_);
      auto rr = engine_.read_into(*sub.key, sub.off, sub.dst);
      if (rr.ok() && sub.want_digest) {
        // Same extent-index fold the digest-only votes use, so both sides of
        // an arbitration compare digests with one definition.
        auto pr = engine_.span_probe(*sub.key, sub.off, sub.dst.size());
        if (pr.ok()) span_digest = pr.value().digest;
      }
      return rr;
    }();
    if (!r.ok()) {
      res.err = r.code();
      return nullptr;
    }
    const auto& out = r.value();
    res.data_len = out.data_len;
    res.covered = out.covered;
    res.version = out.version;
    res.digest = span_digest;
    t += svc_read(*sub.key, out.length, out.data_len, out.extents_touched);
    return &m.read;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const SimMicros sub_start = t;
    if (const OpSeries* series = serve(subs[i], results[i])) {
      publish(*series, costs_.cpu_op_us + (t - sub_start));
    }
    if (per_op_us) per_op_us[i] = t;
  }
  *service_us = t;
}

Result<BlobStat> BlobServer::stat(const std::string& key, SimMicros* service_us) {
  OpPublisher pub(server_metrics().stat, service_us);
  std::shared_lock lk(mu_);
  *service_us = costs_.cpu_op_us;
  std::scoped_lock elk(engine_mu_);
  auto s = engine_.meta(key);
  if (!s.ok()) return s.error();
  return BlobStat{key, s.value().length, s.value().version};
}

std::vector<BlobStat> BlobServer::scan(const std::string& prefix, SimMicros* service_us) {
  OpPublisher pub(server_metrics().scan, service_us);
  std::shared_lock lk(mu_);
  // The flat namespace has no directory index: scan walks every object
  // regardless of how selective the prefix is (§III: "far from optimized").
  std::scoped_lock elk(engine_mu_);
  *service_us = costs_.cpu_op_us +
                static_cast<SimMicros>(std::ceil(static_cast<double>(engine_.object_count()) *
                                                 costs_.scan_per_obj_us));
  return engine_.scan(prefix);
}

Status BlobServer::apply_txn_ops(const std::vector<TxnOp>& ops, SimMicros* service_us) {
  std::vector<OpRef> refs;
  refs.reserve(ops.size());
  for (const auto& op : ops) {
    refs.push_back(OpRef{op.kind, &op.key, op.offset, op.payload(), op.new_size,
                         op.checksum});
  }
  return apply_ops(refs.data(), refs.size(), service_us);
}

Status BlobServer::apply_ops(const OpRef* ops, std::size_t count, SimMicros* service_us,
                             SimMicros* per_op_us) {
  auto& m = server_metrics();
  OpPublisher pub(m.txn, service_us);
  // Every client mutation arrives here (single-op calls are one-op
  // envelopes). The envelope's call and service time count on server.txn.*;
  // each applied op also counts on its own server.<op>.* series, with the
  // service time it would have had as a one-op envelope (cpu_op_us plus its
  // own increment). The fixed request-handling CPU is charged once per
  // envelope — k batched sub-ops parse once, not k times.
  // Caller holds lock_exclusive() or a (Multi)KeyLock covering every op's
  // key; the engine itself is guarded by engine_mu_ (per op, so concurrent
  // readers of other keys interleave between ops, never inside one).
  SimMicros t = costs_.cpu_op_us;
  for (std::size_t i = 0; i < count; ++i) {
    const OpRef& op = ops[i];
    const OpSeries* series = nullptr;
    std::uint64_t obj_size = 0;
    Status st;
    {
      if (op.kind == TxnOp::Kind::remove) node_->cache().invalidate(fnv1a64(*op.key));
      std::scoped_lock elk(engine_mu_);
      switch (op.kind) {
        case TxnOp::Kind::write: {
          series = &m.write;
          auto r = engine_.write(*op.key, op.offset, op.data, true, op.checksum);
          st = status_of(r);
          if (r.ok()) obj_size = r.value().length;
          break;
        }
        case TxnOp::Kind::truncate:
          series = &m.truncate;
          st = status_of(engine_.truncate(*op.key, op.new_size));
          break;
        case TxnOp::Kind::create:
          series = &m.create;
          st = engine_.create(*op.key);
          break;
        case TxnOp::Kind::remove:
          series = &m.remove;
          st = engine_.remove(*op.key);
          break;
        case TxnOp::Kind::grow:
          series = &m.grow;
          st = status_of(engine_.grow(*op.key, op.new_size));
          break;
      }
    }
    if (!st.ok()) {
      *service_us = t;
      return st;
    }
    SimMicros op_us = svc_metadata();
    if (op.kind == TxnOp::Kind::write) {
      // Log-structured append: sequential disk write; write-through cache.
      m.write_bytes.add(op.data.size());
      op_us = costs_.bytes_us(op.data.size()) + node_->disk().service_us(op.data.size(), true);
      node_->cache().touch_write(fnv1a64(*op.key), obj_size);
    }
    t += op_us;
    publish(*series, costs_.cpu_op_us + op_us);
    if (per_op_us != nullptr) per_op_us[i] = t;
  }
  *service_us = t;
  return Status::success();
}

bool BlobServer::version_matches(const std::string& key, Version expected) {
  // Caller holds lock_exclusive() or a KeyLock on `key`.
  std::scoped_lock elk(engine_mu_);
  auto v = engine_.version(key);
  if (!v.ok()) return expected == 0;  // "must not exist"
  return v.value() == expected;
}

Result<std::uint64_t> BlobServer::peek_size(const std::string& key) {
  std::scoped_lock elk(engine_mu_);
  return engine_.size(key);
}

Result<Version> BlobServer::peek_version(const std::string& key) {
  std::scoped_lock elk(engine_mu_);
  return engine_.version(key);
}

Result<ObjectMeta> BlobServer::peek_meta(const std::string& key) {
  std::scoped_lock elk(engine_mu_);
  return engine_.meta(key);
}

Status BlobServer::force_version(const std::string& key, Version v) {
  std::scoped_lock elk(engine_mu_);
  return engine_.set_version(key, v);
}

Status BlobServer::install_copy(const std::string& key, ByteView data,
                                std::uint64_t logical_size, Version version,
                                SimMicros* service_us) {
  KeyLock lk = lock_key(key);
  return install_copy_locked(key, data, logical_size, version, service_us);
}

Status BlobServer::install_copy_locked(const std::string& key, ByteView data,
                                       std::uint64_t logical_size, Version version,
                                       SimMicros* service_us) {
  // Caller holds lock_exclusive() or a KeyLock on `key`.
  node_->cache().invalidate(fnv1a64(key));
  Status st = [&]() -> Status {
    std::scoped_lock elk(engine_mu_);
    if (engine_.contains(key)) {
      auto rm = engine_.remove(key);
      if (!rm.ok()) return rm;
    }
    auto w = engine_.write(key, 0, data, /*create_if_missing=*/true);
    if (!w.ok()) return w.error();
    if (logical_size != data.size()) {
      auto t = engine_.truncate(key, logical_size);
      if (!t.ok()) return t.error();
    }
    return engine_.set_version(key, version);
  }();
  SimMicros t = costs_.cpu_op_us + costs_.bytes_us(data.size());
  if (st.ok()) {
    t += node_->disk().service_us(data.size(), /*sequential=*/true);
    node_->cache().touch_write(fnv1a64(key), logical_size);  // the copy's length
  }
  *service_us = t;
  return st;
}

Result<ReadOutcome> BlobServer::read_locked(const std::string& key, std::uint64_t off,
                                            std::uint64_t len, SimMicros* service_us) {
  // Caller holds lock_exclusive(), a KeyLock on `key`, or (via read()) the
  // shared structure lock.
  OpPublisher pub(server_metrics().read, service_us);
  auto r = [&] {
    std::scoped_lock elk(engine_mu_);
    return engine_.read(key, off, len);
  }();
  SimMicros t = costs_.cpu_op_us;
  if (r.ok()) {
    t += svc_read(key, r.value().length, r.value().data.size(), r.value().extents_touched);
  }
  *service_us = t;
  return r;
}

bool BlobServer::add_hint(std::uint32_t target, const BlobKey& key) {
  std::scoped_lock lk(hints_mu_);
  auto& keys = hints_[target];
  for (const BlobKey& k : keys) {
    if (k == key) return false;  // dedup: one hint per (target, key) suffices
  }
  keys.push_back(key);
  return true;
}

std::vector<BlobKey> BlobServer::take_hints_for(std::uint32_t target) {
  std::scoped_lock lk(hints_mu_);
  auto it = hints_.find(target);
  if (it == hints_.end()) return {};
  std::vector<BlobKey> out = std::move(it->second);
  hints_.erase(it);
  return out;
}

std::uint64_t BlobServer::hint_count() const {
  std::scoped_lock lk(hints_mu_);
  std::uint64_t n = 0;
  for (const auto& [target, keys] : hints_) n += keys.size();
  return n;
}

std::uint64_t BlobServer::object_count() {
  std::shared_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  return engine_.object_count();
}

std::uint64_t BlobServer::live_bytes() {
  std::shared_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  return engine_.live_bytes();
}

std::uint64_t BlobServer::dead_bytes() {
  std::shared_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  return engine_.dead_bytes();
}

std::uint64_t BlobServer::compact(SimMicros* service_us) {
  std::unique_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  const std::uint64_t live = engine_.live_bytes();
  const std::uint64_t reclaimed = engine_.compact();
  // Compaction reads and rewrites every live byte sequentially.
  *service_us = node_->disk().service_us(live, true) * 2;
  return reclaimed;
}

Status BlobServer::verify_integrity() {
  std::shared_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  return engine_.verify_integrity();
}

Status BlobServer::verify_key(const std::string& key) {
  std::shared_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  return engine_.verify_object(key);
}

bool BlobServer::corrupt_for_testing(const std::string& key) {
  std::unique_lock lk(mu_);
  std::scoped_lock elk(engine_mu_);
  return engine_.corrupt_for_testing(key);
}

}  // namespace bsc::blob
