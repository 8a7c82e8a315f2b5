#include "blob/client.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "common/hash.hpp"
#include "rpc/envelope.hpp"
#include "rpc/wire.hpp"
#include "trace/taxonomy.hpp"

namespace bsc::blob {

namespace {
using rpc::kBlobEnvelope;
using rpc::kProbeReply;
using rpc::kProbeRequest;

std::uint64_t req_bytes(std::string_view key, std::uint64_t payload = 0) {
  return kBlobEnvelope + key.size() + payload;
}

/// Exact wire bytes of one batch sub-op header (payload excluded). Coalesced
/// runs of consecutive chunks share a single header (`span` chunks, one key);
/// the payload itself is charged once per envelope at the largest-chunk
/// rate: chunk payloads are modelled as parallel streams.
std::uint64_t batch_header_bytes(std::string_view first_key, rpc::BatchOpKind kind,
                                 std::uint32_t span) {
  rpc::BatchOp op;
  op.kind = kind;
  op.key.assign(first_key);
  op.span = span;
  return rpc::wire_size(op);
}

/// Wire bytes of one per-sub status in a batch reply (payload excluded).
std::uint64_t batch_substatus_bytes() { return rpc::wire_size(rpc::BatchSubStatus{}); }

/// Registry-only series of one client primitive (its call count is the
/// primitive's ClientCounters event). The category counter is the paper's
/// §IV taxonomy roll-up, reached through the closest POSIX OpKind:
/// create→open, remove→unlink, size/stat→stat, scan→readdir, txn→sync
/// (read/write/truncate map to themselves).
struct PrimSeries {
  std::string label;  ///< slow-op op name, e.g. "client.read"
  obs::Counter& category;
  obs::ShardedHistogram& latency_us;
};

PrimSeries make_series(const char* prim, trace::OpKind kind) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string base = std::string{"client."} + prim;
  return PrimSeries{base,
                    reg.counter(std::string{"client.category."} +
                                std::string{trace::to_string(trace::classify(kind))}),
                    reg.histogram(base + ".latency_us")};
}

/// All client series, resolved once per process (registry references are
/// stable for the process lifetime): the event series of kClientEventSeries
/// plus the series no per-client event counts.
struct ClientMetrics {
  ClientMetrics() {
    auto& reg = obs::MetricsRegistry::global();
    for (std::size_t i = 0; i < std::size(kClientEventSeries); ++i) {
      const ClientEventSeries& e = kClientEventSeries[i];
      if (e.sink == ClientEventSink::counter) {
        event_counters[i] = &reg.counter(e.series);
      } else {
        event_histograms[i] = &reg.histogram(e.series);
      }
    }
  }

  obs::Counter* event_counters[std::size(kClientEventSeries)] = {};
  obs::ShardedHistogram* event_histograms[std::size(kClientEventSeries)] = {};
  PrimSeries create = make_series("create", trace::OpKind::open);
  PrimSeries remove = make_series("remove", trace::OpKind::unlink);
  PrimSeries read = make_series("read", trace::OpKind::read);
  PrimSeries write = make_series("write", trace::OpKind::write);
  PrimSeries truncate = make_series("truncate", trace::OpKind::truncate);
  PrimSeries size = make_series("size", trace::OpKind::stat);
  PrimSeries stat = make_series("stat", trace::OpKind::stat);
  PrimSeries scan = make_series("scan", trace::OpKind::readdir);
  PrimSeries txn = make_series("txn", trace::OpKind::sync);
  /// Bytes a read returns, holes included (bytes_read + read_hole_bytes).
  obs::ShardedHistogram& read_bytes =
      obs::MetricsRegistry::global().histogram("client.read.bytes");
  obs::ShardedHistogram& batch_size =
      obs::MetricsRegistry::global().histogram("client.batch.size");
  obs::Gauge& breaker_open_nodes =
      obs::MetricsRegistry::global().gauge("client.breaker.open_nodes");
};

ClientMetrics& client_metrics() {
  static ClientMetrics m;
  return m;
}

}  // namespace

/// Installs the call's deadline budget (see the declaration) and, on every
/// return path, publishes the call: the primitive's call event, the
/// category counter, the simulated-latency histogram (the agent-clock delta
/// this call cost, scatter-gather legs included), and slow-op admission.
class BlobClient::PrimCall {
 public:
  PrimCall(BlobClient& c, ClientEvent& calls, const PrimSeries& s, std::string_view key)
      : c_(c), calls_(calls), s_(s), key_(key), start_(c.agent_ ? c.agent_->now() : 0) {
    const SimMicros budget = c.store_->config().deadline.op_deadline_us;
    if (budget > 0 && c.op_deadline_at_ == 0) {
      c.op_deadline_at_ = start_ + budget;
      installed_ = true;
    }
  }
  PrimCall(const PrimCall&) = delete;
  PrimCall& operator=(const PrimCall&) = delete;
  ~PrimCall() {
    if (installed_) c_.op_deadline_at_ = 0;
    const SimMicros end = c_.agent_ ? c_.agent_->now() : start_;
    const auto latency = static_cast<std::uint64_t>(end - start_);
    calls_.inc();
    s_.category.inc();
    s_.latency_us.add(latency);
    obs::MetricsRegistry::global().slow_ops().observe(s_.label, key_, latency,
                                                      static_cast<std::uint64_t>(end));
  }

 private:
  BlobClient& c_;
  ClientEvent& calls_;
  const PrimSeries& s_;
  std::string_view key_;  // outlived by the caller's key argument
  SimMicros start_;
  bool installed_ = false;
};

ClientCounters::ClientCounters() {
  const ClientMetrics& m = client_metrics();
  for (std::size_t i = 0; i < std::size(kClientEventSeries); ++i) {
    ClientEvent& e = this->*kClientEventSeries[i].field;
    e.counter_ = m.event_counters[i];
    e.histogram_ = m.event_histograms[i];
  }
}

SimMicros BlobClient::next_backoff(SimMicros* prev) {
  const RetryPolicy& rp = store_->config().retry;
  const SimMicros lo = rp.backoff_base_us;
  const SimMicros hi = std::max(lo, *prev * 3);
  SimMicros sleep = lo >= hi ? lo
                             : static_cast<SimMicros>(rng_.next_in(
                                   static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  if (rp.backoff_cap_us > 0) sleep = std::min(sleep, rp.backoff_cap_us);
  *prev = sleep;
  return sleep;
}

// --- overload resilience helpers -------------------------------------------

SimMicros BlobClient::attempt_deadline_at(SimMicros t) const noexcept {
  const SimMicros policy = store_->config().retry.attempt_deadline_us;
  if (op_deadline_at_ == 0) return policy;
  const SimMicros remaining =
      op_deadline_at_ > t ? op_deadline_at_ - t : 1;
  if (policy == 0 || remaining < policy) {
    return std::max<SimMicros>(1, remaining);
  }
  return policy;
}

BlobClient::~BlobClient() { give_back_open_breakers(); }

void BlobClient::start_call(sim::SimAgent* agent) {
  // No lock: between calls the fan-out pool is idle, and its last
  // parallel_for already handed every write back to this thread.
  agent_ = agent;
  give_back_open_breakers();
  for (auto& entry : health_) entry.second = NodeHealth{};
  fleet_ewma_us_ = 0.0;
  fleet_samples_ = 0;
  retry_tokens_ = -1.0;
  rng_ = Rng{kBackoffSeed};
  if (!meta_cache_.empty()) meta_cache_.clear();
  if (const std::uint64_t epoch = store_->ring_epoch(); epoch != place_epoch_) {
    place_cache_.clear();
    place_epoch_ = epoch;
  }
}

void BlobClient::give_back_open_breakers() const {
  std::int64_t open = 0;
  for (const auto& entry : health_) {
    if (entry.second.state != NodeHealth::Breaker::closed) ++open;
  }
  if (open > 0) client_metrics().breaker_open_nodes.add(-open);
}

void BlobClient::health_on_success(std::uint32_t node, SimMicros latency_us) {
  if (!store_->config().breaker.enabled) return;
  std::lock_guard<std::mutex> lk(health_mu_);
  health_on_success_locked(node, latency_us);
}

void BlobClient::health_on_success_locked(std::uint32_t node, SimMicros latency_us) {
  const BreakerPolicy& bp = store_->config().breaker;
  NodeHealth& h = health_[node];
  h.consecutive_failures = 0;
  if (latency_us > 0) {  // 0 = delivery confirmation only, no latency sample
    h.ewma_latency_us = h.samples == 0
                            ? static_cast<double>(latency_us)
                            : bp.ewma_alpha * static_cast<double>(latency_us) +
                                  (1.0 - bp.ewma_alpha) * h.ewma_latency_us;
    ++h.samples;
    fleet_ewma_us_ = fleet_samples_ == 0
                         ? static_cast<double>(latency_us)
                         : bp.ewma_alpha * static_cast<double>(latency_us) +
                               (1.0 - bp.ewma_alpha) * fleet_ewma_us_;
    ++fleet_samples_;
  }
  if (h.state == NodeHealth::Breaker::half_open) {
    if (++h.half_open_successes >= bp.half_open_probes) {
      h.state = NodeHealth::Breaker::closed;
      h.half_open_successes = 0;
      counters_.breaker_closes.inc();
      client_metrics().breaker_open_nodes.add(-1);
    }
  }
}

void BlobClient::health_on_failure_locked(std::uint32_t node, SimMicros now) {
  const BreakerPolicy& bp = store_->config().breaker;
  NodeHealth& h = health_[node];
  ++h.consecutive_failures;
  if (h.state == NodeHealth::Breaker::half_open ||
      (h.state == NodeHealth::Breaker::closed &&
       h.consecutive_failures >= bp.failure_threshold)) {
    if (h.state == NodeHealth::Breaker::closed) {
      client_metrics().breaker_open_nodes.add(1);
    }
    h.state = NodeHealth::Breaker::open;
    h.opened_at = now;
    h.half_open_successes = 0;
    counters_.breaker_opens.inc();
  }
}

void BlobClient::earn_retry_token_locked() {
  const DeadlinePolicy& dp = store_->config().deadline;
  if (retry_tokens_ < 0.0) retry_tokens_ = dp.retry_token_cap;  // initial fill
  retry_tokens_ = std::min(dp.retry_token_cap, retry_tokens_ + dp.retry_token_ratio);
}

bool BlobClient::settle_attempt(std::uint32_t node, bool delivered, SimMicros failed_at,
                                bool refill, bool take_token) {
  const bool breaker_on = store_->config().breaker.enabled;
  if (!breaker_on && !refill && !take_token) return true;
  std::lock_guard<std::mutex> lk(health_mu_);
  if (refill) earn_retry_token_locked();
  if (breaker_on) {
    if (delivered) {
      health_on_success_locked(node, 0);  // latency EWMA is fed at leg completion
    } else {
      health_on_failure_locked(node, failed_at);
    }
  }
  if (!take_token) return true;
  if (retry_tokens_ < 1.0) return false;
  retry_tokens_ -= 1.0;
  return true;
}

bool BlobClient::breaker_allows(std::uint32_t node, SimMicros now) {
  if (!store_->config().breaker.enabled) return true;
  const BreakerPolicy& bp = store_->config().breaker;
  std::lock_guard<std::mutex> lk(health_mu_);
  auto it = health_.find(node);
  if (it == health_.end()) return true;
  NodeHealth& h = it->second;
  switch (h.state) {
    case NodeHealth::Breaker::closed:
      return true;
    case NodeHealth::Breaker::open:
      if (now >= h.opened_at + bp.open_cooldown_us) {
        h.state = NodeHealth::Breaker::half_open;
        h.half_open_successes = 0;
        counters_.breaker_probes.inc();
        return true;  // this caller is the first probe
      }
      return false;
    case NodeHealth::Breaker::half_open:
      counters_.breaker_probes.inc();
      return true;  // half-open admits single probes
  }
  return true;
}

bool BlobClient::is_suspect_locked(std::uint32_t node) const {
  const BreakerPolicy& bp = store_->config().breaker;
  auto it = health_.find(node);
  if (it == health_.end()) return false;
  const NodeHealth& h = it->second;
  if (h.state != NodeHealth::Breaker::closed) return true;
  return h.samples >= bp.suspect_min_samples && fleet_samples_ > 0 &&
         h.ewma_latency_us > bp.suspect_latency_factor * fleet_ewma_us_;
}

void BlobClient::demote_suspects(std::vector<std::uint32_t>& candidates) {
  if (!store_->config().breaker.enabled || candidates.size() < 2) return;
  // Candidates are server indices; health is keyed by SimNode id.
  std::lock_guard<std::mutex> lk(health_mu_);
  const auto suspect_idx = [this](std::uint32_t server_index) {
    return is_suspect_locked(store_->server(server_index).node().id());
  };
  const auto first_suspect =
      std::find_if(candidates.begin(), candidates.end(), suspect_idx);
  if (first_suspect == candidates.end()) return;
  std::stable_partition(
      candidates.begin(), candidates.end(),
      [&suspect_idx](std::uint32_t n) { return !suspect_idx(n); });
  counters_.breaker_demotions.inc();
}

BlobClient::LegDelivery BlobClient::try_deliver(BlobServer& srv, SimMicros start,
                                                std::uint64_t request_bytes,
                                                std::uint32_t batch_subs) {
  const RetryPolicy& rp = store_->config().retry;
  const DeadlinePolicy& dp = store_->config().deadline;
  const std::uint32_t attempts = std::max<std::uint32_t>(1, rp.max_attempts);
  const std::uint32_t node = srv.node().id();
  SimMicros t = start;
  SimMicros prev = rp.backoff_base_us;
  LegDelivery out;
  // Each fresh leg earns retry tokens; each retry below spends one. The
  // bucket is client-wide, so a correlated failure drains it and retries
  // stop fleet-wide instead of amplifying the overload. Batched legs run
  // try_deliver on pool threads, so the bucket is updated under health_mu_,
  // in the same round that records an attempt's outcome (settle_attempt).
  const bool bucket_on = dp.retry_token_cap > 0.0;
  bool refill = bucket_on;  // this leg's earned token, not yet added
  for (std::uint32_t a = 0; a < attempts; ++a) {
    if (a > 0) {
      t += next_backoff(&prev);
      counters_.retries.inc();
    }
    // End-to-end budget: stop before sending an attempt the op can no
    // longer afford (spent budget means the caller already missed its
    // deadline — more attempts are pure retry amplification).
    if (op_deadline_at_ > 0 && t >= op_deadline_at_) {
      out.err = Errc::deadline_exceeded;
      counters_.deadline_exceeded.inc();
      break;
    }
    const SimMicros attempt_deadline = attempt_deadline_at(t);
    if (attempt_deadline < rp.attempt_deadline_us) counters_.deadline_clamped.inc();
    const LegDelivery p = store_->transport().plan_attempt(srv.node(), t, request_bytes,
                                                           attempt_deadline, batch_subs);
    if (p.delivered) {
      settle_attempt(node, true, 0, refill, false);
      return p;
    }
    if (p.err == Errc::overloaded) counters_.sheds_observed.inc();
    const bool want_token = bucket_on && a + 1 < attempts;
    const bool token = settle_attempt(node, false, p.failed_at, refill, want_token);
    refill = false;
    t = p.failed_at;
    out.err = p.err;
    if (!token) {
      counters_.retries_suppressed.inc();
      break;
    }
  }
  if (refill) {  // the op's budget ran out before the first attempt
    std::lock_guard<std::mutex> lk(health_mu_);
    earn_retry_token_locked();
  }
  out.failed_at = t;
  return out;
}

Status BlobClient::mutation_leg(const std::string& ekey,
                                const std::vector<BlobServer::TxnOp>& ops,
                                SimMicros start, SimMicros* completion,
                                LegInfo* info) {
  *completion = start;

  // Placement loop: resolve (possibly from the placement cache), lock, then
  // re-resolve under the held stripes. The rebalancer flips a key's
  // migration state under those same stripes, so a placement that re-reads
  // identically is stable for the rest of the leg; a mismatch means the
  // cached entry went stale (membership moved) — flush it, pay one refresh
  // round trip, and retry against the authoritative placement. With no
  // window open and the ring at the placement's epoch there is nothing to
  // re-read (BlobStore::placement_current). The final pass proceeds on
  // whatever it locked: finalize()'s verify sweep repairs any drift a
  // pathological race could leave behind.
  KeyLeg k;
  k.ekey = &ekey;
  Placement& p = k.place;
  std::vector<BlobServer::KeyLock> locks;
  for (int pass = 0;; ++pass) {
    p = pass == 0 ? locate(ekey) : store_->placement_of(ekey);
    if (p.replicas.empty()) return {Errc::no_space, "no storage nodes in ring"};

    // Per-key striped locks on every replica AND dual-write target of this
    // key, acquired in ascending node order (the same global order the
    // transaction path and the rebalancer use — no deadlock). Racing
    // writers to one key serialize on its stripe and apply in the same
    // order on every replica; writers to distinct keys proceed in parallel.
    std::vector<std::uint32_t> sorted = p.replicas;
    sorted.insert(sorted.end(), p.pending.begin(), p.pending.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    locks.clear();
    locks.reserve(sorted.size());
    for (std::uint32_t n : sorted) locks.push_back(store_->server(n).lock_key(ekey));

    if (store_->placement_current(p)) break;
    const Placement fresh = store_->placement_of(ekey);
    if (fresh.replicas == p.replicas && fresh.pending == p.pending) break;
    flush_stale_placement(ekey, pass < 2);
    if (pass >= 2) break;
    start += store_->transport().round_trip_us(kProbeRequest);
  }
  const std::vector<std::uint32_t>& replicas = p.replicas;
  read_metas(k);

  // Applicability check against the acting primary's current state, so the
  // apply below cannot fail on one replica and succeed on another. Ops in a
  // leg are validated sequentially (later ops see earlier ops' effects).
  const auto acting = store_->first_up(replicas);
  if (!acting) return {Errc::unavailable, "all replicas down: " + ekey};
  BlobServer& primary = store_->server(*acting);
  bool exists = k.meta_on(*acting).version != 0;
  if (info != nullptr) {
    // The pre-leg size rides on the metas read under the lock round — the
    // striped paths use it for chunk layout instead of a separate stat
    // round. In quorum mode the freshest live replica is authoritative (a
    // stale primary may have missed acked writes).
    info->pre_size = 0;
    if (exists) {
      if (store_->config().write_quorum == 0) {
        info->pre_size = k.meta_on(*acting).length;
      } else if (const auto best = freshest_of(k)) {
        info->pre_size = k.metas[*best].length;
      }
    }
  }
  Status precheck = Status::success();
  std::uint64_t payload = 0;
  for (const auto& op : ops) {
    payload += op.payload().size();
    switch (op.kind) {
      case BlobServer::TxnOp::Kind::create:
        if (exists) precheck = {Errc::already_exists, op.key};
        exists = true;
        break;
      case BlobServer::TxnOp::Kind::remove:
        if (!exists) precheck = {Errc::not_found, op.key};
        exists = false;
        break;
      case BlobServer::TxnOp::Kind::truncate:
      case BlobServer::TxnOp::Kind::grow:
        if (!exists) precheck = {Errc::not_found, op.key};
        break;
      case BlobServer::TxnOp::Kind::write:
        exists = true;  // RADOS-style implicit create
        break;
    }
    if (!precheck.ok()) break;
  }
  k.ends_removed = !exists;

  const rpc::Transport& tp = store_->transport();
  const std::uint64_t req = req_bytes(ekey, payload);

  if (!precheck.ok()) {
    // Pay the failed round-trip to the primary (the rejection itself is a
    // tiny, delivered reply — a faulted leg would surface below anyway).
    *completion = tp.leg(primary.node(), start, req, kBlobEnvelope, 3).completion;
    return precheck;
  }

  plan_versions(*acting, ops.size(), k);
  if (info != nullptr) info->new_version = k.new_version;
  std::vector<BlobServer::OpRef> refs;
  refs.reserve(ops.size());
  for (const auto& op : ops) {
    refs.push_back({op.kind, &op.key, op.offset, op.payload(), op.new_size, op.checksum});
  }

  // Coordinator leg: the acting primary must ack, with retries. Nothing has
  // been applied anywhere if this fails — the mutation is atomically absent.
  LegDelivery prim = try_deliver(primary, start, req);
  if (!prim.delivered) {
    *completion = prim.failed_at;
    return {prim.err, "primary unreachable: " + ekey};
  }
  SimMicros svc0 = 0;
  Status st = primary.apply_ops(refs.data(), refs.size(), &svc0);
  if (st.ok()) k.lift(primary);
  const rpc::CallCost pc = tp.leg(primary.node(), prim, req, kBlobEnvelope, svc0);
  const SimMicros prim_done = pc.served;
  SimMicros done = pc.completion;
  if (!st.ok()) {
    *completion = done;
    return st;
  }

  // Forward to the remaining replicas in parallel (pipelined off the
  // primary's apply). Down, stale, or unreachable replicas are misses.
  Errc miss_err = Errc::unavailable;
  for (std::uint32_t rid : replicas) {
    if (rid == *acting) continue;
    if (store_->is_down(rid)) {
      k.missed.push_back(rid);
      continue;
    }
    BlobServer& rep = store_->server(rid);
    if (k.meta_on(rid).version != k.pre_version) {
      // Behind (missed earlier ops): applying would interleave histories.
      k.missed.push_back(rid);
      continue;
    }
    if (store_->config().write_quorum > 0 &&
        !breaker_allows(store_->server(rid).node().id(), prim_done)) {
      // Open breaker on a quorum-mode forward: convert straight to a hint
      // (recorded with the other misses in settle_replicas) instead of
      // burning the retry/timeout ladder against a replica already known to
      // be failing. Classic mode (W=0) keeps trying — there every live
      // replica must ack and there is no hint repair path to absorb the miss.
      k.missed.push_back(rid);
      counters_.breaker_fast_hints.inc();
      continue;
    }
    LegDelivery d = try_deliver(rep, prim_done, req);
    if (!d.delivered) {
      k.missed.push_back(rid);
      miss_err = d.err;
      done = std::max(done, d.failed_at);
      continue;
    }
    SimMicros svc = 0;
    Status rs = rep.apply_ops(refs.data(), refs.size(), &svc);
    if (!rs.ok()) {
      st = {Errc::io_error, "replica divergence: " + rs.message()};
      break;
    }
    k.lift(rep);
    ++k.acks;
    done = std::max(done, tp.leg(rep.node(), d, req, kBlobEnvelope, svc).completion);
  }
  if (!st.ok()) {
    *completion = done;
    return st;
  }

  mirror_pending(primary, k, refs.data(), refs.size(), req, prim_done, &done);
  *completion = done;
  KeyLeg* const settled[] = {&k};
  return settle_replicas(primary, settled, miss_err);
}

const ObjectMeta& BlobClient::KeyLeg::meta_on(std::uint32_t node) const {
  static const ObjectMeta absent;
  const std::size_t nr = place.replicas.size();
  for (std::size_t i = 0; i < nr; ++i) {
    if (place.replicas[i] == node) return metas[i];
  }
  for (std::size_t i = 0; i < place.pending.size(); ++i) {
    if (place.pending[i] == node) return metas[nr + i];
  }
  return absent;
}

void BlobClient::read_metas(KeyLeg& k) {
  k.metas.clear();
  k.metas.reserve(k.place.replicas.size() + k.place.pending.size());
  for (const auto* nodes : {&k.place.replicas, &k.place.pending}) {
    for (std::uint32_t n : *nodes) {
      k.metas.push_back(store_->server(n).peek_meta(*k.ekey).value_or(ObjectMeta{}));
    }
  }
}

std::optional<std::size_t> BlobClient::freshest_of(const KeyLeg& k) const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < k.place.replicas.size(); ++i) {
    const Version v = k.metas[i].version;
    if (v == 0 || store_->is_down(k.place.replicas[i])) continue;
    if (!best || v > k.metas[*best].version) best = i;
  }
  return best;
}

void BlobClient::plan_versions(std::uint32_t acting, std::uint64_t nops, KeyLeg& k) {
  k.pre_version = k.meta_on(acting).version;
  const auto best = freshest_of(k);
  const Version base = std::max(k.pre_version, best ? k.metas[*best].version : 0);
  k.new_version = base + nops;
  k.continue_versions = base > k.pre_version;
}

void BlobClient::mirror_pending(BlobServer& primary, const KeyLeg& k,
                                const BlobServer::OpRef* ops, std::size_t count,
                                std::uint64_t req, SimMicros launch, SimMicros* done) {
  const rpc::Transport& tp = store_->transport();
  for (std::uint32_t tid : k.place.pending) {
    if (store_->is_down(tid)) {
      if (primary.add_hint(tid, *k.ekey)) counters_.hints_written.inc();
      continue;
    }
    BlobServer& tgt = store_->server(tid);
    if (k.meta_on(tid).version != k.pre_version) continue;  // copy not landed yet
    LegDelivery dd = try_deliver(tgt, launch, req);
    if (!dd.delivered) {
      if (primary.add_hint(tid, *k.ekey)) counters_.hints_written.inc();
      *done = std::max(*done, dd.failed_at);
      continue;
    }
    SimMicros dsvc = 0;
    if (!tgt.apply_ops(ops, count, &dsvc).ok()) continue;
    k.lift(tgt);
    counters_.dual_writes.inc();
    if (k.place.windows >= 2) counters_.chain_dual_writes.inc();
    *done = std::max(*done, tp.leg(tgt.node(), dd, req, kBlobEnvelope, dsvc).completion);
  }
}

Status BlobClient::settle_replicas(BlobServer& primary, std::span<KeyLeg* const> keys,
                                   Errc miss_err) {
  // Every op is now applied at the primary regardless of the quorum
  // outcome; in quorum mode, hint every miss of every key — before any key
  // is judged — so the repair path knows exactly what to fix. Classic mode
  // (W=0) keeps its original contract: the full digest resync repairs a
  // recovered replica, no hints involved.
  const std::uint32_t W = store_->config().write_quorum;
  if (W > 0) {
    for (const KeyLeg* k : keys) {
      for (std::uint32_t rid : k->missed) {
        if (primary.add_hint(rid, *k->ekey)) counters_.hints_written.inc();
      }
    }
  }

  // Quorum evaluation. W=0 — classic all-live-replicas semantics. W>0 —
  // W acks suffice, except for keys the ops leave removed: a removal must
  // reach every live replica, or a stale copy could win version
  // arbitration against "absent" (there are no tombstones).
  for (const KeyLeg* k : keys) {
    bool quorum_met;
    if (W == 0 || k->ends_removed) {
      quorum_met = true;
      for (std::uint32_t rid : k->missed) {
        if (!store_->is_down(rid)) quorum_met = false;
      }
    } else {
      quorum_met = k->acks >= std::min<std::uint32_t>(
                                  W, static_cast<std::uint32_t>(k->place.replicas.size()));
    }
    if (!quorum_met) return {miss_err, "insufficient acks: " + *k->ekey};
    if (!k->missed.empty()) counters_.quorum_degraded_writes.inc();
  }
  return Status::success();
}

Status BlobClient::replicated_mutation(const std::vector<BlobServer::TxnOp>& ops) {
  const SimMicros start = agent_ ? agent_->now() : 0;
  SimMicros completion = start;
  Status st = mutation_leg(ops.front().key, ops, start, &completion);
  if (agent_) agent_->advance_to(completion);
  return st;
}

// ----------------------------------------------- batched striping ------

namespace {
/// Blunt cap shared by the metadata and placement caches: entries are tiny
/// and verified on use, so a full reset costs one extra round per key, not
/// correctness.
template <class Map>
void put_capped(Map& cache, const std::string& key, typename Map::mapped_type v,
                std::size_t cap) {
  if (cache.size() >= cap && cache.find(key) == cache.end()) cache.clear();
  cache[key] = std::move(v);
}
}  // namespace

void BlobClient::cache_put(const std::string& key, MetaEntry e) {
  put_capped(meta_cache_, key, e, kMetaCacheCap);
}

void BlobClient::cache_erase(std::string_view key) {
  if (meta_cache_.empty()) return;  // the common case builds no key string
  if (meta_cache_.erase(std::string{key}) > 0) counters_.metacache_invalidations.inc();
}

Placement BlobClient::locate(const std::string& ekey) {
  if (const auto it = place_cache_.find(ekey); it != place_cache_.end()) {
    return it->second;
  }
  Placement p = store_->placement_of(ekey);
  // Only window-free placements are cacheable: a cached entry never carries
  // dual-write targets, and the stamp check catches it going stale.
  if (p.pending.empty()) put_capped(place_cache_, ekey, p, kMetaCacheCap);
  return p;
}

void BlobClient::flush_stale_placement(const std::string& ekey, bool retry) {
  place_cache_.erase(ekey);
  counters_.epoch_refreshes.inc();
  if (retry) counters_.stale_epoch_retries.inc();
}

void BlobClient::fan_out(std::size_t n, const std::function<void(std::size_t)>& fn) {
  // Wall-clock fan-out across groups. Simulated time is max-of-legs either
  // way (every group forks from the same instant), so parallel and
  // sequential execution yield identical simulated traces; with a fault
  // injector installed, the sequential order keeps verdict draws
  // deterministic. glibc answers hardware_concurrency() by reading
  // /sys/devices/system/cpu/online, so it is asked once per process.
  static const std::size_t hw = std::thread::hardware_concurrency();
  if (n < 2 || store_->transport().fault_injector() != nullptr || hw < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (!pool_) pool_ = std::make_unique<ThreadPool>(std::min<std::size_t>(8, hw));
  pool_->parallel_for(n, fn);
}

namespace {
rpc::BatchOpKind to_wire_kind(BlobServer::TxnOp::Kind k) {
  switch (k) {
    case BlobServer::TxnOp::Kind::write: return rpc::BatchOpKind::write;
    case BlobServer::TxnOp::Kind::truncate: return rpc::BatchOpKind::truncate;
    case BlobServer::TxnOp::Kind::create: return rpc::BatchOpKind::create;
    case BlobServer::TxnOp::Kind::remove: return rpc::BatchOpKind::remove;
    case BlobServer::TxnOp::Kind::grow: return rpc::BatchOpKind::grow;
  }
  return rpc::BatchOpKind::write;
}
}  // namespace

Status BlobClient::mutation_group_leg(std::vector<BatchSub*>& subs,
                                      std::uint32_t primary_id, SimMicros start,
                                      SimMicros* completion) {
  *completion = start;
  const rpc::Transport& tp = store_->transport();
  BlobServer& primary = store_->server(primary_id);

  // Hash each write payload's sender checksum here, on the thread that
  // carries this group, so the groups of a striped write hash in parallel.
  for (BatchSub* sub : subs) {
    if (sub->op.kind == BlobServer::TxnOp::Kind::write && sub->op.checksum == 0) {
      sub->op.checksum = content_checksum(sub->op.data);
    }
  }

  std::vector<KeyLeg> st(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) st[i].ekey = &subs[i]->ekey;

  // One MultiKeyLock per involved node (ascending id), covering every group
  // key replicated OR dual-targeted there: the same lexicographic
  // (node, stripe) global order as mutation_leg's lock_key rounds and
  // transaction commits, so the three paths cannot deadlock — this is the
  // "single striped-lock acquisition round". Placements that may have moved
  // (BlobStore::placement_current) are re-resolved under the held stripes
  // (the rebalancer flips migration state under the same stripes), retrying
  // the round when a cutover moved a key in between.
  std::map<std::uint32_t, std::vector<std::string_view>> node_keys;
  std::vector<BlobServer::MultiKeyLock> locks;
  for (int pass = 0;; ++pass) {
    node_keys.clear();
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const Placement& p = st[i].place = store_->placement_of(subs[i]->ekey);
      if (p.replicas.empty()) return {Errc::no_space, "no storage nodes in ring"};
      for (std::uint32_t n : p.replicas) node_keys[n].push_back(subs[i]->ekey);
      for (std::uint32_t n : p.pending) node_keys[n].push_back(subs[i]->ekey);
    }
    locks.clear();
    locks.reserve(node_keys.size());
    for (auto& [n, keys] : node_keys) locks.push_back(store_->server(n).lock_keys(keys));
    bool stable = true;
    for (std::size_t i = 0; i < subs.size() && stable; ++i) {
      const Placement& held = st[i].place;
      if (store_->placement_current(held)) continue;
      const Placement p = store_->placement_of(subs[i]->ekey);
      stable = p.replicas == held.replicas && p.pending == held.pending;
    }
    if (stable || pass >= 2) break;
    counters_.stale_epoch_retries.inc();
  }

  // The wave grouped these subs under `primary_id` from pre-lock placements;
  // if a cutover moved a sub off this primary in between, the caller must
  // re-group — applying through a non-owner could strand an acked write on
  // servers about to drop it.
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const auto& replicas = st[i].place.replicas;
    if (std::find(replicas.begin(), replicas.end(), primary_id) == replicas.end()) {
      return {Errc::busy, "placement moved during batch: " + subs[i]->ekey};
    }
  }

  // Prechecks + one version exchange per key, all under the held locks.
  // Wave-2 writes create chunk keys on demand (the application-visible blob
  // already exists); absent targets of tolerated truncate/remove subs are
  // holes — skipped, not errors.
  std::vector<std::size_t> run_idx;
  run_idx.reserve(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) {
    BatchSub& sub = *subs[i];
    read_metas(st[i]);
    const bool exists = st[i].meta_on(primary_id).version != 0;
    if (!exists && sub.op.kind != BlobServer::TxnOp::Kind::write) {
      if (sub.tolerate_not_found) continue;
      // Pay one failed round trip, as mutation_leg's precheck does.
      *completion =
          tp.leg(primary.node(), start, req_bytes(sub.ekey), kBlobEnvelope, 3).completion;
      return {Errc::not_found, sub.ekey};
    }
    st[i].ends_removed = sub.op.kind == BlobServer::TxnOp::Kind::remove;
    plan_versions(primary_id, 1, st[i]);
    run_idx.push_back(i);
  }
  if (run_idx.empty()) return Status::success();  // all holes: nothing to send

  // Envelope sizing: one header per coalesced run of consecutive same-kind
  // chunks. Chunk payloads stream in parallel, as independent single-chunk
  // legs would — a vectored run is scattered at the NIC, so it is charged
  // at the largest single chunk, not the run's sum; what coalescing saves
  // is header bytes and per-sub fixed costs.
  std::uint64_t req_meta = kBlobEnvelope;
  std::uint64_t max_payload = 0;
  {
    std::size_t r = 0;
    while (r < run_idx.size()) {
      const BatchSub& first = *subs[run_idx[r]];
      std::size_t e = r + 1;
      std::uint64_t run_max = first.op.data.size();
      while (e < run_idx.size() &&
             subs[run_idx[e]]->op.kind == first.op.kind &&
             subs[run_idx[e]]->chunk == subs[run_idx[e - 1]]->chunk + 1) {
        run_max = std::max<std::uint64_t>(run_max, subs[run_idx[e]]->op.data.size());
        ++e;
      }
      const auto span = static_cast<std::uint32_t>(e - r);
      req_meta += batch_header_bytes(first.ekey, to_wire_kind(first.op.kind), span);
      if (span >= 2) counters_.coalesced_ops.inc();
      max_payload = std::max(max_payload, run_max);
      r = e;
    }
  }
  const std::uint64_t req = req_meta + max_payload;
  const std::uint64_t reply_meta =
      kBlobEnvelope + run_idx.size() * batch_substatus_bytes();
  counters_.batch_envelopes.inc();
  client_metrics().batch_size.add(run_idx.size());

  // Coordinator trip: one envelope, one fault decision, one apply_ops, one
  // queueing trip. Nothing is applied anywhere if it fails — the whole
  // group is atomically absent.
  LegDelivery prim =
      try_deliver(primary, start, req, static_cast<std::uint32_t>(run_idx.size()));
  if (!prim.delivered) {
    // One whole-envelope re-send after a fresh backoff before giving up: a
    // batch envelope represents many legs, so it earns one extra attempt
    // beyond the per-attempt retry policy (ROADMAP "batch-envelope retry
    // semantics").
    counters_.batch_retries.inc();
    SimMicros prev = store_->config().retry.backoff_base_us;
    prim = try_deliver(primary, prim.failed_at + next_backoff(&prev), req,
                       static_cast<std::uint32_t>(run_idx.size()));
  }
  if (!prim.delivered) {
    *completion = prim.failed_at;
    return {prim.err, "primary unreachable: " + subs.front()->ekey};
  }
  std::vector<BlobServer::OpRef> refs;
  refs.reserve(run_idx.size());
  for (std::size_t i : run_idx) refs.push_back(subs[i]->op);
  SimMicros svc0 = 0;
  std::vector<SimMicros> marks(run_idx.size(), 0);
  Status ast = primary.apply_ops(refs.data(), refs.size(), &svc0, marks.data());
  if (!ast.ok()) {
    *completion = tp.leg(primary.node(), prim, req, reply_meta, svc0).completion;
    return ast;
  }
  for (std::size_t i : run_idx) st[i].lift(primary);
  const SimMicros prim_arrival = tp.hop(prim.start, req, prim.extra_latency_us);
  // The batch is ONE queueing trip, but sub-ops stream out of the primary as
  // their slice of the service completes: sub j finishes at serve-start +
  // marks[j] and its replica forwards launch right then — the pipelining
  // independent mutation_legs would get, without paying one envelope per
  // chunk. Chained serve() calls (same arrival, per-op deltas)
  // leave the node's FCFS busy-until identical to one serve(total).
  std::vector<SimMicros> prim_sub_done(run_idx.size(), prim_arrival);
  SimMicros prim_done = prim_arrival;
  {
    SimMicros prev = 0;
    for (std::size_t j = 0; j < run_idx.size(); ++j) {
      prim_done = primary.node().serve(prim_arrival, marks[j] - prev);
      prim_sub_done[j] = prim_done;
      prev = marks[j];
    }
  }
  SimMicros done = tp.hop(prim_done, reply_meta, prim.extra_latency_us);

  // Forward to the remaining replicas: one envelope per distinct node,
  // pipelined off the primary's apply, with the per-key freshness gate.
  Errc miss_err = Errc::unavailable;
  Status fail = Status::success();
  for (auto& [rid, keys] : node_keys) {
    if (rid == primary_id) continue;
    auto replicated_here = [&](std::size_t i) {
      const auto& replicas = st[i].place.replicas;
      return std::find(replicas.begin(), replicas.end(), rid) != replicas.end();
    };
    if (store_->is_down(rid)) {
      for (std::size_t i : run_idx) {
        if (replicated_here(i)) st[i].missed.push_back(rid);
      }
      continue;
    }
    BlobServer& rep = store_->server(rid);
    std::vector<std::size_t> fwd;  // positions into run_idx
    for (std::size_t j = 0; j < run_idx.size(); ++j) {
      const std::size_t i = run_idx[j];
      if (!replicated_here(i)) continue;
      if (st[i].meta_on(rid).version != st[i].pre_version) {
        st[i].missed.push_back(rid);  // behind: applying would interleave
      } else {
        fwd.push_back(j);
      }
    }
    if (fwd.empty()) continue;
    if (store_->config().write_quorum > 0 &&
        !breaker_allows(store_->server(rid).node().id(),
                        prim_sub_done[fwd.front()])) {
      // Open breaker on a quorum-mode forward: hint instead of burning the
      // retry ladder (same gate as mutation_leg).
      for (std::size_t j : fwd) st[run_idx[j]].missed.push_back(rid);
      counters_.breaker_fast_hints.inc();
      continue;
    }
    // One forward envelope per node (one fault decision), opened when the
    // FIRST forwarded sub streams out of the primary.
    LegDelivery d = try_deliver(rep, prim_sub_done[fwd.front()], req,
                                static_cast<std::uint32_t>(fwd.size()));
    if (!d.delivered) {
      for (std::size_t j : fwd) st[run_idx[j]].missed.push_back(rid);
      miss_err = d.err;
      done = std::max(done, d.failed_at);
      continue;
    }
    std::vector<BlobServer::OpRef> frefs;
    frefs.reserve(fwd.size());
    for (std::size_t j : fwd) frefs.push_back(subs[run_idx[j]]->op);
    SimMicros svc = 0;
    std::vector<SimMicros> fmarks(fwd.size(), 0);
    Status rs = rep.apply_ops(frefs.data(), frefs.size(), &svc, fmarks.data());
    if (!rs.ok()) {
      fail = {Errc::io_error, "replica divergence: " + rs.message()};
      break;
    }
    for (std::size_t j : fwd) {
      st[run_idx[j]].lift(rep);
      ++st[run_idx[j]].acks;
    }
    // Pipelined forwarding, mirroring mutation_leg: sub j's payload
    // leaves the primary at prim_sub_done[j] (not at the whole group's
    // prim_done), so later subs' primary serves overlap earlier subs'
    // replica serves. The replica applies each sub FCFS as it lands.
    SimMicros rep_done = 0;
    SimMicros prev = 0;
    for (std::size_t k = 0; k < fwd.size(); ++k) {
      const std::size_t j = fwd[k];
      const BatchSub& sub = *subs[run_idx[j]];
      std::uint64_t sub_req =
          batch_header_bytes(sub.ekey, to_wire_kind(sub.op.kind), 1) +
          sub.op.data.size();
      if (k == 0) sub_req += kBlobEnvelope;
      const SimMicros launch = std::max(d.start, prim_sub_done[j]);
      rep_done = rep.node().serve(tp.hop(launch, sub_req, d.extra_latency_us), fmarks[k] - prev);
      prev = fmarks[k];
    }
    done = std::max(done, tp.hop(rep_done, reply_meta, d.extra_latency_us));
  }
  if (!fail.ok()) {
    *completion = done;
    return fail;
  }

  // Mirror each applied sub onto its pending new owners, then settle every
  // sub's replicas.
  std::vector<KeyLeg*> settled;
  settled.reserve(run_idx.size());
  for (std::size_t i : run_idx) {
    mirror_pending(primary, st[i], &subs[i]->op, 1,
                   req_bytes(subs[i]->ekey, subs[i]->op.data.size()), prim_done, &done);
    settled.push_back(&st[i]);
  }
  *completion = done;
  return settle_replicas(primary, settled, miss_err);
}

Status BlobClient::batched_mutation_wave(std::vector<BatchSub>& subs, SimMicros start,
                                         SimMicros* done) {
  if (subs.empty()) return Status::success();
  for (auto& s : subs) s.op.key = &s.ekey;  // pointers are stable only now

  for (int pass = 0;; ++pass) {
  const std::uint64_t epoch0 = store_->ring_epoch();
  // Group by acting primary; groups are formed and ordered by chunk index —
  // deterministic batch formation, independent of execution timing.
  std::map<std::uint32_t, std::vector<BatchSub*>> by_primary;
  for (auto& s : subs) {
    const auto replicas = store_->replicas_of(s.ekey);
    if (replicas.empty()) return {Errc::no_space, "no storage nodes in ring"};
    const auto acting = store_->first_up(replicas);
    if (!acting) return {Errc::unavailable, "all replicas down: " + s.ekey};
    by_primary[*acting].push_back(&s);
  }
  struct Group {
    std::uint32_t primary = 0;
    std::vector<BatchSub*> subs;
    Status status = Status::success();
    SimMicros completion = 0;
  };
  std::vector<Group> groups;
  groups.reserve(by_primary.size());
  for (auto& [p, v] : by_primary) groups.push_back({p, std::move(v)});
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return a.subs.front()->chunk < b.subs.front()->chunk;
  });

  fan_out(groups.size(), [&](std::size_t gi) {
    Group& g = groups[gi];
    g.status = mutation_group_leg(g.subs, g.primary, start, &g.completion);
  });
  Status st = Status::success();
  for (Group& g : groups) {
    *done = std::max(*done, g.completion);
    if (st.ok() && !g.status.ok()) st = g.status;
  }
  // A group that saw its placement move under it (membership cutover racing
  // the wave) asks for a re-group: re-place every sub on the new ring and
  // re-run. Sub ops are content-idempotent, so re-applying an already-
  // applied sub only advances its version.
  if (st.code() == Errc::busy && store_->ring_epoch() != epoch0 && pass < 1) {
    counters_.stale_epoch_retries.inc();
    continue;
  }
  return st;
  }
}

Status BlobClient::read_group_leg(std::vector<ReadSub*>& subs,
                                  const std::vector<std::uint32_t>& candidates,
                                  SimMicros start, SimMicros* completion) {
  *completion = start;
  const rpc::Transport& tp = store_->transport();
  const StoreConfig& cfg = store_->config();
  // Quorum candidates voted: the group's tuple holds the first R live
  // replicas (fewer when some are down).
  const auto R = static_cast<std::uint32_t>(candidates.size());

  // Request descriptor bytes: one header per coalesced run (stat subs never
  // coalesce). The same descriptor layout goes to every quorum candidate;
  // payload-vs-digest reply mode rides in the envelope flags byte, which is
  // part of the kBlobEnvelope overhead.
  auto envelope_bytes = [](const std::vector<ReadSub*>& list,
                           std::uint32_t* coalesced) {
    std::uint64_t req = kBlobEnvelope;
    *coalesced = 0;
    std::size_t r = 0;
    while (r < list.size()) {
      std::size_t e = r + 1;
      while (e < list.size() && !list[r]->stat_only && !list[e]->stat_only &&
             list[e]->chunk == list[e - 1]->chunk + 1) {
        ++e;
      }
      const auto span = static_cast<std::uint32_t>(e - r);
      req += batch_header_bytes(list[r]->ekey,
                                list[r]->stat_only ? rpc::BatchOpKind::stat
                                                   : rpc::BatchOpKind::read,
                                span);
      if (span >= 2) ++(*coalesced);
      r = e;
    }
    return req;
  };
  std::uint32_t coalesced = 0;
  const std::uint64_t req = envelope_bytes(subs, &coalesced);

  // One batched envelope against one candidate: deliver (one whole-envelope
  // re-send after a fresh backoff before giving up — the read_leg fallback
  // pays one round trip per sub, so a single extra envelope attempt is the
  // cheaper first response to a transient fault), serve the subs in one
  // read_batch, charge the reply. A payload envelope gathers into the subs'
  // buffers; a digest-mode envelope is answered from the server's extent
  // index — a vote costs a stat, not a read — and ships (version, digest)
  // instead of payload.
  struct CandRun {
    bool delivered = false;
    Errc err = Errc::unavailable;
    SimMicros failed_at = 0;
    SimMicros comp = 0;
    std::vector<BlobServer::ReadSubResult> results;
  };
  auto run_envelope = [&](std::uint32_t rid, const std::vector<ReadSub*>& list,
                          std::uint64_t reqb, std::uint32_t ncoal,
                          bool digest_mode, bool want_digest, SimMicros at) {
    CandRun run;
    BlobServer& srv = store_->server(rid);
    counters_.batch_envelopes.inc();
    client_metrics().batch_size.add(list.size());
    counters_.coalesced_ops.add(ncoal);
    LegDelivery d =
        try_deliver(srv, at, reqb, static_cast<std::uint32_t>(list.size()));
    if (!d.delivered) {
      counters_.batch_retries.inc();
      SimMicros prev = cfg.retry.backoff_base_us;
      d = try_deliver(srv, d.failed_at + next_backoff(&prev), reqb,
                      static_cast<std::uint32_t>(list.size()));
    }
    if (!d.delivered) {
      run.err = d.err;
      run.failed_at = d.failed_at;
      return run;
    }
    run.delivered = true;
    std::vector<BlobServer::ReadSubOp> ops;
    ops.reserve(list.size());
    for (ReadSub* sub : list) {
      BlobServer::ReadSubOp op;
      op.key = &sub->ekey;
      op.off = sub->off;
      op.stat_only = sub->stat_only;
      if (!sub->stat_only && digest_mode) {
        op.digest_only = true;
        op.len = sub->dst.size();
      } else if (!sub->stat_only) {
        op.dst = sub->dst;
        op.want_digest = want_digest;
      }
      ops.push_back(op);
    }
    run.results.resize(list.size());
    std::vector<SimMicros> marks(list.size(), 0);
    SimMicros svc = 0;
    srv.read_batch(ops.data(), ops.size(), run.results.data(), &svc, marks.data());

    // Reply: per-sub statuses, plus the largest single chunk's payload unless
    // it is a digest vote (chunk payloads stream back in parallel, like
    // independent read_leg replies — a vectored run gathers at the NIC, it
    // does not serialize). Chained serve: per-sub deltas leave the node's
    // FCFS busy-until identical to one serve(total) but count each sub as a
    // request, the unit of the node's queue-depth shedding estimate (same
    // pipelining argument as mutation_group_leg).
    std::uint64_t reply = kBlobEnvelope + run.results.size() * batch_substatus_bytes();
    if (!digest_mode) {
      std::uint64_t max_chunk = 0;
      for (const auto& res : run.results) max_chunk = std::max(max_chunk, res.data_len);
      reply += max_chunk;
    }
    const SimMicros arr = tp.hop(d.start, reqb, d.extra_latency_us);
    SimMicros node_done = arr;
    SimMicros prev_mark = 0;
    for (const SimMicros mark : marks) {
      node_done = srv.node().serve(arr, mark - prev_mark);
      prev_mark = mark;
    }
    run.comp = tp.hop(node_done, reply, d.extra_latency_us);
    return run;
  };

  // Degradation to per-chunk read_leg/stat_leg calls (replica failover and
  // quorum arbitration live inside them): for the whole group when its
  // envelope cannot be delivered, or for the stale subs of an undelivered
  // refetch, each of which counts as a quorum refetch. Only reachable with a
  // fault injector installed — always sequential. Destinations are re-zeroed
  // because an earlier envelope may have partially gathered.
  auto via_legs = [&](const std::vector<ReadSub*>& list, SimMicros t, SimMicros* done,
                      bool refetch) -> Status {
    for (ReadSub* sub : list) {
      SimMicros comp = t;
      if (sub->stat_only) {
        auto s = stat_leg(sub->ekey, t, &comp);
        *done = std::max(*done, comp);
        if (s.ok()) {
          sub->err = Errc::ok;
          sub->size = s.value().size;
          sub->version = s.value().version;
        } else if (s.error().code == Errc::not_found) {
          sub->err = Errc::not_found;
        } else {
          return s.error();
        }
        continue;
      }
      std::fill(sub->dst.begin(), sub->dst.end(), std::byte{0});
      auto r = read_leg(sub->ekey, sub->off, sub->dst.size(), t, &comp);
      *done = std::max(*done, comp);
      if (refetch) counters_.quorum_refetches.inc();
      if (r.ok()) {
        const Bytes& part = r.value().data;
        std::copy(part.begin(), part.end(), sub->dst.begin());
        sub->err = Errc::ok;
        sub->data_len = part.size();
        sub->covered = r.value().covered;
      } else if (r.error().code == Errc::not_found) {
        sub->err = Errc::not_found;  // whole chunk is a hole
      } else {
        return r.error();
      }
    }
    return Status::success();
  };

  // Fan one envelope to each of the R quorum candidates: full payload from
  // candidates[0], digest-only version votes from the rest, all forked from
  // the same instant — the single-envelope-per-primary path survives R > 1
  // with ~1x payload bytes on the wire instead of Rx.
  std::vector<CandRun> cand(R);
  for (std::uint32_t j = 0; j < R; ++j) {
    cand[j] = run_envelope(candidates[j], subs, req, coalesced,
                           /*digest_mode=*/j > 0, /*want_digest=*/R > 1, start);
    if (!cand[j].delivered) {
      SimMicros done = cand[j].failed_at;
      const Status st = via_legs(subs, done, &done, /*refetch=*/false);
      *completion = done;
      return st;
    }
    if (j > 0) {
      counters_.quorum_probes.inc();
      std::uint64_t avoided = 0;
      for (const auto& res : cand[j].results) {
        avoided = std::max(avoided, res.data_len);
      }
      counters_.quorum_digest_savings_bytes.add(avoided);
    }
  }

  // Default every sub to the payload candidate's result (the payload is
  // already gathered in place).
  for (std::size_t k = 0; k < subs.size(); ++k) {
    ReadSub* sub = subs[k];
    const auto& res = cand[0].results[k];
    sub->err = res.err;
    sub->data_len = res.data_len;
    sub->covered = res.covered;
    sub->size = res.size;
    sub->version = res.version;
  }
  SimMicros done = start;
  for (const CandRun& c : cand) done = std::max(done, c.comp);

  if (R > 1) {
    // Per-sub version vote across the R replies. The payload wins at the
    // max version, or below it with a byte-identical span digest (a version
    // bump that did not change this span); otherwise the sub is stale and
    // is re-fetched — one payload envelope per winning replica, forked at
    // the vote barrier, so the winning payload still crosses the wire once.
    std::map<std::uint32_t, std::vector<ReadSub*>> refetch;  // cand idx -> subs
    for (std::size_t k = 0; k < subs.size(); ++k) {
      ReadSub* sub = subs[k];
      Version maxv = 0;
      std::uint32_t win = 0;
      bool any = false;
      for (std::uint32_t j = 0; j < R; ++j) {
        const auto& r = cand[j].results[k];
        if (r.err != Errc::ok) continue;
        if (!any || r.version > maxv) {
          any = true;
          maxv = r.version;
          win = j;
        }
      }
      if (sub->stat_only) {
        // Mirror quorum_probe: the max-version responder's stat wins;
        // absent only when every responder reports absent.
        if (!any) {
          sub->err = Errc::not_found;
          sub->size = 0;
          sub->version = 0;
        } else {
          sub->err = Errc::ok;
          sub->size = cand[win].results[k].size;
          sub->version = maxv;
        }
        continue;
      }
      if (!any) continue;  // absent everywhere: the chunk is a hole
      const auto& r0 = cand[0].results[k];
      if (r0.err == Errc::ok && r0.version >= maxv) {
        counters_.quorum_winners.inc();
        continue;
      }
      if (r0.err == Errc::ok && r0.digest != 0 &&
          r0.digest == cand[win].results[k].digest) {
        sub->version = maxv;
        counters_.quorum_winners.inc();
        continue;
      }
      refetch[win].push_back(sub);
    }

    for (auto& [win, list] : refetch) {
      // The stale payload may cover spans the fresh version leaves as
      // holes; re-zero before gathering so read_into's pre-zeroed-dst
      // contract holds.
      for (ReadSub* sub : list) {
        std::fill(sub->dst.begin(), sub->dst.end(), std::byte{0});
      }
      std::uint32_t rcoal = 0;
      const std::uint64_t rreq = envelope_bytes(list, &rcoal);
      CandRun rr = run_envelope(candidates[win], list, rreq, rcoal,
                                /*digest_mode=*/false, /*want_digest=*/false,
                                done);
      if (!rr.delivered) {
        const Status st = via_legs(list, rr.failed_at, &done, /*refetch=*/true);
        if (!st.ok()) {
          *completion = done;
          return st;
        }
        continue;
      }
      for (std::size_t i = 0; i < list.size(); ++i) {
        ReadSub* sub = list[i];
        const auto& r = rr.results[i];
        sub->err = r.err;
        sub->data_len = r.data_len;
        sub->covered = r.covered;
        sub->version = r.version;
        counters_.quorum_refetches.inc();
      }
      done = std::max(done, rr.comp);
    }
  }

  *completion = done;
  return Status::success();
}

Result<Bytes> BlobClient::batched_striped_read(std::string_view key,
                                               std::uint64_t offset,
                                               std::uint64_t len) {
  const std::uint64_t cb = store_->config().chunk_bytes;
  const std::string base{key};

  // A miss's charged stat round primes the cache — and is the complete
  // answer for an absent blob (a single round trip, no full-length probe leg).
  const auto cached = cached_stat(base);
  if (!cached.ok()) return cached.error();
  MetaEntry entry{cached.value().size, cached.value().version};

  for (int attempt = 0;; ++attempt) {
    const std::uint64_t logical = entry.logical;
    const std::uint64_t rlen =
        offset < logical ? std::min(len, logical - offset) : 0;
    if (rlen == 0) {
      // At/after EOF per the cached size: verify with one charged stat round
      // (there is no data envelope to piggyback on) instead of shipping a
      // full-length probe leg.
      const SimMicros s0 = agent_ ? agent_->now() : 0;
      SimMicros comp = s0;
      auto s = stat_leg(base, s0, &comp);
      if (agent_) agent_->advance_to(comp);
      if (!s.ok()) {
        cache_erase(base);
        return s.error();
      }
      cache_put(base, {s.value().size, s.value().version});
      if (attempt < 2 && offset < s.value().size) {
        entry = {s.value().size, s.value().version};
        continue;  // cached size was stale: there is data after all
      }
      client_metrics().read_bytes.add(0);
      return Bytes{};
    }

    const SimMicros start = agent_ ? agent_->now() : 0;
    const std::uint64_t epoch0 = store_->ring_epoch();
    Bytes out(rlen, std::byte{0});  // holes and absent chunks read as zero
    const std::uint64_t end = offset + rlen;
    std::vector<ReadSub> subs;
    subs.reserve(end / cb - offset / cb + 2);
    for (std::uint64_t c = offset / cb; c * cb < end; ++c) {
      const std::uint64_t lo = std::max(offset, c * cb);
      const std::uint64_t hi = std::min(end, (c + 1) * cb);
      ReadSub sub;
      sub.ekey = chunk_engine_key(key, c);
      sub.chunk = c;
      sub.off = lo - c * cb;
      sub.dst = MutableByteView{out}.subspan(lo - offset, hi - lo);
      subs.push_back(std::move(sub));
    }
    {
      // Cache-verification stat of the base key, piggybacked on the group
      // whose primary holds chunk 0 (or a mini-group of its own otherwise).
      ReadSub sub;
      sub.ekey = base;
      sub.chunk = ~0ULL;  // sentinel: never coalesces, stays last in its group
      sub.stat_only = true;
      subs.push_back(std::move(sub));
    }

    // Group subs by their ordered candidate tuple: the first R live
    // replicas in replica order. At R == 1 this degenerates to grouping by
    // acting primary — exactly the pre-quorum batching. Subs sharing a
    // tuple share all R envelopes, so a group costs R queueing trips total
    // regardless of its sub count.
    const std::uint32_t R = store_->config().read_quorum();
    std::map<std::vector<std::uint32_t>, std::vector<ReadSub*>> by_cands;
    for (auto& s : subs) {
      const auto replicas = store_->replicas_of(s.ekey);
      if (replicas.empty()) return {Errc::no_space, "no storage nodes in ring"};
      std::vector<std::uint32_t> cands;
      for (std::uint32_t rid : replicas) {
        if (store_->is_down(rid)) continue;
        cands.push_back(rid);
        if (cands.size() >= R) break;
      }
      if (cands.empty()) return {Errc::unavailable, "all replicas down: " + s.ekey};
      by_cands[std::move(cands)].push_back(&s);
    }
    struct Group {
      std::vector<std::uint32_t> candidates;
      std::vector<ReadSub*> subs;
      Status status = Status::success();
      SimMicros completion = 0;
    };
    std::vector<Group> groups;
    groups.reserve(by_cands.size());
    for (auto& [c, v] : by_cands) groups.push_back({c, std::move(v)});
    std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
      return a.subs.front()->chunk < b.subs.front()->chunk;
    });

    fan_out(groups.size(), [&](std::size_t gi) {
      Group& g = groups[gi];
      g.status = read_group_leg(g.subs, g.candidates, start, &g.completion);
    });
    SimMicros done = start;
    Status fail = Status::success();
    for (Group& g : groups) {
      done = std::max(done, g.completion);
      if (fail.ok() && !g.status.ok()) fail = g.status;
    }
    if (agent_) agent_->advance_to(done);
    if (!fail.ok()) return fail.error();

    // Membership cutover mid-wave: chunks the wave read from old owners may
    // already be dropped (read as holes). Cheap insurance: re-run the wave
    // on the post-cutover placement.
    if (store_->ring_epoch() != epoch0 && attempt < 2) {
      counters_.stale_epoch_retries.inc();
      continue;
    }

    // Cache verification from the piggybacked stat.
    const ReadSub* vstat = nullptr;
    for (const auto& s : subs) {
      if (s.stat_only) vstat = &s;
    }
    if (vstat->err == Errc::not_found) {
      cache_erase(base);
      return {Errc::not_found, base};
    }
    if (vstat->size != logical && attempt < 2) {
      // Size drifted (concurrent truncate/recreate): relayout and re-read.
      counters_.metacache_invalidations.inc();
      entry = {vstat->size, vstat->version};
      cache_put(base, entry);
      continue;
    }
    if (vstat->version != entry.v0 || vstat->size != logical) {
      // Version-only drift (or a still-moving size on the final attempt):
      // the chunk data just read is current as of its serve; refresh the
      // entry and accept.
      cache_put(base, {vstat->size, vstat->version});
    }

    std::uint64_t covered = 0;
    for (const auto& s : subs) {
      if (s.stat_only) continue;
      if (s.err != Errc::ok && s.err != Errc::not_found) return {s.err, s.ekey};
      covered += s.covered;
    }
    counters_.bytes_read.add(covered);
    counters_.read_hole_bytes.add(rlen - covered);
    client_metrics().read_bytes.add(rlen);
    return out;
  }
}

BlobClient::ProbeRound BlobClient::quorum_probe(const std::string& ekey,
                                                const std::vector<std::uint32_t>& lives,
                                                SimMicros start) {
  const rpc::Transport& tp = store_->transport();
  const std::uint32_t quorum = std::min<std::uint32_t>(
      store_->config().read_quorum(), static_cast<std::uint32_t>(lives.size()));
  ProbeRound out;
  struct Probe {
    std::uint32_t rid;
    Version v;
    SimMicros done;
    BlobStat stat;
    bool found;
  };
  std::vector<Probe> got;
  SimMicros slowest = start;
  Errc last_err = Errc::unavailable;
  for (std::uint32_t rid : lives) {
    if (got.size() >= quorum) break;
    BlobServer& srv = store_->server(rid);
    LegDelivery d = try_deliver(srv, start, kProbeRequest);
    if (!d.delivered) {
      slowest = std::max(slowest, d.failed_at);
      last_err = d.err;
      continue;
    }
    SimMicros svc = 0;
    auto s = srv.stat(ekey, &svc);
    const SimMicros pdone = tp.leg(srv.node(), d, kProbeRequest, kProbeReply, svc).completion;
    got.push_back({rid, s.ok() ? s.value().version : 0, pdone,
                   s.ok() ? s.value() : BlobStat{ekey, 0, 0}, s.ok()});
  }
  if (got.size() < quorum) {
    out.done = slowest;
    out.err = last_err;
    return out;
  }
  out.ok = true;
  out.done = start;
  Version maxv = 0;
  bool any_found = false;
  for (const Probe& p : got) {
    out.done = std::max(out.done, p.done);
    any_found = any_found || p.found;
    maxv = std::max(maxv, p.v);
  }
  out.found = any_found;
  for (const Probe& p : got) {
    if (p.found && p.v == maxv) {
      if (out.fresh.empty()) out.stat = p.stat;
      out.fresh.push_back(p.rid);
    }
  }
  return out;
}

Result<ReadOutcome> BlobClient::read_leg(const std::string& ekey, std::uint64_t off,
                                         std::uint64_t len, SimMicros start,
                                         SimMicros* completion) {
  *completion = start;
  const rpc::Transport& tp = store_->transport();
  const std::uint64_t req = req_bytes(ekey);
  const std::uint32_t R = store_->config().read_quorum();

  // Stale-epoch retry loop: a delivered reply stamped with a ring epoch
  // newer than the one this leg's placement was computed at means
  // membership moved under the cached entry — the data may have migrated
  // off the contacted replica entirely. Flush the entry, refetch the
  // placement, and re-run the leg from the stale round's completion time
  // (the wasted round trip is paid, not hidden).
  for (int pass = 0;; ++pass) {
    const Placement p =
        pass == 0 ? locate(ekey) : store_->placement_of(ekey);
    if (p.replicas.empty()) return {Errc::no_space, "no storage nodes in ring"};
    std::vector<std::uint32_t> lives;
    for (std::uint32_t rid : p.replicas) {
      if (!store_->is_down(rid)) lives.push_back(rid);
    }
    if (lives.empty()) return {Errc::unavailable, "all replicas down: " + ekey};

    // Candidate servers to read from, in preference order. With R == 1
    // every live replica is equally fresh (writes ack on all live
    // replicas); with R > 1 a version-probe round first finds the freshest
    // responders. Suspect replicas (open/half-open breaker, or a latency
    // EWMA far above the fleet — gray failure) are demoted to the back:
    // still reachable for availability, tried last.
    std::vector<std::uint32_t> candidates = lives;
    SimMicros t = start;
    if (R > 1) {
      ProbeRound probe = quorum_probe(ekey, lives, start);
      if (!probe.ok) {
        *completion = probe.done;
        return {probe.err, "read quorum unreachable: " + ekey};
      }
      t = probe.done;  // barrier: arbitration needs all R probe replies
      if (!probe.found) {
        *completion = t;
        return {Errc::not_found, ekey};
      }
      candidates = probe.fresh;
    }
    demote_suspects(candidates);

    bool stale = false;
    Errc last = Errc::unavailable;  // the message is built only on failure
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (i > 0) counters_.failovers.inc();
      BlobServer& srv = store_->server(candidates[i]);
      LegDelivery d = try_deliver(srv, t, req);
      if (!d.delivered) {
        t = d.failed_at;
        last = d.err;
        continue;
      }
      SimMicros svc = 0;
      auto r = srv.read(ekey, off, len, &svc);
      const std::uint64_t resp = kBlobEnvelope + (r.ok() ? r.value().data.size() : 0);
      const SimMicros comp = tp.leg(srv.node(), d, req, resp, svc).completion;

      // Stale-epoch stamp check, before the reply is trusted: the replica
      // answered, but from a membership the client no longer shares.
      if (srv.ring_epoch() > p.epoch && pass < 2) {
        flush_stale_placement(ekey, true);
        start = comp;
        stale = true;
        break;
      }
      health_on_success(srv.node().id(), comp - d.start);
      *completion = comp;
      return r;  // a delivered reply is authoritative, not_found included
    }
    if (stale) continue;
    *completion = t;
    return {last, "unreachable: " + ekey};
  }
}

Result<BlobStat> BlobClient::stat_leg(const std::string& ekey, SimMicros start,
                                      SimMicros* completion) {
  *completion = start;
  const std::uint32_t R = store_->config().read_quorum();
  const rpc::Transport& tp = store_->transport();

  // Same stale-epoch retry loop as read_leg (see there for the argument).
  for (int pass = 0;; ++pass) {
    const Placement p =
        pass == 0 ? locate(ekey) : store_->placement_of(ekey);
    if (p.replicas.empty()) return {Errc::no_space, "no storage nodes in ring"};
    std::vector<std::uint32_t> lives;
    for (std::uint32_t rid : p.replicas) {
      if (!store_->is_down(rid)) lives.push_back(rid);
    }
    if (lives.empty()) return {Errc::unavailable, "all replicas down: " + ekey};

    if (R > 1) {
      ProbeRound probe = quorum_probe(ekey, lives, start);
      *completion = probe.done;
      if (probe.ok && store_->server(lives.front()).ring_epoch() > p.epoch &&
          pass < 2) {
        flush_stale_placement(ekey, true);
        start = probe.done;
        continue;
      }
      if (!probe.ok) return {probe.err, "read quorum unreachable: " + ekey};
      if (!probe.found) return {Errc::not_found, ekey};
      return probe.stat;
    }

    bool stale = false;
    SimMicros t = start;
    Errc last = Errc::unavailable;  // the message is built only on failure
    for (std::size_t i = 0; i < lives.size(); ++i) {
      if (i > 0) counters_.failovers.inc();
      BlobServer& srv = store_->server(lives[i]);
      LegDelivery d = try_deliver(srv, t, kProbeRequest);
      if (!d.delivered) {
        t = d.failed_at;
        last = d.err;
        continue;
      }
      SimMicros svc = 0;
      auto s = srv.stat(ekey, &svc);
      *completion = tp.leg(srv.node(), d, kProbeRequest, kProbeReply, svc).completion;
      if (srv.ring_epoch() > p.epoch && pass < 2) {
        flush_stale_placement(ekey, true);
        start = *completion;
        stale = true;
        break;
      }
      if (!s.ok()) return s.error();
      return s;
    }
    if (stale) continue;
    *completion = t;
    return {last, "unreachable: " + ekey};
  }
}

Status BlobClient::create(std::string_view key) {
  PrimCall call(*this, counters_.creates, client_metrics().create, key);
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  cache_erase(key);
  return replicated_mutation({{BlobServer::TxnOp::Kind::create, std::string{key}, 0, {}, 0}});
}

Status BlobClient::remove(std::string_view key) {
  PrimCall call(*this, counters_.removes, client_metrics().remove, key);
  const std::uint64_t cb = store_->config().chunk_bytes;
  const std::string base{key};

  // Remove chunk 0 first (its leg reports the pre-image logical size,
  // replacing a peek round), then sweep the chunk keys in per-primary batch
  // envelopes with tolerated not_found (hole chunks).
  const SimMicros start = agent_ ? agent_->now() : 0;
  SimMicros done = start;
  LegInfo li;
  Status st = mutation_leg(base, {{BlobServer::TxnOp::Kind::remove, base, 0, {}, 0}},
                           start, &done, &li);
  if (st.ok() && cb > 0 && li.pre_size > cb) {
    std::vector<BatchSub> subs;
    const std::uint64_t chunks = (li.pre_size + cb - 1) / cb;
    for (std::uint64_t c = 1; c < chunks; ++c) {
      BatchSub sub;
      sub.ekey = chunk_engine_key(key, c);
      sub.chunk = c;
      sub.tolerate_not_found = true;
      sub.op = {BlobServer::TxnOp::Kind::remove, nullptr, 0, {}, 0, 0};
      subs.push_back(std::move(sub));
    }
    st = batched_mutation_wave(subs, start, &done);
  }
  if (agent_) agent_->advance_to(done);
  cache_erase(base);
  return st;
}

Result<Bytes> BlobClient::read(std::string_view key, std::uint64_t offset,
                               std::uint64_t len) {
  PrimCall call(*this, counters_.reads, client_metrics().read, key);
  const std::uint64_t cb = store_->config().chunk_bytes;
  if (cb == 0 || offset + len <= cb) {
    // Single-chunk fast path: one leg (failover/quorum logic inside).
    const SimMicros start = agent_ ? agent_->now() : 0;
    SimMicros comp = start;
    auto r = read_leg(std::string{key}, offset, len, start, &comp);
    if (agent_) agent_->advance_to(comp);
    if (!r.ok()) return r.error();
    // bytes_read counts extent-backed bytes only; zero-filled hole bytes in
    // the returned span are accounted separately in read_hole_bytes.
    const std::uint64_t covered = r.value().covered;
    counters_.bytes_read.add(covered);
    counters_.read_hole_bytes.add(r.value().data.size() - covered);
    client_metrics().read_bytes.add(r.value().data.size());
    return std::move(r.value().data);
  }

  // Striped read: per-candidate-set multi-op envelopes plus the client
  // metadata cache. R > 1 reads stay on it too — the envelopes carry
  // per-sub version votes (see read_group_leg).
  return batched_striped_read(key, offset, len);
}

Result<BlobStat> BlobClient::cached_stat(const std::string& base) {
  // Same cache lookup/invalidate discipline as the read paths: a hit
  // answers from the client-held {logical size, chunk-0 version} entry with
  // zero rounds (the entry is erased by every local mutation and verified
  // against a replica by every striped read); a miss pays one charged stat
  // round and primes the cache. Absent blobs are not cached — a stat after
  // a failed stat pays the round again, matching read-path probe economy.
  if (auto it = meta_cache_.find(base); it != meta_cache_.end()) {
    counters_.metacache_hits.inc();
    return BlobStat{base, it->second.logical, it->second.v0};
  }
  counters_.metacache_misses.inc();
  const SimMicros start = agent_ ? agent_->now() : 0;
  SimMicros comp = start;
  auto s = stat_leg(base, start, &comp);
  if (agent_) agent_->advance_to(comp);
  if (s.ok()) cache_put(base, {s.value().size, s.value().version});
  return s;
}

Result<std::uint64_t> BlobClient::size(std::string_view key) {
  PrimCall call(*this, counters_.sizes, client_metrics().size, key);
  // Chunk 0 carries the full logical size of a striped blob.
  auto s = cached_stat(std::string{key});
  if (!s.ok()) return s.error();
  return s.value().size;
}

Result<BlobStat> BlobClient::stat(std::string_view key) {
  PrimCall call(*this, counters_.stats, client_metrics().stat, key);
  return cached_stat(std::string{key});
}

bool BlobClient::exists(std::string_view key) { return stat(key).ok(); }

namespace {
/// A write op that ships `data` as a zero-copy view of the caller's buffer
/// plus a client-computed end-to-end checksum, so the leg marshals no
/// payload copy and replicas store the checksum instead of re-hashing.
BlobServer::TxnOp view_write(std::string key, std::uint64_t offset, ByteView data) {
  BlobServer::TxnOp op{BlobServer::TxnOp::Kind::write, std::move(key), offset, {}, 0,
                       content_checksum(data)};
  op.view = data;
  return op;
}
}  // namespace

Result<std::uint64_t> BlobClient::write(std::string_view key, std::uint64_t offset,
                                        ByteView data) {
  PrimCall call(*this, counters_.writes, client_metrics().write, key);
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  const std::uint64_t cb = store_->config().chunk_bytes;
  const std::uint64_t end = offset + data.size();
  if (cb == 0 || end <= cb) {
    // Single-chunk fast path. Any cached size/version for this key is stale
    // the moment the mutation lands.
    cache_erase(key);
    std::vector<BlobServer::TxnOp> ops;
    ops.push_back(view_write(std::string{key}, offset, data));
    Status st = replicated_mutation(ops);
    if (!st.ok()) return st.error();
    counters_.bytes_written.add(data.size());
    return data.size();
  }

  // Striped write: slice the range over fixed-size chunks. The base leg
  // (chunk 0) carries its slice — or an empty creating write when the range
  // starts past chunk 0 — plus a grow() keeping the full logical size on the
  // chunk-0 record. It runs first (it owns create semantics); the remaining
  // chunk legs go to their own replica sets and fork from the same
  // simulated instant (scatter-gather: the ack waits for the slowest leg).
  const std::string base{key};
  const SimMicros start = agent_ ? agent_->now() : 0;
  SimMicros done = start;

  std::vector<BlobServer::TxnOp> base_ops;
  if (offset < cb) {
    base_ops.push_back(view_write(base, offset, data.subspan(0, std::min(end, cb) - offset)));
  } else {
    base_ops.push_back({BlobServer::TxnOp::Kind::write, base, 0, {}, 0});
  }
  base_ops.push_back({BlobServer::TxnOp::Kind::grow, base, 0, {}, end});
  LegInfo li;
  Status st = mutation_leg(base, base_ops, start, &done, &li);

  // Chunk legs c >= 1 travel as per-primary batch envelopes: one queueing
  // trip, one lock round, one fault decision per acting primary.
  if (st.ok()) {
    std::vector<BatchSub> subs;
    for (std::uint64_t c = std::max<std::uint64_t>(1, offset / cb); c * cb < end; ++c) {
      const std::uint64_t lo = std::max(offset, c * cb);
      const std::uint64_t hi = std::min(end, (c + 1) * cb);
      const ByteView slice = data.subspan(lo - offset, hi - lo);
      BatchSub sub;
      sub.ekey = chunk_engine_key(key, c);
      sub.chunk = c;
      // Checksum 0 for now: mutation_group_leg hashes the slice on the
      // fan-out thread that carries it, still before any server sees it.
      sub.op = {BlobServer::TxnOp::Kind::write, nullptr, lo - c * cb, slice, 0, 0};
      subs.push_back(std::move(sub));
    }
    st = batched_mutation_wave(subs, start, &done);
  }
  if (agent_) agent_->advance_to(done);
  if (!st.ok()) {
    cache_erase(base);
    return st.error();
  }
  // The base leg told us the pre-image size and the version it installed:
  // enough to refresh the metadata cache without another round.
  cache_put(base, {std::max(li.pre_size, end), li.new_version});
  counters_.bytes_written.add(data.size());
  return data.size();
}

Status BlobClient::truncate(std::string_view key, std::uint64_t new_size) {
  PrimCall call(*this, counters_.truncates, client_metrics().truncate, key);
  const std::uint64_t cb = store_->config().chunk_bytes;
  const std::string base{key};

  // The base leg is a plain truncate to new_size (chunk 0's record carries
  // the logical size) and reports the pre-image size, so no peek round is
  // needed to plan the chunk wave. Chunks entirely past the new end become
  // tolerated removes; the straddling chunk is trimmed.
  const SimMicros start = agent_ ? agent_->now() : 0;
  SimMicros done = start;
  LegInfo li;
  Status st = mutation_leg(
      base, {{BlobServer::TxnOp::Kind::truncate, base, 0, {}, new_size}}, start, &done,
      &li);
  const std::uint64_t chunks =
      cb > 0 ? (std::max(li.pre_size, new_size) + cb - 1) / cb : 1;
  if (st.ok() && chunks > 1) {
    std::vector<BatchSub> subs;
    for (std::uint64_t c = 1; c < chunks; ++c) {
      const std::uint64_t cstart = c * cb;
      BatchSub sub;
      sub.ekey = chunk_engine_key(key, c);
      sub.chunk = c;
      sub.tolerate_not_found = true;  // hole chunks have no stored key
      if (cstart >= new_size) {
        sub.op = {BlobServer::TxnOp::Kind::remove, nullptr, 0, {}, 0, 0};
      } else if (new_size < cstart + cb) {
        sub.op = {BlobServer::TxnOp::Kind::truncate, nullptr, 0, {}, new_size - cstart, 0};
      } else {
        continue;  // chunk fully below the new end
      }
      subs.push_back(std::move(sub));
    }
    st = batched_mutation_wave(subs, start, &done);
  }
  if (agent_) agent_->advance_to(done);
  if (!st.ok()) {
    cache_erase(base);
    return st;
  }
  cache_put(base, {new_size, li.new_version});
  return st;
}

Result<std::vector<BlobStat>> BlobClient::scan(std::string_view prefix) {
  PrimCall call(*this, counters_.scans, client_metrics().scan, prefix);
  const rpc::Transport& tp = store_->transport();
  const SimMicros start = agent_ ? agent_->now() : 0;
  const std::string pfx{prefix};

  // Fan out to every server in parallel; merge + dedupe (replicas hold
  // copies of the same key) and present a sorted global namespace view.
  // Internal chunk keys are implementation detail — hidden from the
  // namespace (their bytes are reported via chunk 0's logical size).
  // Namespace enumeration is management-plane traffic on the reliable
  // channel: a scan's answer is best-effort by nature (it merges whatever
  // the live servers hold), so injected faults add nothing to test here.
  std::map<std::string, BlobStat> merged;
  SimMicros done = start;
  for (std::size_t i = 0; i < store_->server_count(); ++i) {
    if (store_->is_down(static_cast<std::uint32_t>(i))) continue;
    BlobServer& s = store_->server(i);
    SimMicros svc = 0;
    auto part = s.scan(pfx, &svc);
    std::uint64_t resp = kBlobEnvelope;
    for (auto& bs : part) resp += bs.key.size() + 16;
    done = std::max(done, tp.leg(s.node(), start, req_bytes(prefix), resp, svc).completion);
    for (auto& bs : part) {
      if (is_chunk_key(bs.key)) continue;
      auto [it, inserted] = merged.try_emplace(bs.key, bs);
      if (!inserted && bs.version > it->second.version) it->second = bs;
    }
  }
  if (agent_) agent_->advance_to(done);

  std::vector<BlobStat> out;
  out.reserve(merged.size());
  for (auto& [k, v] : merged) out.push_back(std::move(v));
  return out;
}

BlobTransaction BlobClient::begin_transaction() { return BlobTransaction(*this); }

// ---------------------------------------------------------------- txn ----

BlobTransaction& BlobTransaction::write(std::string_view key, std::uint64_t offset,
                                        ByteView data) {
  ops_.push_back({BlobServer::TxnOp::Kind::write, std::string{key}, offset,
                  Bytes(data.begin(), data.end()), 0});
  return *this;
}

BlobTransaction& BlobTransaction::truncate(std::string_view key, std::uint64_t new_size) {
  ops_.push_back({BlobServer::TxnOp::Kind::truncate, std::string{key}, 0, {}, new_size});
  return *this;
}

BlobTransaction& BlobTransaction::create(std::string_view key) {
  ops_.push_back({BlobServer::TxnOp::Kind::create, std::string{key}, 0, {}, 0});
  return *this;
}

BlobTransaction& BlobTransaction::remove(std::string_view key) {
  ops_.push_back({BlobServer::TxnOp::Kind::remove, std::string{key}, 0, {}, 0});
  return *this;
}

BlobTransaction& BlobTransaction::expect_version(std::string_view key, Version version) {
  preconditions_.emplace_back(std::string{key}, version);
  return *this;
}

Status BlobTransaction::commit() {
  BlobClient& c = *client_;
  // Both branches must already be string_views: a ""/std::string ternary
  // would materialize a temporary string that dies here while the call's
  // view of it lives until end of commit().
  BlobClient::PrimCall call(c, c.counters_.txns, client_metrics().txn,
                            ops_.empty() ? std::string_view{}
                                         : std::string_view{ops_.front().key});
  if (ops_.empty()) return Status::success();
  BlobStore& store = c.store();
  const std::uint32_t W = store.config().write_quorum;

  // Involved servers: every replica of every touched key.
  std::set<std::uint32_t> involved;
  std::map<std::uint32_t, std::vector<BlobServer::TxnOp>> per_server;
  std::uint64_t payload = 0;
  for (const auto& op : ops_) {
    payload += op.key.size() + op.data.size() + 24;
    for (std::uint32_t n : store.replicas_of(op.key)) {
      involved.insert(n);
      per_server[n].push_back(op);
    }
  }
  if (involved.empty()) return {Errc::no_space, "no storage nodes in ring"};

  // Lock phase: whole-server exclusive locks in ascending node id order —
  // the one global order shared with the per-key mutation path, which rules
  // out deadlock between concurrent transactions and striped writers alike.
  // The commit protocol itself runs on the reliable channel (Týr's commit
  // rounds carry their own acknowledgment/retry machinery); what failures
  // leave behind is modeled by the version gating below.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(involved.size());
  for (std::uint32_t n : involved) locks.push_back(store.server(n).lock_exclusive());

  const rpc::Transport& tp = store.transport();
  sim::SimAgent* agent = c.agent();
  const SimMicros start = agent ? agent->now() : 0;

  // Prepare round: small validation message to every involved server. The
  // commit round leaves when the last one has prepared; one reply reaches
  // the client, after the prepare round if refused, else after the commit.
  SimMicros prepare_done = start;
  for (std::uint32_t n : involved) {
    prepare_done = std::max(prepare_done, tp.leg(store.server(n).node(), start, rpc::kTxnRequest,
                                                 rpc::kTxnReply, 3).served);
  }
  // A refused commit ends with the rejection reply to the prepare round.
  auto abort = [&](Status refused) {
    if (agent) agent->advance_to(tp.hop(prepare_done, rpc::kTxnReply));
    return refused;
  };

  // Authoritative per-key version: the freshest live replica (in classic
  // mode every live replica agrees; in quorum mode stale replicas may lag).
  std::set<std::string> touched;
  for (const auto& op : ops_) touched.insert(op.key);
  // A committed transaction bumps versions behind the metadata cache's back;
  // dropping the entries before application covers every outcome.
  for (const std::string& k : touched) c.cache_erase(k);
  std::map<std::string, Version> auth;
  std::map<std::string, std::uint32_t> auth_holder;
  for (const std::string& key : touched) {
    const auto reps = store.replicas_of(key);
    const auto acting = store.first_up(reps);
    if (!acting) return abort({Errc::unavailable, "all replicas down: " + key});
    const auto best = store.freshest(key, reps);
    auth[key] = best ? best->version : 0;
    auth_holder[key] = best ? best->index : *acting;
  }

  // Precondition validation against the authoritative versions.
  for (const auto& [key, expected] : preconditions_) {
    const Version have = auth.count(key) ? auth[key] : [&] {
      const auto best = store.freshest(key, store.replicas_of(key));
      return best ? best->version : 0;
    }();
    if (have != expected) return abort({Errc::conflict, "precondition failed: " + key});
  }

  // Applicability validation against the pre-transaction state, so the
  // commit round below cannot fail halfway (all-or-nothing). Ops within one
  // transaction apply in order on every server, so a create followed by
  // ops on the same key is fine; validation only checks the initial state.
  std::set<std::string> created_in_txn;
  for (const auto& op : ops_) {
    const bool pre_exists = [&] {
      const std::uint32_t holder = auth_holder[op.key];
      return !store.server(holder).version_matches(op.key, 0);
    }();
    const bool exists = pre_exists || created_in_txn.count(op.key) != 0;
    bool applicable = true;
    switch (op.kind) {
      case BlobServer::TxnOp::Kind::create:
        applicable = !exists;
        created_in_txn.insert(op.key);
        break;
      case BlobServer::TxnOp::Kind::remove:
      case BlobServer::TxnOp::Kind::truncate:
      case BlobServer::TxnOp::Kind::grow:
        applicable = exists;
        break;
      case BlobServer::TxnOp::Kind::write:
        created_in_txn.insert(op.key);  // auto-creates
        break;
    }
    if (!applicable) return abort({Errc::conflict, "inapplicable op on: " + op.key});
  }

  // Freshness gate: a replica applies a key's ops only from the
  // authoritative version (else histories would interleave). Because the
  // exclusive locks freeze every version, ack counts are known BEFORE
  // anything applies — an under-replicated key aborts the whole
  // transaction atomically instead of committing partially.
  std::map<std::uint32_t, std::set<std::string>> stale;  // server -> gated keys
  for (const std::string& key : touched) {
    std::uint32_t acks = 0;
    std::uint32_t live = 0;
    const auto reps = store.replicas_of(key);
    for (std::uint32_t r : reps) {
      if (store.is_down(r)) continue;
      ++live;
      auto rv = store.server(r).peek_version(key);
      const Version have = rv.ok() ? rv.value() : 0;
      if (have == auth[key]) {
        ++acks;
      } else {
        stale[r].insert(key);
      }
    }
    const std::uint32_t need =
        (W == 0) ? live : std::min<std::uint32_t>(W, static_cast<std::uint32_t>(reps.size()));
    if (acks < need || acks == 0) {
      return abort({Errc::unavailable, "insufficient fresh replicas: " + key});
    }
  }

  // Commit round: apply the batch on every involved fresh server; gated
  // (stale) replicas are hinted for repair instead.
  SimMicros commit_done = prepare_done;
  Status failure = Status::success();
  std::map<std::string, std::uint64_t> key_op_count;
  for (const auto& op : ops_) ++key_op_count[op.key];
  for (auto& [n, server_ops] : per_server) {
    if (store.is_down(n)) continue;  // degraded commit; resync repairs later
    std::vector<BlobServer::TxnOp> runnable;
    const auto& gated = stale.count(n) ? stale[n] : std::set<std::string>{};
    for (const auto& op : server_ops) {
      if (!gated.count(op.key)) runnable.push_back(op);
    }
    for (const std::string& key : gated) {
      if (W > 0 && store.server(auth_holder[key]).add_hint(n, key)) {
        c.counters_.hints_written.inc();
      }
    }
    if (runnable.empty()) continue;
    SimMicros svc = 0;
    Status st = store.server(n).apply_txn_ops(runnable, &svc);
    if (!st.ok() && failure.ok()) failure = st;
    // Version continuation: a remove+recreate inside the transaction resets
    // the engine version, which could lose arbitration against a stale
    // copy. Lift such keys to a floor above every pre-commit version. Plain
    // mutations already land above the floor — no extra journaling.
    if (st.ok()) {
      std::set<std::string> seen;
      for (const auto& op : runnable) {
        if (!seen.insert(op.key).second) continue;
        const Version floor = auth[op.key] + key_op_count[op.key];
        auto pv = store.server(n).peek_version(op.key);
        if (pv.ok() && pv.value() < floor) {
          (void)store.server(n).force_version(op.key, floor);
        }
      }
    }
    commit_done = std::max(commit_done, tp.leg(store.server(n).node(), prepare_done,
                                               rpc::kTxnRequest + payload, rpc::kTxnReply,
                                               svc).served);
  }
  if (agent) agent->advance_to(tp.hop(commit_done, rpc::kTxnReply));
  return failure;
}

}  // namespace bsc::blob
