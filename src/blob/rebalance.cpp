#include "blob/rebalance.hpp"

#include <algorithm>
#include <set>

#include "blob/store.hpp"
#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "rpc/envelope.hpp"
#include "rpc/wire.hpp"

namespace bsc::blob {

namespace {
using rpc::kBlobEnvelope;
using rpc::kDigestReply;
using rpc::kMaintEnvelope;

/// Registry series for the rebalance subsystem. `rebalance.dual_writes` and
/// `rebalance.chain_dual_writes` are incremented by the client's mutation
/// legs; they are interned here too so a metrics snapshot taken before the
/// first dual write still carries the series.
struct RebalanceMetrics {
  obs::Counter& keys_moved;
  obs::Counter& bytes_moved;
  obs::Counter& dual_writes;
  obs::Counter& batches;
  obs::Counter& verify_recopies;
  obs::ShardedHistogram& migration_us;

  RebalanceMetrics()
      : keys_moved(obs::MetricsRegistry::global().counter("rebalance.keys_moved")),
        bytes_moved(obs::MetricsRegistry::global().counter("rebalance.bytes_moved")),
        dual_writes(obs::MetricsRegistry::global().counter("rebalance.dual_writes")),
        batches(obs::MetricsRegistry::global().counter("rebalance.batches")),
        verify_recopies(
            obs::MetricsRegistry::global().counter("rebalance.verify_recopies")),
        migration_us(
            obs::MetricsRegistry::global().histogram("rebalance.migration_us")) {
    // Gauges published by the store; touching them here pins the series.
    obs::MetricsRegistry::global().gauge("rebalance.epoch");
    obs::MetricsRegistry::global().gauge("rebalance.active");
    obs::MetricsRegistry::global().gauge("rebalance.chain_depth");
    obs::MetricsRegistry::global().counter("rebalance.chain_dual_writes");
  }
};

RebalanceMetrics& rebalance_metrics() {
  static RebalanceMetrics m;
  return m;
}

/// Ascending union of replica sets — the rebalancer's lock set for one key
/// (same ascending-node global order the clients use).
std::vector<std::uint32_t> lock_union(const std::vector<std::uint32_t>& a,
                                      const std::vector<std::uint32_t>& b,
                                      const std::vector<std::uint32_t>& c = {}) {
  std::vector<std::uint32_t> u;
  u.reserve(a.size() + b.size() + c.size());
  u.insert(u.end(), a.begin(), a.end());
  u.insert(u.end(), b.begin(), b.end());
  u.insert(u.end(), c.begin(), c.end());
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

bool contains(const std::vector<std::uint32_t>& v, std::uint32_t n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

/// Wire bytes of one migration sub-op, sized exactly like the PR-6 batch
/// path would ship it (one BatchOp write descriptor + payload).
std::uint64_t copy_wire_bytes(const std::string& key, std::uint64_t payload) {
  rpc::BatchOp op;
  op.kind = rpc::BatchOpKind::write;
  op.key = key;
  op.len = payload;
  const std::uint64_t header = rpc::wire_size(op);  // data view empty: header only
  return header + payload;
}

}  // namespace

Rebalancer::Rebalancer(BlobStore& store, std::shared_ptr<MigrationWindow> window,
                       RebalanceConfig cfg)
    : store_(&store), win_(std::move(window)), cfg_(cfg) {
  if (cfg_.batch_keys == 0) cfg_.batch_keys = 1;
  std::shared_lock lk(store_->mig_mu_);
  prog_.keys_total = win_->plan.keys.size();
}

Rebalancer::~Rebalancer() { join(); }

std::uint64_t Rebalancer::pending_count() const {
  std::shared_lock lk(store_->mig_mu_);
  return win_->plan.pending;
}

bool Rebalancer::done() const { return pending_count() == 0; }

void Rebalancer::flip_migrated(MigrationWindow& win, const std::string& key) {
  // Caller still holds the key's stripes on every involved server, so a
  // writer whose placement said "pending" is either serialized before this
  // flip (the copy above included its write) or after it (it re-fetches
  // placement per-op and dual-applied to the new owners anyway).
  std::unique_lock lk(store_->mig_mu_);
  auto it = win.plan.keys.find(key);
  if (it == win.plan.keys.end()) return;
  if (it->second.state != MigrationPlan::KeyState::pending) return;
  it->second.state = MigrationPlan::KeyState::migrated;
  --win.plan.pending;
}

Status Rebalancer::migrate_entry(MigrationWindow& win, const std::string& key,
                                 std::map<std::uint32_t, NodeCharge>* charges,
                                 std::uint64_t* moved_bytes,
                                 bool require_live_targets) {
  BlobStore& st = *store_;
  for (int attempt = 0; attempt < 4; ++attempt) {
    // Snapshot the entry and the chain fold: the fold's authoritative set is
    // where the data lives (an older window's old set while that window is
    // still draining) — the entry's own old set may not hold it yet.
    std::vector<std::uint32_t> auth;
    std::vector<std::uint32_t> targets;
    std::vector<std::uint32_t> involved;
    {
      std::shared_lock lk(st.mig_mu_);
      const auto it = win.plan.keys.find(key);
      if (it == win.plan.keys.end() ||
          it->second.state != MigrationPlan::KeyState::pending) {
        return Status::success();  // raced: already migrated or re-based away
      }
      auth = st.placement_locked(key).replicas;
      for (std::uint32_t t : it->second.new_replicas) {
        if (!contains(it->second.old_replicas, t)) targets.push_back(t);
      }
      involved = lock_union(auth, it->second.old_replicas, it->second.new_replicas);
    }
    std::vector<BlobServer::KeyLock> locks;
    locks.reserve(involved.size());
    for (std::uint32_t n : involved) locks.push_back(st.servers_[n]->lock_key(key));

    // Re-validate under the stripes: another window's finalize (mig_mu_
    // exclusive, no stripes held) may have re-based this entry or shifted
    // the fold between the snapshot and the lock acquisition.
    {
      std::shared_lock lk(st.mig_mu_);
      const auto it = win.plan.keys.find(key);
      if (it == win.plan.keys.end() ||
          it->second.state != MigrationPlan::KeyState::pending) {
        return Status::success();
      }
      std::vector<std::uint32_t> targets_now;
      for (std::uint32_t t : it->second.new_replicas) {
        if (!contains(it->second.old_replicas, t)) targets_now.push_back(t);
      }
      if (st.placement_locked(key).replicas != auth || targets_now != targets) {
        continue;  // stale snapshot — drop the stripes and retry
      }
    }

    // Freshest live source among the fold-authoritative replicas.
    const auto best = st.freshest(key, auth);
    if (!best) {
      if (std::any_of(auth.begin(), auth.end(),
                      [&](std::uint32_t r) { return st.is_down(r); })) {
        // The only holders are down — defer; finalize retries after recovery.
        return {Errc::busy, "no live source for " + key};
      }
      // Removed on every live authoritative replica while pending: nothing to
      // move (the dual-applied remove already cleared any pending-target copy).
      flip_migrated(win, key);
      std::scoped_lock plk(prog_mu_);
      ++prog_.keys_moved;
      return Status::success();
    }

    BlobServer& src = *st.servers_[best->index];
    auto size = src.peek_size(key);
    if (!size.ok()) {
      flip_migrated(win, key);
      std::scoped_lock plk(prog_mu_);
      ++prog_.keys_moved;
      return Status::success();
    }
    SimMicros src_svc = 0;
    auto data = src.read_locked(key, 0, size.value(), &src_svc);
    if (!data.ok()) return data.error();
    if (charges) {
      auto& c = (*charges)[best->index];
      c.service_us += src_svc;
    }

    bool deferred_down_target = false;
    for (std::uint32_t t : targets) {
      if (st.is_down(t)) {
        // Mirror hinted handoff: the drain after recovery installs the copy;
        // finalize() re-verifies before the window can close. A hint is
        // volatile, so in require_live_targets mode the entry must stay
        // pending (the caller gets Errc::busy below) — the hinted source
        // remains authoritative until the target actually holds the data.
        if (src.add_hint(t, key)) {
          std::scoped_lock plk(prog_mu_);
          ++prog_.hinted_down_targets;
        }
        if (require_live_targets) deferred_down_target = true;
        continue;
      }
      // Version-exact copy — but never backwards: a dual write that already
      // landed on the pending owner may have advanced it past the source
      // snapshot we hold.
      const Version tv = st.servers_[t]->peek_version(key).value_or(0);
      if (tv >= best->version) {
        std::scoped_lock plk(prog_mu_);
        ++prog_.skipped_fresh;
        continue;
      }
      SimMicros put_svc = 0;
      auto ist = st.servers_[t]->install_copy_locked(key, as_view(data.value().data),
                                                     size.value(), best->version, &put_svc);
      if (!ist.ok()) return ist;
      if (charges) {
        auto& c = (*charges)[t];
        c.wire_bytes += copy_wire_bytes(key, size.value());
        ++c.subs;
        c.service_us += put_svc;
      }
      if (moved_bytes) *moved_bytes += size.value();
      {
        std::scoped_lock plk(prog_mu_);
        ++prog_.copies_installed;
        prog_.bytes_moved += size.value();
      }
      rebalance_metrics().bytes_moved.add(size.value());
    }

    if (deferred_down_target) {
      return {Errc::busy, "target down for " + key + "; hinted, not migrated"};
    }
    flip_migrated(win, key);
    {
      std::scoped_lock plk(prog_mu_);
      ++prog_.keys_moved;
    }
    rebalance_metrics().keys_moved.inc();
    return Status::success();
  }
  // Four straight snapshot invalidations: heavy concurrent cutover churn.
  // The key stays pending; the next step() retries it.
  return {Errc::busy, "placement churned under migration of " + key};
}

void Rebalancer::pace(sim::SimAgent* agent, std::uint64_t batch_bytes) {
  if (agent == nullptr || cfg_.throttle_bytes_per_sec == 0) return;
  const double secs = static_cast<double>(batch_bytes) /
                      static_cast<double>(cfg_.throttle_bytes_per_sec);
  // The horizon is store-shared: every open window's batches push it, so
  // concurrent migrations split one bandwidth budget.
  std::scoped_lock tl(store_->mig_throttle_.mu);
  SimMicros& next = store_->mig_throttle_.next_allowed_us;
  next = std::max(next, agent->now()) + static_cast<SimMicros>(secs * 1e6);
}

Status Rebalancer::step(sim::SimAgent* agent) {
  if (finished() || cancelled()) return Status::success();
  BlobStore& st = *store_;

  // Throttle: the cumulative bytes of every window's previous batches
  // dictate when this one may start.
  if (agent != nullptr && cfg_.throttle_bytes_per_sec != 0) {
    SimMicros horizon = 0;
    {
      std::scoped_lock tl(st.mig_throttle_.mu);
      horizon = st.mig_throttle_.next_allowed_us;
    }
    agent->advance_to(horizon);
  }
  const SimMicros batch_start = agent ? agent->now() : 0;

  // Snapshot the next batch of pending keys (deterministic map order).
  std::vector<std::string> batch;
  {
    std::shared_lock lk(st.mig_mu_);
    if (win_->plan.pending == 0) return Status::success();
    batch.reserve(cfg_.batch_keys);
    for (const auto& [key, entry] : win_->plan.keys) {
      if (entry.state != MigrationPlan::KeyState::pending) continue;
      batch.push_back(key);
      if (batch.size() >= cfg_.batch_keys) break;
    }
  }
  if (batch.empty()) return Status::success();

  std::map<std::uint32_t, NodeCharge> charges;
  std::uint64_t batch_bytes = 0;
  std::uint64_t deferred = 0;
  for (const auto& key : batch) {
    if (cancelled()) break;
    auto s = migrate_entry(*win_, key, &charges, &batch_bytes);
    if (!s.ok()) {
      if (s.code() == Errc::busy) {
        ++deferred;  // stays pending; finalize retries after recovery
        continue;
      }
      return s;
    }
  }
  if (deferred > 0) {
    std::scoped_lock plk(prog_mu_);
    prog_.deferred += deferred;
  }

  // Charge the batch as one envelope per destination (the PR-6 batch-path
  // shape: one queueing trip per server regardless of sub-op count).
  SimMicros batch_done = batch_start;
  for (const auto& [n, c] : charges) {
    // Pure source read service is a maintenance read, not a batch envelope.
    const bool batch = c.subs != 0 || c.wire_bytes != 0;
    const std::uint64_t req = batch ? kBlobEnvelope + c.wire_bytes : kMaintEnvelope;
    const std::uint64_t resp =
        batch ? kBlobEnvelope + c.subs * rpc::wire_size(rpc::BatchSubStatus{}) : kMaintEnvelope;
    batch_done = std::max(
        batch_done,
        st.transport_.call_reliable(agent, st.servers_[n]->node(), req, resp, c.service_us)
            .completion);
    if (!batch) continue;
    {
      std::scoped_lock plk(prog_mu_);
      ++prog_.batches;
    }
    rebalance_metrics().batches.inc();
  }
  if (agent) {
    rebalance_metrics().migration_us.add(
        static_cast<std::uint64_t>(std::max<SimMicros>(0, batch_done - batch_start)));
  }
  pace(agent, batch_bytes);
  return Status::success();
}

Status Rebalancer::run_to_completion(sim::SimAgent* agent) {
  std::uint64_t last_pending = ~0ull;
  while (!cancelled()) {
    const std::uint64_t before = pending_count();
    if (before == 0) break;
    if (before == last_pending) break;  // only deferred (down-source) keys left
    last_pending = before;
    auto s = step(agent);
    if (!s.ok()) return s;
  }
  if (cancelled()) return Status::success();  // pause: the window stays open
  return finalize(agent);
}

Status Rebalancer::finalize(sim::SimAgent* agent) {
  if (finished()) return Status::success();
  BlobStore& st = *store_;

  // Drain anything still pending (deferred keys may have live sources now).
  std::uint64_t last_pending = ~0ull;
  while (true) {
    const std::uint64_t before = pending_count();
    if (before == 0) break;
    if (before == last_pending) {
      return {Errc::busy, "unmigrated keys remain (source replicas down)"};
    }
    last_pending = before;
    auto s = step(agent);
    if (!s.ok()) return s;
  }

  // Snapshot the plan for the verify + drop passes.
  std::vector<std::pair<std::string, MigrationPlan::Entry>> entries;
  {
    std::shared_lock lk(st.mig_mu_);
    entries.reserve(win_->plan.keys.size());
    for (const auto& kv : win_->plan.keys) entries.push_back(kv);
  }

  // Verify sweep: every new-only owner must hold the key at (at least) the
  // freshest live fold-authoritative version; a decommission additionally
  // digest-compares contents so the drain is verified, not assumed.
  // Stragglers (e.g. a dual write that missed its pending target) are
  // re-copied here.
  for (const auto& [key, entry] : entries) {
    std::vector<std::uint32_t> auth;
    {
      std::shared_lock lk(st.mig_mu_);
      auth = st.placement_locked(key).replicas;
    }
    const std::vector<std::uint32_t> involved =
        lock_union(auth, entry.old_replicas, entry.new_replicas);
    std::vector<BlobServer::KeyLock> locks;
    locks.reserve(involved.size());
    for (std::uint32_t n : involved) locks.push_back(st.servers_[n]->lock_key(key));

    const auto best = st.freshest(key, auth);
    if (!best) continue;  // removed during the window: nothing to verify

    BlobServer& src = *st.servers_[best->index];
    auto size = src.peek_size(key);
    if (!size.ok()) continue;
    SimMicros src_svc = 0;
    auto data = src.read_locked(key, 0, size.value(), &src_svc);
    if (!data.ok()) return data.error();
    const std::uint64_t src_digest = content_checksum(as_view(data.value().data));

    for (std::uint32_t t : entry.new_replicas) {
      if (contains(entry.old_replicas, t)) continue;
      if (st.is_down(t)) {
        if (kind() == Kind::decommission) {
          return {Errc::busy,
                  "decommission drain unverified: target " + std::to_string(t) +
                      " is down"};
        }
        continue;  // add: the hint installs it on recovery; resync backstops
      }
      BlobServer& dst = *st.servers_[t];
      const Version dv = dst.peek_version(key).value_or(0);
      bool recopy = dv < best->version;
      if (!recopy && dv == best->version && kind() == Kind::decommission) {
        // Digest comparison against the draining source's copy. A target
        // FRESHER than the source (dual write landed after our snapshot)
        // needs no repair — overwriting it would roll an acked write back.
        auto dsize = dst.peek_size(key);
        SimMicros dsvc = 0;
        auto ddata = dsize.ok() ? dst.read_locked(key, 0, dsize.value(), &dsvc)
                                : Result<ReadOutcome>(dsize.error());
        const bool match = ddata.ok() &&
                           content_checksum(as_view(ddata.value().data)) == src_digest;
        {
          std::scoped_lock plk(prog_mu_);
          ++prog_.digests_checked;
        }
        if (agent) {
          st.transport_.call_reliable(agent, dst.node(), kMaintEnvelope, kDigestReply, dsvc);
        }
        recopy = !match;
      }
      if (recopy) {
        SimMicros put_svc = 0;
        auto ist = dst.install_copy_locked(key, as_view(data.value().data),
                                           size.value(), best->version, &put_svc);
        if (!ist.ok()) return ist;
        st.transport_.call_reliable(agent, dst.node(), size.value() + kMaintEnvelope,
                                    kMaintEnvelope, put_svc);
        {
          std::scoped_lock plk(prog_mu_);
          ++prog_.verify_recopies;
        }
        rebalance_metrics().verify_recopies.inc();
      }
    }
  }

  // A decommission may not cut over while the leaving node is still
  // AUTHORITATIVE for keys of OLDER open windows (their pending entries'
  // old sets contain it — the sweep below would destroy live copies).
  // Force-complete those entries now, oldest window first: the same copy
  // the owning window's rebalancer would make, just on this window's
  // schedule. Flipping them walks the subject out of every fold.
  if (kind() == Kind::decommission) {
    std::vector<std::pair<std::shared_ptr<MigrationWindow>, std::string>> work;
    {
      std::shared_lock lk(st.mig_mu_);
      for (const auto& w : st.chain_) {
        if (w.get() == win_.get()) break;  // only windows OLDER than this one
        for (const auto& [k, e] : w->plan.keys) {
          if (e.state == MigrationPlan::KeyState::pending &&
              contains(e.old_replicas, subject())) {
            work.emplace_back(w, k);
          }
        }
      }
    }
    std::uint64_t forced_bytes = 0;
    for (const auto& [w, k] : work) {
      // require_live_targets: a force-completed entry may NOT settle for a
      // hint on a down target — flipping it would walk the subject out of
      // the fold and the sweeps below would delete the only durable copy of
      // an acked write. Busy keeps this window open (same verdict the
      // verify sweep gives for this window's own entries); recover the
      // target and call finalize() again.
      auto s = migrate_entry(*w, k, nullptr, &forced_bytes,
                             /*require_live_targets=*/true);
      if (!s.ok()) return s;  // busy: a source or target is down — stay open
    }
  }

  // Cutover: remove this window from the chain and bump the epoch BEFORE
  // dropping stale copies, so a client still holding a pending-window
  // placement fails the stamp check (and re-fetches) rather than reading a
  // replica the drop pass is about to clear. A decommission additionally
  // re-bases the surviving windows' entries: the leaving node is stripped
  // from their dual-write target sets so no fold ever resolves to it again.
  std::uint64_t rebased = 0;
  {
    std::unique_lock lk(st.mig_mu_);
    auto it = std::find_if(st.chain_.begin(), st.chain_.end(),
                           [&](const auto& w) { return w.get() == win_.get(); });
    if (it != st.chain_.end()) st.chain_.erase(it);
    if (kind() == Kind::decommission) {
      for (const auto& w : st.chain_) {
        for (auto& [k, e] : w->plan.keys) {
          (void)k;
          auto ne = std::remove(e.new_replicas.begin(), e.new_replicas.end(),
                                subject());
          if (ne != e.new_replicas.end()) {
            e.new_replicas.erase(ne, e.new_replicas.end());
            ++rebased;
          }
        }
      }
    }
    // Bump BEFORE clearing migrating_: a client that observes the cleared
    // flag takes placement_of's lock-free fast path and must already see the
    // post-cutover epoch on its stamp.
    st.ring_.bump_epoch();
    st.migrating_.store(!st.chain_.empty(), std::memory_order_release);
  }
  if (rebased > 0) {
    std::scoped_lock plk(prog_mu_);
    prog_.rebased_entries += rebased;
  }
  st.publish_epoch();

  // Drop copies nothing places anymore: every node this window's entries
  // ever involved (old or new side) that the post-cutover fold — which
  // still sees the surviving windows — neither lists as authoritative nor
  // as a dual-write target.
  for (const auto& [key, entry] : entries) {
    const Placement p = st.placement_of(key);
    for (std::uint32_t n : lock_union(entry.old_replicas, entry.new_replicas)) {
      if (contains(p.replicas, n) || contains(p.pending, n)) continue;
      if (st.is_down(n)) continue;  // resync's ghost pass cleans it later
      BlobServer& holder = *st.servers_[n];
      SimMicros peek_svc = 0;
      if (!holder.stat(key, &peek_svc).ok()) continue;
      SimMicros rm_svc = 0;
      (void)holder.remove(key, &rm_svc);
      st.transport_.call_reliable(agent, holder.node(), kMaintEnvelope, kMaintEnvelope,
                                  peek_svc + rm_svc);
      std::scoped_lock plk(prog_mu_);
      ++prog_.copies_dropped;
    }
  }

  // A decommissioned server leaves empty: sweep whatever it still holds —
  // except keys an older still-open window's fold still pins to it (its
  // copy there is authoritative until that window migrates the key; that
  // window's own finalize drops it).
  if (kind() == Kind::decommission && !st.is_down(subject())) {
    BlobServer& subj = *st.servers_[subject()];
    SimMicros scan_svc = 0;
    for (const auto& s : subj.scan("", &scan_svc)) {
      const Placement p = st.placement_of(s.key);
      if (contains(p.replicas, subject()) || contains(p.pending, subject())) continue;
      SimMicros rm_svc = 0;
      (void)subj.remove(s.key, &rm_svc);
      std::scoped_lock plk(prog_mu_);
      ++prog_.copies_dropped;
    }
  }

  finished_.store(true, std::memory_order_release);
  return Status::success();
}

Status Rebalancer::abort(sim::SimAgent* agent) {
  if (finished()) return {Errc::busy, "window already finalized"};
  BlobStore& st = *store_;
  cancel();
  join();

  // Snapshot the entries for the cleanup pass below.
  std::vector<std::pair<std::string, MigrationPlan::Entry>> entries;
  {
    std::shared_lock lk(st.mig_mu_);
    entries.reserve(win_->plan.keys.size());
    for (const auto& kv : win_->plan.keys) entries.push_back(kv);
  }

  // Undo the membership delta and remove the window from the chain. Vnode
  // placement depends only on (node id, weight), and open windows have
  // distinct subjects, so re-deriving the surviving windows' ring sequence
  // afterwards reproduces their placements exactly.
  {
    std::unique_lock lk(st.mig_mu_);
    auto it = std::find_if(st.chain_.begin(), st.chain_.end(),
                           [&](const auto& w) { return w.get() == win_.get(); });
    if (it != st.chain_.end()) st.chain_.erase(it);
    if (kind() == Kind::add) {
      if (st.ring_.has_node(subject())) st.ring_.remove_node(subject());
    } else {
      if (!st.ring_.has_node(subject())) st.ring_.add_node(subject(), win_->weight);
    }
    st.migrating_.store(!st.chain_.empty(), std::memory_order_release);
  }
  // Surviving windows' plans were computed against ring states that
  // included the reverted delta — rebuild them against the restored
  // sequence, deriving each entry's state from who actually holds the data.
  st.rebuild_chain_plans();
  st.publish_epoch();

  // Drop the copies this window's migration installed that nothing places
  // anymore (fold-checked: a surviving window may legitimately keep one).
  for (const auto& [key, entry] : entries) {
    const Placement p = st.placement_of(key);
    for (std::uint32_t t : entry.new_replicas) {
      if (contains(entry.old_replicas, t)) continue;
      if (contains(p.replicas, t) || contains(p.pending, t)) continue;
      if (st.is_down(t)) continue;
      BlobServer& holder = *st.servers_[t];
      SimMicros peek_svc = 0;
      if (!holder.stat(key, &peek_svc).ok()) continue;
      SimMicros rm_svc = 0;
      (void)holder.remove(key, &rm_svc);
      st.transport_.call_reliable(agent, holder.node(), kMaintEnvelope, kMaintEnvelope,
                                  peek_svc + rm_svc);
      std::scoped_lock plk(prog_mu_);
      ++prog_.copies_dropped;
    }
  }

  // An aborted joiner leaves empty — it owns no placement on any surviving
  // ring state.
  if (kind() == Kind::add && !st.is_down(subject())) {
    BlobServer& subj = *st.servers_[subject()];
    SimMicros scan_svc = 0;
    for (const auto& s : subj.scan("", &scan_svc)) {
      SimMicros rm_svc = 0;
      (void)subj.remove(s.key, &rm_svc);
      std::scoped_lock plk(prog_mu_);
      ++prog_.copies_dropped;
    }
  }

  finished_.store(true, std::memory_order_release);
  return Status::success();
}

void Rebalancer::start_async() {
  if (thread_.joinable()) return;
  // The async driver charges no SimAgent (wall-clock maintenance); tests
  // that assert simulated timing drive step() inline instead.
  thread_ = std::thread([this] { (void)run_to_completion(nullptr); });
}

void Rebalancer::join() {
  if (thread_.joinable()) thread_.join();
}

RebalanceProgress Rebalancer::progress() const {
  std::scoped_lock lk(prog_mu_);
  return prog_;
}

}  // namespace bsc::blob
