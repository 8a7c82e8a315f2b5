#include "blob/store.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "persist/checkpoint.hpp"
#include "rpc/envelope.hpp"

namespace bsc::blob {

using rpc::kMaintEnvelope;

BlobStore::BlobStore(sim::Cluster& cluster, StoreConfig cfg)
    : cluster_(&cluster), cfg_(cfg), transport_(cluster), ring_(cfg.vnodes_per_node) {
  servers_.reserve(cluster.storage_count());
  for (std::size_t i = 0; i < cluster.storage_count(); ++i) {
    servers_.push_back(std::make_unique<BlobServer>(cluster.storage_node(i)));
    ring_.add_node(static_cast<std::uint32_t>(i));
    down_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  for (auto& s : servers_) s->set_ring_epoch(ring_.epoch());
}

BlobStore::~BlobStore() {
  for (auto& r : rebalancers_) r->join();
}

Placement BlobStore::placement_of(std::string_view key) const {
  if (!migrating_.load(std::memory_order_acquire)) {
    return {ring_.locate(key, cfg_.replication), {}, ring_.epoch(), 0};
  }
  std::shared_lock lk(mig_mu_);
  return placement_locked(key);
}

Placement BlobStore::placement_locked(std::string_view key) const {
  // The chain fold, oldest→newest. The OLDEST window holding a pending
  // entry for the key is authoritative: its old set is where acked data
  // lives, so reads, acks and quorum counting stay there. Everything the
  // key is heading toward — that window's new-only owners, every newer
  // window's new-only owners, and the final ring placement — is a
  // dual-write target until the copies land and the windows close.
  const std::string k(key);
  std::size_t first = chain_.size();
  std::uint32_t pending_windows = 0;
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    const auto it = chain_[i]->plan.keys.find(k);
    if (it == chain_[i]->plan.keys.end()) continue;
    if (it->second.state == MigrationPlan::KeyState::pending) {
      ++pending_windows;
      if (first == chain_.size()) first = i;
    }
  }
  if (first == chain_.size()) {
    // No pending entry anywhere: either untouched by every open window, or
    // migrated through all of them — the target ring is authoritative.
    return {ring_.locate(key, cfg_.replication), {}, ring_.epoch(), 0};
  }
  const MigrationPlan::Entry& f = chain_[first]->plan.keys.find(k)->second;
  Placement p{f.old_replicas, {}, ring_.epoch(), pending_windows};
  const auto add_pending = [&p](const std::vector<std::uint32_t>& set) {
    for (std::uint32_t n : set) {
      if (std::find(p.replicas.begin(), p.replicas.end(), n) != p.replicas.end()) {
        continue;
      }
      if (std::find(p.pending.begin(), p.pending.end(), n) != p.pending.end()) {
        continue;
      }
      p.pending.push_back(n);
    }
  };
  add_pending(f.new_replicas);
  for (std::size_t i = first + 1; i < chain_.size(); ++i) {
    const auto it = chain_[i]->plan.keys.find(k);
    if (it == chain_[i]->plan.keys.end()) continue;
    add_pending(it->second.new_replicas);  // migrated entries too: future owners
  }
  add_pending(ring_.locate(key, cfg_.replication));
  return p;
}

std::size_t BlobStore::migration_chain_depth() const {
  std::shared_lock lk(mig_mu_);
  return chain_.size();
}

void BlobStore::publish_epoch() {
  // publish_mu_ serializes concurrent publishers (e.g. two sibling windows
  // finalizing at once): snapshots are taken in lock order and written in
  // that same order, so the record on disk is always the newest consistent
  // snapshot — never an interleaved write, never a resurrection of a window
  // whose cutover already happened.
  std::scoped_lock pub(publish_mu_);
  persist::MembershipRecord rec;
  std::size_t depth = 0;
  std::uint64_t e = 0;
  {
    // Epoch, chain, and membership are read under one mig_mu_ hold so they
    // are mutually consistent: cutover mutates all of them under the
    // exclusive side of this lock.
    std::shared_lock lk(mig_mu_);
    e = ring_.epoch();
    depth = chain_.size();
    if (!persist_base_dir_.empty()) {
      rec.epoch = e;
      rec.members = ring_.members();
      rec.weights.reserve(rec.members.size());
      for (std::uint32_t m : rec.members) rec.weights.push_back(ring_.weight_of(m));
      for (const auto& w : chain_) {
        persist::MembershipRecord::OpenWindow ow;
        ow.id = w->id;
        ow.epoch_at_open = w->epoch_at_open;
        ow.kind = w->kind == MigrationWindow::Kind::add ? 0 : 1;
        ow.subject = w->subject;
        ow.weight = w->weight;
        ow.batch_keys = w->cfg.batch_keys;
        ow.throttle_bytes_per_sec = w->cfg.throttle_bytes_per_sec;
        rec.windows.push_back(ow);
      }
    }
  }
  for (auto& s : servers_) s->set_ring_epoch(e);
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("rebalance.epoch").set(static_cast<std::int64_t>(e));
  reg.gauge("rebalance.chain_depth").set(static_cast<std::int64_t>(depth));
  reg.gauge("rebalance.active").set(depth > 0 ? 1 : 0);
  if (!persist_base_dir_.empty()) {
    (void)persist::write_membership(persist_base_dir_, rec);
  }
}

Status BlobStore::recover_membership() {
  if (persist_base_dir_.empty()) return Status::success();
  auto rec = persist::load_membership(persist_base_dir_);
  if (!rec.ok()) {
    return rec.code() == Errc::not_found ? Status::success() : rec.error().code;
  }
  const persist::MembershipRecord& r = rec.value();
  // Every recorded member and every open window's subject needs a live
  // server object (they bind to SimNodes and cannot come from disk) —
  // reattach_server registers them for indices past the construction set.
  for (std::uint32_t m : r.members) {
    if (m >= servers_.size()) {
      return {Errc::invalid_argument,
              "member " + std::to_string(m) +
                  " has no server object; reattach_server it first"};
    }
  }
  for (const auto& ow : r.windows) {
    if (ow.subject >= servers_.size()) {
      return {Errc::invalid_argument,
              "window subject " + std::to_string(ow.subject) +
                  " has no server object; reattach_server it first"};
    }
  }
  // Removals are re-applied (a decommissioned server must not rejoin the
  // ring just because the process restarted) and recorded members the
  // fresh ring lacks are re-added at their recorded weight. Epoch never
  // moves backwards.
  for (std::uint32_t i = 0; i < servers_.size(); ++i) {
    const auto it = std::find(r.members.begin(), r.members.end(), i);
    const bool member = it != r.members.end();
    if (!member && ring_.has_node(i)) ring_.remove_node(i);
    if (member && !ring_.has_node(i)) {
      const auto pos = static_cast<std::size_t>(it - r.members.begin());
      const double w = pos < r.weights.size() ? r.weights[pos] : 1.0;
      ring_.add_node(i, w);
    }
  }
  ring_.set_epoch(r.epoch);
  // Reopen every persisted migration window, oldest first: the chain
  // structure comes from the record, the plans are rebuilt from who
  // actually holds the data (a restart mid-migration resumes where the
  // copies left off instead of assuming a single clean window).
  {
    std::unique_lock lk(mig_mu_);
    chain_.clear();
    for (const auto& ow : r.windows) {
      auto win = std::make_shared<MigrationWindow>();
      win->id = ow.id;
      win->epoch_at_open = ow.epoch_at_open;
      win->kind = ow.kind == 0 ? MigrationWindow::Kind::add
                               : MigrationWindow::Kind::decommission;
      win->subject = ow.subject;
      win->weight = ow.weight;
      win->cfg.batch_keys = static_cast<std::size_t>(ow.batch_keys);
      win->cfg.throttle_bytes_per_sec = ow.throttle_bytes_per_sec;
      chain_.push_back(std::move(win));
      next_window_id_ = std::max(next_window_id_, ow.id + 1);
    }
    migrating_.store(!chain_.empty(), std::memory_order_release);
  }
  std::vector<std::shared_ptr<MigrationWindow>> reopened;
  {
    std::shared_lock lk(mig_mu_);
    reopened = chain_;
  }
  if (!reopened.empty()) rebuild_chain_plans();
  for (const auto& w : reopened) {
    // Resume each drain with the config the window was opened with (restored
    // from the record) — not the defaults, which would drop the operator's
    // bandwidth cap.
    rebalancers_.push_back(std::make_unique<Rebalancer>(*this, w, w->cfg));
  }
  publish_epoch();
  return Status::success();
}

void BlobStore::fail_server(std::uint32_t index) {
  down_[index]->store(true, std::memory_order_release);
}

void BlobStore::recover_server(std::uint32_t index, sim::SimAgent* agent,
                               HintStats* stats) {
  down_[index]->store(false, std::memory_order_release);
  drain_hints(index, agent, stats);
}

void BlobStore::drain_hints(std::uint32_t index, sim::SimAgent* agent,
                            HintStats* stats) {
  // Every surviving server may hold hints for the recovered one; union the
  // hinted key sets (the same key can be hinted by several coordinators).
  // Drain order is part of the determinism contract: coordinators are
  // visited in ascending server index and the union is drained in sorted
  // key order, so a fixed-seed chaos run issues the identical repair
  // sequence on every platform/sanitizer — even when a membership change
  // interleaved with the outage and reshuffled who hinted what.
  std::vector<std::string> keys;
  for (std::uint32_t j = 0; j < servers_.size(); ++j) {
    if (j == index || is_down(j)) continue;
    for (auto& k : servers_[j]->take_hints_for(index)) keys.push_back(std::move(k));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (keys.empty()) return;

  BlobServer& target = *servers_[index];
  for (const auto& key : keys) {
    // Placement-aware ownership check: while a migration window is open the
    // recovered server may own `key` only as a PENDING (new) owner — the
    // hint is still live (the dual write it records was acked against the
    // old set and the migration copy may have happened before the hint's
    // mutation). Dropping it would strand the pending copy stale until
    // finalize's verify pass.
    const Placement p = placement_of(key);
    const bool owner =
        std::find(p.replicas.begin(), p.replicas.end(), index) != p.replicas.end() ||
        std::find(p.pending.begin(), p.pending.end(), index) != p.pending.end();
    if (!owner) {
      continue;  // ring changed while down; rebalance owns this key now
    }
    // Source = freshest live holder. A hint records *that* a mutation was
    // missed, not its payload, so the repair copies current state — which
    // subsumes any ops missed after the hint was written.
    const auto best = freshest(key, p.replicas, index);
    if (!best) {
      // No live replica holds the key: it was removed after the hint was
      // recorded. Dropping the recovered server's stale copy (if any) —
      // installing it would resurrect a deleted blob.
      SimMicros svc = 0;
      if (target.stat(key, &svc).ok()) {
        SimMicros rm_svc = 0;
        (void)target.remove(key, &rm_svc);
        svc += rm_svc;
        if (stats) ++stats->removed;
      }
      transport_.call_reliable(agent, target.node(), kMaintEnvelope, kMaintEnvelope, svc);
      continue;
    }
    if (target.peek_version(key).value_or(0) >= best->version) {
      continue;  // already as fresh as any live holder (e.g. WAL recovery)
    }
    BlobServer& source = *servers_[best->index];
    SimMicros svc = 0;
    auto st = source.stat(key, &svc);
    if (!st.ok()) continue;
    const std::uint64_t size = st.value().size;
    auto data = source.read(key, 0, size, &svc);
    if (!data.ok()) continue;
    SimMicros put_svc = 0;
    if (!target.install_copy(key, as_view(data.value().data), size, best->version, &put_svc)
             .ok()) {
      continue;
    }
    transport_.call_reliable(agent, target.node(), size + kMaintEnvelope, kMaintEnvelope,
                             svc + put_svc);
    if (stats) ++stats->drained;
  }
}

bool BlobStore::is_down(std::uint32_t index) const {
  return down_[index]->load(std::memory_order_acquire);
}

std::optional<std::uint32_t> BlobStore::first_up(
    const std::vector<std::uint32_t>& replicas) const {
  for (std::uint32_t n : replicas) {
    if (!is_down(n)) return n;
  }
  return std::nullopt;
}

std::optional<BlobStore::ReplicaVersion> BlobStore::freshest(
    const std::string& key, const std::vector<std::uint32_t>& candidates,
    std::optional<std::uint32_t> exclude) const {
  std::optional<ReplicaVersion> best;
  for (std::uint32_t r : candidates) {
    if (r == exclude || is_down(r)) continue;
    auto v = servers_[r]->peek_version(key);
    if (v.ok() && (!best || v.value() > best->version)) best = ReplicaVersion{r, v.value()};
  }
  return best;
}

Status BlobStore::enable_persistence(const std::string& base_dir,
                                     persist::JournalConfig jcfg) {
  for (std::uint32_t i = 0; i < servers_.size(); ++i) {
    auto st = servers_[i]->enable_persistence(
        base_dir + "/server-" + std::to_string(i), jcfg);
    if (!st.ok()) return st;
  }
  // Remember the base so servers added later get journals too, and so
  // membership changes can persist their record for recovery.
  const bool have_record = persist::load_membership(base_dir).ok();
  persist_base_dir_ = base_dir;
  persist_jcfg_ = jcfg;
  if (have_record) {
    // A membership record survives from a previous incarnation. Writing one
    // here would stamp the construction-time member set over the removals it
    // encodes, so only propagate the epoch to the servers and leave the file
    // for recover_membership() (or the next membership change) to rewrite.
    const std::uint64_t e = ring_.epoch();
    for (auto& s : servers_) s->set_ring_epoch(e);
    obs::MetricsRegistry::global().gauge("rebalance.epoch").set(
        static_cast<std::int64_t>(e));
  } else {
    publish_epoch();
  }
  return Status::success();
}

void BlobStore::crash_server(std::uint32_t index) {
  fail_server(index);
  servers_[index]->crash();
}

Result<std::uint64_t> BlobStore::restart_server(std::uint32_t index, sim::SimAgent* agent,
                                                persist::RecoveryReport* report,
                                                ResyncStats* stats) {
  auto st = servers_[index]->restart(report);
  if (!st.ok()) return st.error();
  // recover_server drains hinted handoff first (targeted, version-exact);
  // the digest resync below only moves whatever no hint covered.
  recover_server(index, agent);
  // Local recovery already rebuilt everything the WAL captured; the resync
  // pass only moves the delta (updates missed while down, ghost removals).
  return resync_server(index, agent, stats);
}

std::uint64_t BlobStore::resync_server(std::uint32_t index, sim::SimAgent* agent,
                                       ResyncStats* stats) {
  if (is_down(index)) return 0;  // recover first
  // Collect every key that should live on `index`, as seen by any healthy
  // peer (the recovering server's own view may be stale or empty).
  std::map<std::string, std::uint32_t> to_repair;  // key -> source server
  for (std::uint32_t j = 0; j < servers_.size(); ++j) {
    if (j == index || is_down(j)) continue;
    SimMicros svc = 0;
    for (const auto& stat : servers_[j]->scan("", &svc)) {
      const auto replicas = replicas_of(stat.key);
      if (std::find(replicas.begin(), replicas.end(), index) == replicas.end()) continue;
      // Source = the acting primary among healthy peers.
      for (std::uint32_t r : replicas) {
        if (r != index && !is_down(r)) {
          to_repair.emplace(stat.key, r);
          break;
        }
      }
    }
  }
  std::uint64_t repaired = 0;

  // Deletion pass: keys the recovering server still holds but no healthy
  // peer knows were removed while it was down — drop the ghosts, or they
  // would resurrect through scan().
  {
    BlobServer& target = *servers_[index];
    SimMicros svc = 0;
    for (const auto& stat : target.scan("", &svc)) {
      if (to_repair.count(stat.key)) continue;  // will be overwritten anyway
      const auto replicas = replicas_of(stat.key);
      bool any_healthy_peer = false;
      bool held_by_peer = false;
      bool any_down_peer = false;
      for (std::uint32_t r : replicas) {
        if (r == index) continue;
        if (is_down(r)) {
          any_down_peer = true;
          continue;
        }
        any_healthy_peer = true;
        SimMicros peek_svc = 0;
        if (servers_[r]->stat(stat.key, &peek_svc).ok()) held_by_peer = true;
      }
      // Quorum mode cannot tell a ghost (removed while down) from an acked
      // copy whose only other holder is currently down — deleting the
      // latter would hide an acknowledged write until the peer returns.
      // Defer the deletion until the whole replica set is reachable.
      if (cfg_.write_quorum > 0 && any_down_peer) continue;
      if (any_healthy_peer && !held_by_peer) {
        SimMicros rm_svc = 0;
        (void)target.remove(stat.key, &rm_svc);
        // Charged as service only, outside any envelope (not yet a message).
        target.node().serve(agent ? agent->now() : 0, rm_svc);
        ++repaired;
        if (stats) ++stats->deleted;
      }
    }
  }

  for (const auto& [key, src] : to_repair) {
    BlobServer& source = *servers_[src];
    BlobServer& target = *servers_[index];
    if (stats) ++stats->examined;
    SimMicros svc = 0;
    auto st = source.stat(key, &svc);
    if (!st.ok()) continue;
    const std::uint64_t size = st.value().size;
    auto data = source.read(key, 0, size, &svc);
    if (!data.ok()) continue;

    const Version src_version = source.peek_version(key).value_or(1);

    // Never move a replica backward: if the target's copy is FRESHER than
    // this source (it survived a crash holding applies the source missed),
    // overwriting it could erase the last quorum copy of an acked write.
    // Leave it — scrub's freshest-wins pass spreads it the other way.
    if (target.peek_version(key).value_or(0) > src_version) {
      if (stats) ++stats->skipped_identical;
      continue;
    }

    // Delta check: a copy the target already holds (e.g. via local WAL
    // recovery) with identical content needs no recopy — only the digest
    // crosses the wire. Equality is judged on bytes; if the versions drifted
    // apart (quorum-mode misses) the target's is aligned to the source's, so
    // version arbitration keeps implying content equality afterwards.
    {
      SimMicros tsvc = 0;
      auto tst = target.stat(key, &tsvc);
      if (tst.ok() && tst.value().size == size) {
        auto tdata = target.read(key, 0, size, &tsvc);
        if (tdata.ok() && content_checksum(as_view(tdata.value().data)) ==
                              content_checksum(as_view(data.value().data))) {
          if (target.peek_version(key).value_or(0) != src_version) {
            auto lock = target.lock_exclusive();
            (void)target.force_version(key, src_version);
          }
          if (stats) ++stats->skipped_identical;
          transport_.call_reliable(agent, target.node(), kMaintEnvelope, kMaintEnvelope, tsvc);
          continue;
        }
      }
    }
    // Replace the target's copy wholesale with an exact install — contents,
    // logical size, and the source's version (holes come back as explicit
    // zeros), so the repaired replica is indistinguishable from one that
    // applied the original op stream.
    {
      SimMicros put_svc = 0;
      if (!target.install_copy(key, as_view(data.value().data), size, src_version, &put_svc)
               .ok()) {
        continue;
      }
      svc += put_svc;
    }
    transport_.call_reliable(agent, target.node(), size + kMaintEnvelope, kMaintEnvelope, svc);
    ++repaired;
    if (stats) {
      ++stats->copied;
      stats->bytes_copied += size;
    }
  }
  return repaired;
}

void BlobStore::build_plan(MigrationPlan& plan, const HashRing& before,
                           const HashRing& after) const {
  // Key universe: every live key with a reachable holder, scanned across
  // ALL registered servers — not just `before` members, because while older
  // windows are open their decommission subjects (already out of the ring)
  // still hold authoritative data. std::map keeps the plan (and thus
  // migration order) deterministic.
  std::set<std::string> universe;
  for (std::uint32_t j = 0; j < servers_.size(); ++j) {
    if (is_down(j)) continue;
    SimMicros svc = 0;
    for (const auto& s : servers_[j]->scan("", &svc)) universe.insert(s.key);
  }
  for (const std::string& key : universe) {
    MigrationPlan::Entry e;
    e.old_replicas = before.locate(key, cfg_.replication);
    e.new_replicas = after.locate(key, cfg_.replication);
    if (e.old_replicas == e.new_replicas) continue;  // ~ (N-K)/N of all keys
    plan.keys.emplace(key, std::move(e));
  }
  plan.pending = plan.keys.size();
}

void BlobStore::assign_plan_states(MigrationPlan& plan) const {
  // Holder-aware states for a rebuilt plan. The fold treats a pending
  // entry's old set as authoritative, so an entry may only stay pending if
  // that old set can actually serve the key: a live old-side holder, or a
  // down old member that might hold the freshest copy (conservative —
  // migration defers until it recovers). A key held only by new-side
  // owners (created after the delta, or migrated before the restart) is
  // migrated; a key nobody holds left no trace to move.
  std::uint64_t pending = 0;
  std::vector<std::string> gone;
  for (auto& [key, e] : plan.keys) {
    bool old_live_holds = false;
    bool old_down = false;
    bool new_live_holds = false;
    for (std::uint32_t r : e.old_replicas) {
      if (is_down(r)) {
        old_down = true;
        continue;
      }
      if (servers_[r]->peek_version(key).ok()) old_live_holds = true;
    }
    for (std::uint32_t r : e.new_replicas) {
      if (is_down(r)) continue;
      if (servers_[r]->peek_version(key).ok()) new_live_holds = true;
    }
    if (old_live_holds || old_down) {
      e.state = MigrationPlan::KeyState::pending;
      ++pending;
    } else if (new_live_holds) {
      e.state = MigrationPlan::KeyState::migrated;
    } else {
      gone.push_back(key);
    }
  }
  for (const auto& k : gone) plan.keys.erase(k);
  plan.pending = pending;
}

void BlobStore::rebuild_chain_plans() {
  std::vector<std::shared_ptr<MigrationWindow>> chain;
  {
    std::shared_lock lk(mig_mu_);
    chain = chain_;
  }
  if (chain.empty()) return;
  // Reconstruct the ring sequence by undoing the open deltas newest→oldest
  // from the current ring: rings[i] is the ring just before chain[i]'s
  // delta, rings[i+1] just after. Open windows have distinct subjects and
  // vnode placement depends only on (id, weight), so the reconstruction is
  // exact regardless of which siblings finalized or aborted in between.
  std::vector<HashRing> rings;
  rings.reserve(chain.size() + 1);
  rings.push_back(ring_);
  for (std::size_t i = chain.size(); i-- > 0;) {
    HashRing r = rings.back();
    if (chain[i]->kind == MigrationWindow::Kind::add) {
      if (r.has_node(chain[i]->subject)) r.remove_node(chain[i]->subject);
    } else {
      if (!r.has_node(chain[i]->subject)) r.add_node(chain[i]->subject, chain[i]->weight);
    }
    rings.push_back(std::move(r));
  }
  std::reverse(rings.begin(), rings.end());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    MigrationPlan plan;
    build_plan(plan, rings[i], rings[i + 1]);
    assign_plan_states(plan);
    std::unique_lock lk(mig_mu_);
    chain[i]->plan = std::move(plan);
  }
}

Rebalancer* BlobStore::open_window(MigrationWindow::Kind kind, std::uint32_t subject,
                                   double weight, const HashRing& before,
                                   RebalanceConfig rcfg) {
  auto win = std::make_shared<MigrationWindow>();
  win->kind = kind;
  win->subject = subject;
  win->weight = weight;
  win->cfg = rcfg;  // persisted with the window so recovered drains keep it
  win->epoch_at_open = ring_.epoch();
  build_plan(win->plan, before, ring_);
  {
    std::unique_lock lk(mig_mu_);
    win->id = next_window_id_++;
    chain_.push_back(win);
    migrating_.store(true, std::memory_order_release);
  }
  publish_epoch();
  rebalancers_.push_back(std::make_unique<Rebalancer>(*this, std::move(win), rcfg));
  return rebalancers_.back().get();
}

Result<std::uint32_t> BlobStore::begin_add_server(sim::SimNode& node,
                                                  RebalanceConfig rcfg, double weight) {
  const auto index = static_cast<std::uint32_t>(servers_.size());
  servers_.push_back(std::make_unique<BlobServer>(node));
  down_.push_back(std::make_unique<std::atomic<bool>>(false));
  if (!persist_base_dir_.empty()) {
    auto st = servers_[index]->enable_persistence(
        persist_base_dir_ + "/server-" + std::to_string(index), persist_jcfg_);
    if (!st.ok()) return st.error();
  }
  const HashRing before(ring_);
  ring_.add_node(index, weight);  // bumps the ring epoch
  open_window(MigrationWindow::Kind::add, index, weight, before, rcfg);
  return index;
}

Status BlobStore::begin_decommission(std::uint32_t index, RebalanceConfig rcfg) {
  {
    // One open window per subject: overlapping deltas on the SAME node have
    // no well-defined chain semantics (and would break the ring-sequence
    // reconstruction rebuilds rely on). Checked before in_ring — an open
    // decommission's subject is already out of the ring, and "busy" is the
    // actionable verdict there, not "not found".
    std::shared_lock lk(mig_mu_);
    for (const auto& w : chain_) {
      if (w->subject == index) {
        return {Errc::busy, "server already has an open migration window"};
      }
    }
  }
  if (index >= servers_.size() || !in_ring(index)) {
    return {Errc::not_found, "server not in ring"};
  }
  if (is_down(index)) return {Errc::busy, "server is down; recover or resync first"};
  const double weight = ring_.weight_of(index);
  const HashRing before(ring_);
  ring_.remove_node(index);  // bumps the ring epoch
  open_window(MigrationWindow::Kind::decommission, index, weight, before, rcfg);
  return Status::success();
}

std::uint32_t BlobStore::add_server(sim::SimNode& node, RebalanceStats* stats,
                                    sim::SimAgent* agent) {
  auto r = begin_add_server(node);
  if (!r.ok()) return static_cast<std::uint32_t>(servers_.size());
  Rebalancer* rb = rebalancer();
  (void)rb->run_to_completion(agent);
  if (stats) {
    const auto p = rb->progress();
    stats->objects_moved += p.copies_installed;
    stats->bytes_moved += p.bytes_moved;
    stats->objects_dropped += p.copies_dropped;
  }
  return r.value();
}

Status BlobStore::decommission_server(std::uint32_t index, RebalanceStats* stats,
                                      sim::SimAgent* agent) {
  auto st = begin_decommission(index);
  if (!st.ok()) return st;
  Rebalancer* rb = rebalancer();
  st = rb->run_to_completion(agent);
  if (stats) {
    const auto p = rb->progress();
    stats->objects_moved += p.copies_installed;
    stats->bytes_moved += p.bytes_moved;
    stats->objects_dropped += p.copies_dropped;
  }
  return st;
}

std::uint32_t BlobStore::reattach_server(sim::SimNode& node) {
  const auto index = static_cast<std::uint32_t>(servers_.size());
  servers_.push_back(std::make_unique<BlobServer>(node));
  down_.push_back(std::make_unique<std::atomic<bool>>(false));
  if (!persist_base_dir_.empty()) {
    (void)servers_[index]->enable_persistence(
        persist_base_dir_ + "/server-" + std::to_string(index), persist_jcfg_);
  }
  servers_[index]->set_ring_epoch(ring_.epoch());
  return index;
}

BlobStore::ScrubReport BlobStore::scrub(bool repair, sim::SimAgent* agent) {
  ScrubReport report;
  // Key universe across all live servers.
  std::map<std::string, bool> keys;
  for (std::uint32_t j = 0; j < servers_.size(); ++j) {
    if (!in_ring(j) || is_down(j)) continue;
    SimMicros svc = 0;
    for (const auto& s : servers_[j]->scan("", &svc)) keys.emplace(s.key, true);
  }

  for (const auto& [key, unused] : keys) {
    (void)unused;
    ++report.objects_checked;
    const auto replicas = replicas_of(key);

    // Gather each live replica's bytes + version + engine checksum verdict.
    struct Copy {
      std::uint32_t server;
      Bytes data;
      std::uint64_t fingerprint;
      bool checksum_ok;
      Version version;
    };
    std::vector<Copy> copies;
    for (std::uint32_t r : replicas) {
      if (is_down(r)) continue;
      BlobServer& srv = *servers_[r];
      SimMicros svc = 0;
      auto st = srv.stat(key, &svc);
      if (!st.ok()) continue;  // missing copy: resync territory, not scrub
      auto data = srv.read(key, 0, st.value().size, &svc);
      if (!data.ok()) continue;
      const bool sum_ok = srv.verify_key(key).ok();
      if (!sum_ok) ++report.checksum_errors;
      // Charge the scrub read (sequential sweep) to the maintenance agent.
      if (agent) transport_.call_reliable(agent, srv.node(), kMaintEnvelope, st.value().size, svc);
      const std::uint64_t fp = content_checksum(as_view(data.value().data));
      copies.push_back({r, std::move(data.value().data), fp, sum_ok, st.value().version});
    }
    if (copies.size() < 2) continue;

    // Authoritative copy: the freshest (highest-version) checksum-clean
    // one. Never a majority vote — under quorum writes a minority replica
    // may be the only one holding an acked mutation, and voting would roll
    // it back. The write path keeps versions identical across replicas
    // that applied the same ops, so "freshest clean copy" is exact.
    const Copy* good = nullptr;
    for (const auto& c : copies) {
      if (c.checksum_ok && (!good || c.version > good->version)) good = &c;
    }
    if (!good) continue;  // everything corrupt: unrecoverable here
    for (const auto& c : copies) {
      if (c.checksum_ok && c.fingerprint == good->fingerprint &&
          c.version == good->version) {
        continue;
      }
      ++report.divergent_replicas;
      if (!repair) continue;
      BlobServer& target = *servers_[c.server];
      SimMicros svc = 0;
      if (target
              .install_copy(key, as_view(good->data), good->data.size(),
                            good->version, &svc)
              .ok()) {
        ++report.repaired;
        if (agent) {
          transport_.call_reliable(agent, target.node(), good->data.size() + kMaintEnvelope,
                                   kMaintEnvelope, svc);
        }
      }
    }
  }
  return report;
}

std::uint64_t BlobStore::total_live_bytes() {
  std::uint64_t n = 0;
  for (auto& s : servers_) n += s->live_bytes();
  return n;
}

Status BlobStore::verify_all_integrity() {
  for (auto& s : servers_) {
    auto st = s->verify_integrity();
    if (!st.ok()) return st;
  }
  return Status::success();
}

}  // namespace bsc::blob
