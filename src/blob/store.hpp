// BlobStore: the distributed blob storage service — one BlobServer per
// simulated storage node, a consistent-hashing ring for placement, and the
// replication configuration. Clients (blob::BlobClient) are cheap handles
// onto the store; create one per logical application thread.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "blob/rebalance.hpp"
#include "blob/ring.hpp"
#include "blob/server.hpp"
#include "blob/types.hpp"
#include "rpc/transport.hpp"
#include "sim/cluster.hpp"

namespace bsc::blob {

/// Where a key lives right now, migration-chain-aware. Outside any migration
/// window `pending` is empty and `replicas` is the ring placement. While the
/// key has a pending entry in one or more open windows, `replicas` is the
/// OLD (authoritative) set of the OLDEST such window — reads, acks and
/// quorum counting stay on it — and `pending` is the union of every
/// newer-epoch new-only owner (plus the final ring owners), the dual-write
/// targets mutations must mirror to so the copies the rebalancers install
/// can never miss an acknowledged write.
struct Placement {
  std::vector<std::uint32_t> replicas;
  std::vector<std::uint32_t> pending;
  std::uint64_t epoch = 0;    ///< ring epoch this placement was computed at
  std::uint32_t windows = 0;  ///< open windows with a pending entry for the key
};

class BlobStore {
 public:
  BlobStore(sim::Cluster& cluster, StoreConfig cfg = {});
  ~BlobStore();

  [[nodiscard]] const StoreConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const HashRing& ring() const noexcept { return ring_; }
  [[nodiscard]] rpc::Transport& transport() noexcept { return transport_; }
  [[nodiscard]] sim::Cluster& cluster() noexcept { return *cluster_; }

  [[nodiscard]] std::size_t server_count() const noexcept { return servers_.size(); }
  [[nodiscard]] BlobServer& server(std::uint32_t index) noexcept { return *servers_[index]; }

  /// Replica servers (primary first) for `key` — the authoritative set,
  /// window-aware (see Placement).
  [[nodiscard]] std::vector<std::uint32_t> replicas_of(std::string_view key) const {
    return placement_of(key).replicas;
  }

  /// Full window-aware placement: the chain fold oldest→newest (see
  /// Placement), or the plain ring placement when no window is open.
  [[nodiscard]] Placement placement_of(std::string_view key) const;

  /// Current membership epoch (bumped by every membership change AND by
  /// every migration-window cutover).
  [[nodiscard]] std::uint64_t ring_epoch() const noexcept { return ring_.epoch(); }

  /// True when `p` is certainly still its key's placement: no window is
  /// open, the ring is at p's epoch and p has no dual-write targets. Only
  /// windows and membership changes move placements, and a cutover bumps
  /// the epoch before it clears the open-window flag, so reading the flag
  /// first cannot pair "no window" with a pre-cutover epoch. False means
  /// "unknown": re-resolve with placement_of.
  [[nodiscard]] bool placement_current(const Placement& p) const noexcept {
    return !rebalance_active() && ring_epoch() == p.epoch && p.pending.empty();
  }

  // --- failure injection & recovery ---
  /// Mark a server down: reads fail over to the next replica, mutations
  /// proceed degraded (the down replica misses updates until resync).
  void fail_server(std::uint32_t index);

  /// What draining the hinted-handoff queue for a recovered server did.
  struct HintStats {
    std::uint64_t drained = 0;  ///< copies installed from a hint
    std::uint64_t removed = 0;  ///< hinted keys dropped (no live holder left)
  };

  /// Mark a server up again, then drain every hinted-handoff entry other
  /// servers hold for it: each hinted key is re-copied from its freshest
  /// live replica (exact version included), or removed from the recovered
  /// server when no live replica still holds it — a hint must never
  /// resurrect a blob that was removed later. Call resync_server afterwards
  /// to repair whatever no hint covered (hints are volatile).
  void recover_server(std::uint32_t index, sim::SimAgent* agent = nullptr,
                      HintStats* stats = nullptr);
  [[nodiscard]] bool is_down(std::uint32_t index) const;
  /// First live replica of a set (acting primary); nullopt if none is up.
  [[nodiscard]] std::optional<std::uint32_t> first_up(
      const std::vector<std::uint32_t>& replicas) const;

  /// A replica and the version of a key it holds.
  struct ReplicaVersion {
    std::uint32_t index = 0;
    Version version = 0;
  };
  /// Freshest live holder of `key`: the first live replica, in `candidates`
  /// order, holding the highest version (uncharged peeks). `exclude` (a
  /// recovering target) is skipped too; nullopt when no live candidate holds
  /// the key. Callers hold the key's locks when a stable answer matters.
  [[nodiscard]] std::optional<ReplicaVersion> freshest(
      const std::string& key, const std::vector<std::uint32_t>& candidates,
      std::optional<std::uint32_t> exclude = std::nullopt) const;

  /// What one resync pass did. `skipped_identical` counts copies whose
  /// content already matched the acting primary (digest exchange only) —
  /// the delta-resync win a WAL-recovered replica gets over a blank one.
  struct ResyncStats {
    std::uint64_t examined = 0;
    std::uint64_t copied = 0;
    std::uint64_t skipped_identical = 0;
    std::uint64_t deleted = 0;
    std::uint64_t bytes_copied = 0;
  };

  /// Repair a recovered server: every object whose replica set includes it
  /// is compared against its acting primary by content digest and copied
  /// only when missing or divergent (ghost copies are deleted). Returns the
  /// number of objects repaired (copied + deleted). Charges `agent` (when
  /// non-null) for the recovery traffic.
  std::uint64_t resync_server(std::uint32_t index, sim::SimAgent* agent = nullptr,
                              ResyncStats* stats = nullptr);

  // --- durability: per-server WAL + checkpoints, crash / restart ---
  /// Give every current server a persistence directory under
  /// `base_dir/server-<index>`. The base directory is remembered: servers
  /// added later through (begin_)add_server get journals there too, and
  /// membership changes persist a membership record for recovery.
  Status enable_persistence(const std::string& base_dir,
                            persist::JournalConfig jcfg = {});

  /// Process-kill a server: mark it down and wipe its volatile state
  /// (engine + un-fsynced journal buffer). Requires enable_persistence for
  /// anything to survive.
  void crash_server(std::uint32_t index);

  /// Restart a crashed server: rebuild its engine from the local WAL +
  /// checkpoints, mark it up, then delta-resync from peers (content-equal
  /// objects are skipped, divergent/missing ones copied, ghosts deleted).
  /// Returns the resync repair count.
  Result<std::uint64_t> restart_server(std::uint32_t index, sim::SimAgent* agent = nullptr,
                                       persist::RecoveryReport* report = nullptr,
                                       ResyncStats* stats = nullptr);

  // --- elasticity: add / decommission storage nodes with data movement ---
  /// Statistics of one rebalance pass.
  struct RebalanceStats {
    std::uint64_t objects_moved = 0;   ///< copies installed on new owners
    std::uint64_t objects_dropped = 0; ///< copies removed from old owners
    std::uint64_t bytes_moved = 0;
  };

  /// Register `node` (a storage node of the cluster not yet in the store)
  /// as a new blob server, extend the ring, and synchronously migrate the
  /// keys whose replica sets changed. Returns the new server's index.
  /// Convenience wrapper over begin_add_server + run_to_completion.
  std::uint32_t add_server(sim::SimNode& node, RebalanceStats* stats = nullptr,
                           sim::SimAgent* agent = nullptr);

  /// Remove server `index` from the ring, synchronously re-replicate its
  /// keys onto their new owners, then drop every copy it held. The server
  /// object stays allocated (indices remain stable) but owns no placement.
  /// Convenience wrapper over begin_decommission + run_to_completion.
  Status decommission_server(std::uint32_t index, RebalanceStats* stats = nullptr,
                             sim::SimAgent* agent = nullptr);

  // --- online (incremental) membership changes ---
  //
  // begin_* registers the membership change, bumps the ring epoch, and opens
  // a migration window (every affected key dual-writes until migrated); the
  // returned Rebalancer moves the data incrementally — step() it between
  // client batches, run it to completion, or drive it from a background
  // thread via start_async(). Windows form an EPOCH CHAIN: several joins and
  // leaves may be open at once, each drained by its own Rebalancer under one
  // shared throughput throttle, and finalized in ANY order. Membership
  // registration itself must be called quiescently (no in-flight client
  // ops); the MIGRATIONS are what safely overlap live traffic.

  /// Open an add-server window. If persistence was enabled on the store the
  /// new server gets a journal directory too (so crash/restart keeps
  /// working after growth). Returns the new server's index. `weight` is the
  /// joiner's ring capacity weight (HashRing::add_node): heterogeneous
  /// storage or a warming-up joiner takes a proportional key share, and the
  /// migration plan the window drains is computed against the weighted
  /// ring, so the data moved is proportional too.
  Result<std::uint32_t> begin_add_server(sim::SimNode& node, RebalanceConfig rcfg = {},
                                         double weight = 1.0);

  /// Open a decommission window for server `index` (must be in-ring, up,
  /// and not already the subject of an open window).
  Status begin_decommission(std::uint32_t index, RebalanceConfig rcfg = {});

  /// The rebalancer of the most recently opened membership change (nullptr
  /// before the first begin_*). Earlier windows' rebalancers stay reachable
  /// through rebalancer_at(); pointers remain stable for the store's life.
  [[nodiscard]] Rebalancer* rebalancer() noexcept {
    return rebalancers_.empty() ? nullptr : rebalancers_.back().get();
  }
  [[nodiscard]] std::size_t rebalancer_count() const noexcept {
    return rebalancers_.size();
  }
  [[nodiscard]] Rebalancer* rebalancer_at(std::size_t i) noexcept {
    return i < rebalancers_.size() ? rebalancers_[i].get() : nullptr;
  }

  /// True while at least one migration window is open.
  [[nodiscard]] bool rebalance_active() const noexcept {
    return migrating_.load(std::memory_order_acquire);
  }

  /// Open migration windows right now (the epoch-chain depth).
  [[nodiscard]] std::size_t migration_chain_depth() const;

  /// Register a server object for a previously-grown member WITHOUT a ring
  /// change (no window, no epoch bump): after a full-cluster restart the
  /// membership record knows the member indices and weights, but server
  /// objects bind to live SimNodes and cannot be reconstructed from disk.
  /// Reattach them in index order, then call recover_membership() — it
  /// re-adds recorded members to the ring at their recorded weight and
  /// reopens any persisted migration windows.
  std::uint32_t reattach_server(sim::SimNode& node);

  /// Restore persisted membership after a full-cluster restart: reload the
  /// membership record (epoch + weighted member set + open-window chain)
  /// written on every epoch change, re-apply removals AND additions
  /// (reattach_server first for members beyond the construction-time set),
  /// restore the epoch, then reopen every unfinalized migration window in
  /// chain order — each with a freshly rebuilt plan whose per-key state is
  /// derived from who actually holds the data (a restart mid-migration
  /// resumes where the copies left off). Run the recovered rebalancers
  /// (oldest first, rebalancer_at) to completion to finish the migrations.
  /// No-op when persistence is off or no record exists.
  Status recover_membership();

  [[nodiscard]] bool in_ring(std::uint32_t index) const { return ring_.has_node(index); }

  // --- scrubbing: detect and repair silent corruption / divergence ---
  struct ScrubReport {
    std::uint64_t objects_checked = 0;
    std::uint64_t checksum_errors = 0;   ///< engine-level checksum mismatches
    std::uint64_t divergent_replicas = 0;///< replicas disagreeing with quorum
    std::uint64_t repaired = 0;
  };

  /// Deep scrub: verify every engine's checksums, then compare replica
  /// copies per key. The authoritative copy is the freshest checksum-clean
  /// one (highest version — never a majority vote, which under quorum
  /// writes could roll back an acked mutation); any copy differing from it
  /// in content OR version counts as divergent. With `repair`, divergent
  /// copies are replaced by an exact install of the authoritative copy.
  /// Maintenance traffic charges `agent`.
  ScrubReport scrub(bool repair, sim::SimAgent* agent = nullptr);

  // --- store-wide introspection for tests/benches ---
  [[nodiscard]] std::uint64_t total_live_bytes();
  [[nodiscard]] Status verify_all_integrity();

 private:
  friend class Rebalancer;

  /// Replay hinted-handoff entries destined for `index` (see recover_server).
  void drain_hints(std::uint32_t index, sim::SimAgent* agent, HintStats* stats);

  /// The chain fold for one key; caller holds mig_mu_ (any mode) whenever
  /// the chain may be non-empty.
  [[nodiscard]] Placement placement_locked(std::string_view key) const;

  /// Diff placements between `before` and `after` over every live key (any
  /// live server may hold authoritative data for an older open window, so
  /// the universe scan covers them all) into `plan`; every entry starts
  /// pending.
  void build_plan(MigrationPlan& plan, const HashRing& before,
                  const HashRing& after) const;

  /// Re-derive each entry's state from who actually holds the data (plan
  /// rebuilds after a restart or an aborted sibling window): pending when a
  /// live old-set replica holds the key (or one is down — conservative),
  /// migrated when only new-side holders do, dropped when nobody does.
  void assign_plan_states(MigrationPlan& plan) const;

  /// Rebuild every open window's plan against the reconstructed ring
  /// sequence (current ring with the deltas of newer windows undone one by
  /// one), holder-aware. Call quiescently; swaps the plans in under mig_mu_.
  void rebuild_chain_plans();

  /// Append a window for the just-applied ring delta (`before` = pre-delta
  /// ring) and create its Rebalancer. Shared begin_* tail.
  Rebalancer* open_window(MigrationWindow::Kind kind, std::uint32_t subject,
                          double weight, const HashRing& before,
                          RebalanceConfig rcfg);

  /// Push the current ring epoch to every server's response stamp, update
  /// the rebalance gauges, and persist the membership record — including
  /// the open-window chain — when persistence is enabled. Serialized by
  /// publish_mu_: several windows may finalize (and publish) concurrently,
  /// and each rewrite of membership.bsm must be one internally-consistent
  /// snapshot, written in snapshot order.
  void publish_epoch();

  sim::Cluster* cluster_;
  StoreConfig cfg_;
  rpc::Transport transport_;
  HashRing ring_;
  std::vector<std::unique_ptr<BlobServer>> servers_;
  std::vector<std::unique_ptr<std::atomic<bool>>> down_;

  // Migration-chain state. Clients take mig_mu_ shared only inside
  // placement_of (released before any server lock); a rebalancer flips a
  // key's state while holding that key's stripes — stripe-then-mig order on
  // one side, mig-with-no-stripes on the other, so no lock-order inversion.
  // Finalize's cutover (chain surgery + re-basing) takes mig_mu_ exclusive
  // with no stripes held; migrate_key re-validates its fold under the
  // stripes to catch a cutover that raced its snapshot.
  mutable std::shared_mutex mig_mu_;
  std::atomic<bool> migrating_{false};  ///< chain non-empty
  std::vector<std::shared_ptr<MigrationWindow>> chain_;  ///< oldest→newest; guarded by mig_mu_
  std::uint64_t next_window_id_ = 1;                     ///< guarded by mig_mu_
  std::vector<std::unique_ptr<Rebalancer>> rebalancers_; ///< one per begin_*, stable

  /// One pacing horizon shared by every open window's Rebalancer: concurrent
  /// migrations split the configured bandwidth instead of multiplying it.
  struct MigrationThrottle {
    std::mutex mu;
    SimMicros next_allowed_us = 0;
  };
  MigrationThrottle mig_throttle_;

  /// Orders concurrent publish_epoch() calls (snapshot + file rewrite as one
  /// unit) so a stale snapshot can never be the last one written.
  std::mutex publish_mu_;

  std::string persist_base_dir_;  ///< remembered by enable_persistence
  persist::JournalConfig persist_jcfg_;
};

}  // namespace bsc::blob
