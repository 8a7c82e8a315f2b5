// BlobClient — the application-facing API of the blob store, exactly the
// primitive set of the paper's §III:
//
//   Blob Access:         read(), size()
//   Blob Manipulation:   write(), truncate()
//   Blob Administration: create(), remove()
//   Namespace Access:    scan()
//
// plus Týr-style multi-blob transactions (begin_transaction / commit).
//
// One client per logical execution thread: the client charges its SimAgent
// for every call (request transfer, queueing + service at the replica
// servers, response transfer). Mutations are applied to the full replica
// set with primary-forwarding timing; reads are served by the primary.
//
// Concurrency: mutations hold per-key striped locks (BlobServer::lock_key)
// on every replica — acquired in ascending node order, the same global order
// the transaction commit path uses for its exclusive locks — so writers
// racing on one key serialize identically on every replica while writers to
// distinct keys proceed in parallel.
//
// Striping: I/O past StoreConfig::chunk_bytes is split into chunk legs, one
// per chunk, each placed independently on the ring (chunk 0 under the
// application key itself, carrying the full logical size). Chunk legs that
// share a replica candidate set travel as one multi-op batch envelope;
// envelopes fork from the same simulated instant and the call completes at
// the slowest one (scatter-gather). Blobs at or below one chunk never pay
// for striping: they take the single-chunk legs (mutation_leg / read_leg).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blob/store.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_clock.hpp"

namespace bsc::blob {

/// Every per-client event with the registry series it rolls up into, in one
/// list: X(field, series, sink). `sink` is `counter`, or `histogram` for a
/// byte volume whose series is the histogram that sums it. The list declares
/// the ClientCounters fields and kClientEventSeries; DESIGN.md §3 mirrors it.
#define BSC_CLIENT_EVENTS(X)                                                    \
  /* Primitive calls, counted by the primitive's PrimCall. */                   \
  X(creates, "client.create.calls", counter)                                    \
  X(removes, "client.remove.calls", counter)                                    \
  X(reads, "client.read.calls", counter)                                        \
  X(writes, "client.write.calls", counter)                                      \
  X(truncates, "client.truncate.calls", counter)                                \
  X(sizes, "client.size.calls", counter)                                        \
  X(stats, "client.stat.calls", counter)                                        \
  X(scans, "client.scan.calls", counter)                                        \
  X(txns, "client.txn.calls", counter)                                          \
  /* Bytes backed by stored extents; zero-filled hole bytes go to the next. */ \
  X(bytes_read, "client.read.covered_bytes", counter)                           \
  X(read_hole_bytes, "client.read.hole_bytes", histogram)                       \
  X(bytes_written, "client.write.bytes", histogram)                             \
  /* Fault-tolerance machinery (see DESIGN.md "Fault model"). */                \
  X(retries, "client.retries", counter) /* re-sent after timeout/error */       \
  X(failovers, "client.failovers", counter) /* read legs moved on */            \
  X(quorum_degraded_writes, "client.quorum.degraded_writes",                    \
    counter) /* acked mutations that missed >= 1 replica */                     \
  X(hints_written, "client.hints.written", counter) /* hinted handoffs */       \
  /* Batched scatter-gather + metadata cache (DESIGN.md "Batched striping"). */ \
  X(batch_envelopes, "client.batch.envelopes", counter)                         \
  X(coalesced_ops, "client.batch.coalesced", counter) /* >= 2-chunk sub-ops */  \
  X(batch_retries, "client.batch.retries", counter) /* envelope re-sends */     \
  X(metacache_hits, "client.metacache.hits", counter)                           \
  X(metacache_misses, "client.metacache.misses", counter)                       \
  X(metacache_invalidations, "client.metacache.invalidations", counter)         \
  /* Quorum-aware batched reads (see DESIGN.md "Per-sub quorum voting"). */     \
  X(quorum_probes, "client.batch.quorum_probes", counter) /* vote envelopes */  \
  X(quorum_winners, "client.batch.quorum_winners", counter)                     \
  X(quorum_digest_savings_bytes, "client.batch.quorum_digest_savings_bytes",    \
    counter) /* payload bytes the digest replies avoided */                     \
  X(quorum_refetches, "client.batch.quorum_refetches", counter)                 \
  /* Elastic membership (DESIGN.md "Elastic membership & rebalancing"). The     \
     rebalancer interns the dual-write series too, so one counter tells a       \
     window's story whichever side mirrored. */                                 \
  X(epoch_refreshes, "client.epoch.refreshes", counter) /* placement flushes */ \
  X(stale_epoch_retries, "client.epoch.stale_retries", counter)                 \
  X(dual_writes, "rebalance.dual_writes", counter)                              \
  X(chain_dual_writes, "rebalance.chain_dual_writes", counter) /* >= 2 open */  \
  /* Overload resilience (see DESIGN.md "Overload model"). */                   \
  X(sheds_observed, "client.breaker.sheds_observed", counter) /* overloaded */  \
  X(deadline_exceeded, "client.deadline.exceeded", counter) /* budget spent */  \
  X(deadline_clamped, "client.deadline.clamped_attempts", counter) /* cut */    \
  X(retries_suppressed, "client.deadline.retries_suppressed", counter)          \
  X(breaker_opens, "client.breaker.opens", counter)                             \
  X(breaker_closes, "client.breaker.closes", counter)                           \
  X(breaker_probes, "client.breaker.probes", counter)                           \
  X(breaker_fast_hints, "client.breaker.fast_hints", counter) /* no forward */  \
  X(breaker_demotions, "client.breaker.demotions", counter) /* suspect last */

/// One counted client event: an always-on per-client count plus the
/// process-wide registry series it rolls up into, so one add() publishes
/// both. The per-client half is an obs::LocalCounter: clients shared across
/// threads (or observed from a monitoring thread mid-run) never tear a
/// count, and it keeps counting while the metrics switch is off. The series
/// half freezes with the switch like every other series.
class ClientEvent {
 public:
  void add(std::uint64_t delta) noexcept {
    local_.add(delta);
    if (counter_ != nullptr) {
      counter_->add(delta);
    } else {
      histogram_->add(delta);
    }
  }
  void inc() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept { return local_.value(); }
  operator std::uint64_t() const noexcept { return value(); }  // NOLINT(google-explicit-constructor)

 private:
  friend struct ClientCounters;
  obs::LocalCounter local_;
  obs::Counter* counter_ = nullptr;
  obs::ShardedHistogram* histogram_ = nullptr;
};

/// Per-client events (BSC_CLIENT_EVENTS). Tests, benches, examples and the
/// chaos marker read these counts. Address-stable and non-copyable, like
/// the client owning it.
struct ClientCounters {
  /// Binds every event to its series. The registry references are resolved
  /// once per process, all together, on first use; constructing a client
  /// takes no registry lock.
  ClientCounters();

#define BSC_CLIENT_EVENT_FIELD(field, series, sink) ClientEvent field;
  BSC_CLIENT_EVENTS(BSC_CLIENT_EVENT_FIELD)
#undef BSC_CLIENT_EVENT_FIELD
};

enum class ClientEventSink { counter, histogram };

struct ClientEventSeries {
  ClientEvent ClientCounters::*field;
  const char* series;
  ClientEventSink sink;
};

inline constexpr ClientEventSeries kClientEventSeries[] = {
#define BSC_CLIENT_EVENT_ROW(field, series, sink) \
  {&ClientCounters::field, series, ClientEventSink::sink},
    BSC_CLIENT_EVENTS(BSC_CLIENT_EVENT_ROW)
#undef BSC_CLIENT_EVENT_ROW
};

class BlobTransaction;

class BlobClient {
 public:
  BlobClient(BlobStore& store, sim::SimAgent* agent) : store_(&store), agent_(agent) {}
  /// Gives back the `client.breaker.open_nodes` count of every node whose
  /// breaker this client left open or half-open.
  ~BlobClient();
  BlobClient(const BlobClient&) = delete;
  BlobClient& operator=(const BlobClient&) = delete;

  /// Starts one call of a client reused across calls (BlobFs keeps one per
  /// thread): re-points the client at `agent` and gives every field that
  /// steers simulated time or fault handling a new client's value — node
  /// health (reset in place, which answers exactly as an absent entry), the
  /// fleet latency EWMA, the retry-token bucket, the backoff Rng and the
  /// metadata cache. Placements, counters, map buckets and the fan-out pool
  /// are kept; cached placements are dropped when the ring epoch moved since
  /// the last call. Native clients, which keep their health across calls,
  /// never call it.
  void start_call(sim::SimAgent* agent);

  // --- Blob Administration ---
  [[nodiscard]] Status create(std::string_view key);
  [[nodiscard]] Status remove(std::string_view key);

  // --- Blob Access ---
  [[nodiscard]] Result<Bytes> read(std::string_view key, std::uint64_t offset,
                                   std::uint64_t len);
  [[nodiscard]] Result<std::uint64_t> size(std::string_view key);
  [[nodiscard]] Result<BlobStat> stat(std::string_view key);
  [[nodiscard]] bool exists(std::string_view key);

  // --- Blob Manipulation ---
  [[nodiscard]] Result<std::uint64_t> write(std::string_view key, std::uint64_t offset,
                                            ByteView data);
  [[nodiscard]] Status truncate(std::string_view key, std::uint64_t new_size);

  // --- Namespace Access ---
  /// Enumerate all blobs (deduplicated across replicas, sorted by key;
  /// internal chunk keys are hidden). `prefix` filters the result but the
  /// walk still visits every object on every server — the honest cost of a
  /// flat namespace.
  [[nodiscard]] Result<std::vector<BlobStat>> scan(std::string_view prefix = {});

  // --- Transactions (Týr) ---
  [[nodiscard]] BlobTransaction begin_transaction();

  [[nodiscard]] const ClientCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] sim::SimAgent* agent() noexcept { return agent_; }
  [[nodiscard]] BlobStore& store() noexcept { return *store_; }

 private:
  friend class BlobTransaction;

  /// Decorrelated-jitter backoff (simulated time): sleep drawn uniformly
  /// from [base, prev*3], clamped to the policy cap. Mutates *prev.
  SimMicros next_backoff(SimMicros* prev);

  /// Drive one request leg to delivery (rpc::Transport::plan_attempt per
  /// attempt, planned from the leg's own fork time), retrying per
  /// RetryPolicy with backoff. `batch_subs` > 0 marks a multi-op batch
  /// envelope: one fault verdict for the whole envelope. On success
  /// `start` is the (possibly backed-off) send time of the delivered
  /// attempt; on failure `failed_at` is when the last attempt's failure was
  /// detected.
  using LegDelivery = rpc::Transport::Attempt;
  LegDelivery try_deliver(BlobServer& srv, SimMicros start, std::uint64_t request_bytes,
                          std::uint32_t batch_subs = 0);

  /// Version-probe round for quorum reads: stat `ekey` on live replicas (in
  /// replica order, each with retries) until min(read quorum, live count)
  /// respond. `absent` responses participate with version 0.
  struct ProbeRound {
    bool ok = false;           ///< quorum responders gathered
    Errc err = Errc::ok;       ///< failure reason when !ok
    SimMicros done = 0;        ///< barrier: slowest used probe (or last failure)
    std::vector<std::uint32_t> fresh;  ///< responders at the max version, replica order
    BlobStat stat;             ///< freshest responder's stat
    bool found = false;        ///< false: every responder reported absent
  };
  ProbeRound quorum_probe(const std::string& ekey,
                          const std::vector<std::uint32_t>& lives, SimMicros start);

  /// One replicated mutation leg: apply `ops` (all targeting engine key
  /// `ekey`) with primary-forwarding timing, holding the key's stripe on
  /// every replica (ascending node order). Forks from simulated time
  /// `start`; sets *completion to the ack time. The acting primary must ack
  /// (coordinator); further replicas ack until the configured write quorum
  /// is met, and replicas that are down, stale, or unreachable through the
  /// fault injector are recorded as hinted-handoff entries on the primary.
  /// Pre-leg state of the mutated key, observed under the leg's own lock
  /// round (one version exchange — no extra stat round). The striped
  /// primitives use it for chunk layout (pre_size) and the metadata cache
  /// (new_version) instead of a separate peek.
  struct LegInfo {
    std::uint64_t pre_size = 0;  ///< authoritative logical size before the leg
    Version new_version = 0;     ///< key's version after a successful leg
  };
  Status mutation_leg(const std::string& ekey, const std::vector<BlobServer::TxnOp>& ops,
                      SimMicros start, SimMicros* completion, LegInfo* info = nullptr);

  /// Replica settlement state of one mutated key, shared by mutation_leg and
  /// mutation_group_leg.
  struct KeyLeg {
    const std::string* ekey = nullptr;
    Placement place;                 ///< replicas + pending dual-write targets
    /// The key's length and version on each node of place.replicas, then of
    /// place.pending, read once by read_metas under the leg's stripes.
    std::vector<ObjectMeta> metas;
    Version pre_version = 0;         ///< see plan_versions
    Version new_version = 0;
    bool continue_versions = false;
    bool ends_removed = false;       ///< the ops leave the key absent
    std::uint32_t acks = 1;          ///< the acting primary's ack included
    std::vector<std::uint32_t> missed;

    /// Continue the version above every live replica's on a fresh applier.
    void lift(BlobServer& srv) const {
      if (continue_versions && !ends_removed) (void)srv.force_version(*ekey, new_version);
    }

    /// The key's meta on locked node `node` (version 0: absent).
    [[nodiscard]] const ObjectMeta& meta_on(std::uint32_t node) const;
  };

  /// The leg's one engine visit per locked node: fills k.metas. The caller
  /// holds the key's stripe on every node of k.place, and every path that
  /// changes a version takes a stripe or the structure lock exclusive, so
  /// the metas stay exact for the rest of the leg. An absent key reads as
  /// version 0, which no present object holds (versions start at 1).
  void read_metas(KeyLeg& k);

  /// Index into k.place.replicas of the live replica holding the highest
  /// version of the key (the first such in replica order), from k.metas;
  /// nullopt when no live replica holds it.
  [[nodiscard]] std::optional<std::size_t> freshest_of(const KeyLeg& k) const;

  /// Replica-version bookkeeping from k.metas. `pre_version` is the acting
  /// primary's version: the authoritative base a replica must be at to apply
  /// the ops (else it missed earlier ops and would diverge — it gets a hint
  /// instead). The post-apply version continues above the highest version
  /// any live replica holds, so versions never regress across
  /// remove/recreate cycles, keeping "max version = freshest" true for
  /// quorum arbitration.
  void plan_versions(std::uint32_t acting, std::uint64_t nops, KeyLeg& k);

  /// Dual-write targets (open migration window): the new-only owners get the
  /// key's applied ops too, launched at `launch`, version-gated exactly like
  /// forwarding replicas so an out-of-order migration copy can never
  /// interleave histories. They are NOT acks — the old set stays
  /// authoritative for quorum — and a missed or down target gets a hint;
  /// finalize()'s verify sweep repairs whatever the hints don't. This is what
  /// makes the write-vs-copy race safe in both orders: copy-then-write lands
  /// here, write-then-copy is picked up by the copy itself.
  void mirror_pending(BlobServer& primary, const KeyLeg& k, const BlobServer::OpRef* ops,
                      std::size_t count, std::uint64_t req, SimMicros launch,
                      SimMicros* done);

  /// Hints every missed replica of every key, then judges each key's quorum
  /// in order: the first key short of it fails the call with `miss_err`.
  Status settle_replicas(BlobServer& primary, std::span<KeyLeg* const> keys,
                         Errc miss_err);

  /// Single-leg convenience wrapper: runs the leg (every op on the first
  /// op's key) at the agent's current time and advances the agent to its
  /// completion.
  Status replicated_mutation(const std::vector<BlobServer::TxnOp>& ops);

  /// One read leg, forked from `start`. With read quorum 1 the leg fails
  /// over through the live replica set (retrying per policy, suspects
  /// last); with a larger read quorum it first version-probes R replicas
  /// and reads from the freshest responder.
  Result<ReadOutcome> read_leg(const std::string& ekey, std::uint64_t off,
                               std::uint64_t len, SimMicros start, SimMicros* completion);

  /// Charged stat with the same failover/quorum arbitration as read_leg.
  Result<BlobStat> stat_leg(const std::string& ekey, SimMicros start,
                            SimMicros* completion);

  // --- elastic membership (placement cache + epoch protocol) ---------------

  /// Placement resolution through the client placement cache. Only
  /// window-free placements (empty `pending`) are cacheable, so a leg routed
  /// by a cache hit may skip the dual-write machinery entirely; what makes
  /// that safe is the epoch stamp protocol — every server carries the ring
  /// epoch it was last told about, legs compare the stamp of the server that
  /// answered against the epoch the placement was computed at, and a newer
  /// stamp means membership moved under the cached entry: flush, refetch,
  /// retry (bounded). Mutation legs additionally re-resolve the placement
  /// under the held key stripes — the rebalancer flips a key's migration
  /// state under those same stripes, so a placement that re-reads
  /// identically cannot change for the rest of the leg.
  Placement locate(const std::string& ekey);
  /// Membership moved under a leg's placement: flush the cached entry and
  /// count the refresh, plus a stale-epoch retry when the leg re-runs.
  void flush_stale_placement(const std::string& ekey, bool retry);

  // --- overload resilience (deadline budgets + per-node breakers) ----------

  /// RAII scope of one public primitive call (defined in client.cpp): it
  /// publishes the call's metrics on every return path, and the outermost
  /// call installs `start + DeadlinePolicy::op_deadline_us` as the absolute
  /// simulated-time budget that nested legs and retries all clamp
  /// against. The budget is a no-op when the policy is unbounded or a budget
  /// is already installed (nested primitive).
  class PrimCall;

  /// Per-attempt deadline at send time `t`: the policy attempt deadline
  /// clamped to whatever op budget remains (>= 1 so a drop never waits 0).
  [[nodiscard]] SimMicros attempt_deadline_at(SimMicros t) const noexcept;

  /// Per-replica health: latency EWMA + consecutive-failure breaker.
  /// Updated by try_deliver outcomes; guarded by health_mu_ because batched
  /// group legs fan out on the thread pool in fault-free runs (under a fault
  /// injector everything is sequential, keeping chaos traces deterministic).
  struct NodeHealth {
    enum class Breaker { closed, open, half_open };
    Breaker state = Breaker::closed;
    std::uint32_t consecutive_failures = 0;
    std::uint32_t half_open_successes = 0;
    SimMicros opened_at = 0;
    double ewma_latency_us = 0.0;
    std::uint64_t samples = 0;
  };
  /// Record one delivered (latency-bearing) or failed attempt against node.
  /// `node` is the SimNode id (what try_deliver sees), NOT the server index;
  /// demote_suspects converts from candidate server indices at its boundary.
  /// The `_locked` forms expect health_mu_ held.
  void health_on_success(std::uint32_t node, SimMicros latency_us);
  void health_on_success_locked(std::uint32_t node, SimMicros latency_us);
  void health_on_failure_locked(std::uint32_t node, SimMicros now);
  /// try_deliver's one health_mu_ round per attempt: adds the leg's earned
  /// retry token when `refill` (the leg's first round), records the
  /// attempt's outcome against `node`, and when `take_token` spends the token
  /// the next retry needs. Returns false when the bucket had none to spend.
  bool settle_attempt(std::uint32_t node, bool delivered, SimMicros failed_at,
                      bool refill, bool take_token);
  /// A fresh leg's retry-token refill (the first one fills the bucket).
  void earn_retry_token_locked();
  /// Each node whose breaker is open or half-open holds one unit of the
  /// `client.breaker.open_nodes` gauge; subtract them all.
  void give_back_open_breakers() const;
  /// Breaker gate for non-mandatory traffic to `node` at time `now`.
  /// closed -> allowed; open past its cooldown -> transitions to half_open
  /// and admits this caller as the single probe; open otherwise -> refused.
  [[nodiscard]] bool breaker_allows(std::uint32_t node, SimMicros now);
  /// Suspect = breaker not closed, or warmed-up latency EWMA far above the
  /// fleet mean (gray failure: up but slow). Caller holds health_mu_.
  [[nodiscard]] bool is_suspect_locked(std::uint32_t node) const;
  /// Stable-partition healthy candidates ahead of suspects (availability is
  /// preserved: suspects stay in the list, at the back). One health_mu_
  /// round judges every candidate.
  void demote_suspects(std::vector<std::uint32_t>& candidates);

  // --- batched scatter-gather (every striped primitive) --------------------

  /// One chunk-granular mutation of a batched wave. `op.key` is fixed up to
  /// point at `ekey` once the wave's sub vector is final (short keys live in
  /// SSO storage, so the pointer is only stable after the last push_back).
  struct BatchSub {
    std::string ekey;
    std::uint64_t chunk = 0;           ///< chunk index (grouping / coalescing)
    BlobServer::OpRef op;              ///< views the caller's buffer, no copy
    bool tolerate_not_found = false;   ///< truncate/remove of a maybe-hole chunk
  };

  /// Execute a wave of chunk mutations: group by acting primary, one batch
  /// envelope per group (chunk-ascending group order, deterministic), fanned
  /// out on the shared thread pool when no fault injector is installed.
  /// Raises *done to the slowest group's completion (sim stays max-of-legs).
  Status batched_mutation_wave(std::vector<BatchSub>& subs, SimMicros start,
                               SimMicros* done);

  /// One per-primary mutation group: single striped-lock acquisition round
  /// per node (ascending), one version exchange per key, one envelope +
  /// apply_ops trip to the primary, one per forwarding replica.
  Status mutation_group_leg(std::vector<BatchSub*>& subs, std::uint32_t primary_id,
                            SimMicros start, SimMicros* completion);

  /// One chunk-granular slice of a batched striped read (plus its result).
  struct ReadSub {
    std::string ekey;
    std::uint64_t chunk = 0;
    std::uint64_t off = 0;             ///< intra-chunk offset
    MutableByteView dst;               ///< pre-zeroed slice of the caller buffer
    bool stat_only = false;            ///< piggybacked base-key verification
    // Results (filled by read_group_leg):
    Errc err = Errc::ok;
    std::uint64_t data_len = 0;
    std::uint64_t covered = 0;         ///< extent-backed bytes among data_len
    std::uint64_t size = 0;            ///< stat subs
    Version version = 0;               ///< stat subs / arbitrated read version
  };

  /// One per-candidate-set read group: a full-payload envelope to
  /// `candidates[0]` plus one digest-only vote envelope per further quorum
  /// candidate, arbitrated per sub-op by version (digest tie-break), with
  /// stale sub-ops re-fetched from the winning replica. When an envelope
  /// cannot be delivered (fault injector), falls back to per-chunk read_leg
  /// calls for this group's subs.
  Status read_group_leg(std::vector<ReadSub*>& subs,
                        const std::vector<std::uint32_t>& candidates,
                        SimMicros start, SimMicros* completion);

  /// Striped read over batch envelopes + the metadata cache. Handles every
  /// read configuration — R > 1 arbitrates per-sub versions inside the
  /// batch envelopes (see read_group_leg).
  Result<Bytes> batched_striped_read(std::string_view key, std::uint64_t offset,
                                     std::uint64_t len);

  /// size()/stat() backend: metadata-cache lookup first (a hit answers with
  /// zero rounds; the entry is invalidated on local mutation and verified by
  /// the piggybacked stat sub of every batched read), falling back to one
  /// charged stat round that primes the cache.
  Result<BlobStat> cached_stat(const std::string& base);

  // --- client metadata cache ----------------------------------------------

  /// Cached chunk-0 metadata: logical blob size + chunk-0 version. Verified
  /// by the stat sub piggybacked on every batched read round and invalidated
  /// on any local mutation or observed drift. Per-client (the client is
  /// bound to one logical thread), so no lock.
  struct MetaEntry {
    std::uint64_t logical = 0;
    Version v0 = 0;
  };
  static constexpr std::size_t kMetaCacheCap = 4096;
  void cache_put(const std::string& key, MetaEntry e);
  void cache_erase(std::string_view key);

  /// Run fn(0..n) for a wave's groups: on a lazily-created pool in
  /// fault-free runs, sequentially in order when a fault injector is
  /// installed (injected faults need the deterministic order) or the host
  /// has one core.
  void fan_out(std::size_t n, const std::function<void(std::size_t)>& fn);

  BlobStore* store_;
  sim::SimAgent* agent_;
  ClientCounters counters_;
  static constexpr std::uint64_t kBackoffSeed = 0xb10bfa117ULL;
  Rng rng_{kBackoffSeed};  ///< backoff jitter; per-client, deterministic
  std::unordered_map<std::string, MetaEntry> meta_cache_;
  std::unordered_map<std::string, Placement> place_cache_;
  std::uint64_t place_epoch_ = 0;  ///< ring epoch place_cache_ was last checked at
  std::unique_ptr<ThreadPool> pool_;
  // Overload resilience state.
  SimMicros op_deadline_at_ = 0;  ///< absolute budget of the op in flight (0 = none)
  double retry_tokens_ = -1.0;    ///< client-wide bucket; <0 = fill on first use
  std::mutex health_mu_;          ///< guards retry_tokens_ and health_ (pool fan-out)
  std::unordered_map<std::uint32_t, NodeHealth> health_;
  double fleet_ewma_us_ = 0.0;    ///< all-node latency EWMA (suspect baseline)
  std::uint64_t fleet_samples_ = 0;
};

/// A batch of mutations committed atomically across blobs. Preconditions
/// (expected versions) make the transaction optimistic: commit() fails with
/// Errc::conflict — applying nothing — if any precondition no longer holds.
/// Transactional writes address keys directly (no chunk striping): the
/// transaction layer is for small metadata blobs (Týr's use case).
class BlobTransaction {
 public:
  explicit BlobTransaction(BlobClient& client) : client_(&client) {}

  BlobTransaction& write(std::string_view key, std::uint64_t offset, ByteView data);
  BlobTransaction& truncate(std::string_view key, std::uint64_t new_size);
  BlobTransaction& create(std::string_view key);
  BlobTransaction& remove(std::string_view key);

  /// Require `key` to be at `version` at commit time (0 = must not exist).
  BlobTransaction& expect_version(std::string_view key, Version version);

  [[nodiscard]] std::size_t op_count() const noexcept { return ops_.size(); }

  /// Two-round commit: lock all involved servers (ascending node id — no
  /// deadlock), validate preconditions, apply everywhere, release. The only
  /// path that still takes whole-server exclusive locks.
  [[nodiscard]] Status commit();

 private:
  BlobClient* client_;
  std::vector<BlobServer::TxnOp> ops_;
  std::vector<std::pair<std::string, Version>> preconditions_;
};

}  // namespace bsc::blob
