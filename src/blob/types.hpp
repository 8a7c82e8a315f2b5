// Vocabulary types of the blob layer.
//
// A blob is a named, flat-namespace binary object supporting the primitive
// set of the paper's §III:
//   Blob Access:         read(key, off, len), size(key)
//   Blob Manipulation:   write(key, off, data), truncate(key, len)
//   Blob Administration: create(key), remove(key)
//   Namespace Access:    scan()
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/units.hpp"

namespace bsc::blob {

/// Blob keys are arbitrary non-empty strings in a single flat namespace.
using BlobKey = std::string;

/// Monotonic per-blob version, bumped on every mutation. Used by the
/// transaction layer for optimistic conflict detection and by tests to
/// assert replica convergence.
using Version = std::uint64_t;

struct BlobStat {
  BlobKey key;
  std::uint64_t size = 0;
  Version version = 0;
};

/// Client-side retry behavior, all in simulated time. Backoff between
/// attempts uses decorrelated jitter (sleep = uniform[base, prev*3], capped)
/// drawn from the client's seeded rng, so runs are deterministic.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;        ///< total tries per replica leg (1 = no retry)
  SimMicros attempt_deadline_us = 2000;  ///< per-attempt deadline (timeout on drop)
  SimMicros backoff_base_us = 100;       ///< first backoff lower bound
  SimMicros backoff_cap_us = 10000;      ///< backoff upper clamp
};

/// End-to-end operation budget + retry-amplification control. The per-op
/// deadline is carried across every retry, failover, and batch
/// envelope of one client primitive: per-attempt deadlines are clamped to
/// the remaining budget, and once it is spent the operation fails with
/// Errc::deadline_exceeded instead of queueing more work behind a lost
/// cause. The token bucket is client-wide: each fresh operation earns
/// `retry_token_ratio` tokens, each retry spends one — under a correlated
/// outage the bucket drains and retries are suppressed, bounding fleet-wide
/// retry amplification at ~(1 + ratio) of offered load (the classic defense
/// against metastable retry storms).
struct DeadlinePolicy {
  SimMicros op_deadline_us = 0;    ///< total per-operation budget (0 = unbounded)
  double retry_token_ratio = 0.1;  ///< tokens earned per first attempt
  double retry_token_cap = 64.0;   ///< bucket capacity + initial fill (<=0 = off)
};

/// Per-replica gray-failure defense in BlobClient. Every node the client
/// talks to carries an EWMA of delivered-leg latency and a consecutive-
/// failure count (errors, timeouts, and sheds alike); crossing the failure
/// threshold opens a breaker: closed -> open (cooldown, no traffic) ->
/// half_open (single probes) -> closed after `half_open_probes` successes,
/// or straight back to open on a probe failure. Suspect nodes (breaker not
/// closed, or a latency EWMA far above the fleet's) are demoted to the back
/// of read-candidate order; mutation forwards to an open-breaker replica
/// convert to hinted handoff immediately instead of burning timeouts.
struct BreakerPolicy {
  bool enabled = true;
  std::uint32_t failure_threshold = 5;   ///< consecutive failures to open
  SimMicros open_cooldown_us = 20000;    ///< open -> half_open after this long
  std::uint32_t half_open_probes = 2;    ///< successful probes to close
  double ewma_alpha = 0.2;               ///< latency EWMA smoothing factor
  double suspect_latency_factor = 3.0;   ///< EWMA > factor * fleet mean = suspect
  std::uint32_t suspect_min_samples = 16;///< per-node samples before latency suspicion
};

struct StoreConfig {
  std::uint32_t replication = 3;      ///< replicas per chunk (primary included)
  std::uint64_t chunk_bytes = 1 << 20; ///< striping unit across storage nodes (0 = off)
  std::uint32_t vnodes_per_node = 64; ///< ring virtual nodes

  /// Write quorum W. 0 (default) keeps the classic behavior: every *live*
  /// replica must ack (down replicas are repaired by resync). A non-zero
  /// W <= replication makes a mutation succeed once W replicas ack; missed
  /// replicas get hinted-handoff entries, and reads arbitrate freshness
  /// across R = replication - W + 1 replicas by version.
  std::uint32_t write_quorum = 0;

  RetryPolicy retry;
  DeadlinePolicy deadline;
  BreakerPolicy breaker;

  /// Effective read quorum for the configured write quorum.
  [[nodiscard]] std::uint32_t read_quorum() const noexcept {
    if (write_quorum == 0 || write_quorum >= replication) return 1;
    return replication - write_quorum + 1;
  }
};

// --- chunk striping -------------------------------------------------------
//
// Blobs larger than StoreConfig::chunk_bytes are striped: chunk 0 is stored
// under the application key itself (small blobs never pay for chunking, and
// chunk 0's engine length carries the FULL logical blob size), while chunk
// c >= 1 is stored under an internal key `key SEP c`. Chunk keys are ordinary
// ring keys, so each chunk lands on its own replica set and resync /
// rebalance / scrub handle them with no special casing.

/// Separator between an application key and a chunk index. ASCII "unit
/// separator" — application keys never contain it.
inline constexpr char kChunkKeySep = '\x1f';

/// Engine key holding chunk `chunk` of blob `key` (chunk 0 = the key itself).
inline std::string chunk_engine_key(std::string_view key, std::uint64_t chunk) {
  std::string out{key};
  if (chunk > 0) {
    out += kChunkKeySep;
    out += std::to_string(chunk);
  }
  return out;
}

/// True for internal chunk keys (c >= 1); namespace scans filter these out.
inline bool is_chunk_key(std::string_view key) {
  return key.find(kChunkKeySep) != std::string_view::npos;
}

/// Engine key naming a numeric object (a PFS inode, an HDFS block): the id's
/// 8 bytes, short enough for std::string's inline buffer.
inline std::string id_key(std::uint64_t id) {
  return {reinterpret_cast<const char*>(&id), sizeof id};
}

}  // namespace bsc::blob
