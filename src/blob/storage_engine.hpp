// Per-node log-structured object store.
//
// All writes append to the active segment (sequential on the simulated
// disk — this is the mechanical root of the blob stack's write advantage
// over update-in-place file systems). A per-object extent index maps
// logical object ranges onto segment extents; overwrites supersede extents
// and leave dead bytes behind, which `compact()` reclaims. The object index
// is a hash map: every per-key op costs one lookup, and the ops hand back
// the object's length and version with their outcome so callers never look
// the key up again. Only scan() needs key order, and it sorts what it
// returns; compaction and checkpoints walk the index in hash order, so only
// the physical log layout depends on it.
//
// The engine is deliberately single-node and unlocked: thread safety and
// distribution live one layer up (blob::BlobServer / blob::BlobStore).
//
// Durability: the in-memory log can be backed by a write-ahead journal
// (persist::Journal). With one attached, every successful mutation is
// appended as a WAL record, `write_checkpoint()` snapshots the object table
// + extent data, and `recover(dir)` rebuilds an engine from the newest
// valid checkpoint plus WAL replay — reproducing logical contents, holes,
// and versions exactly (physical segment layout may differ).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/stream_copy.hpp"
#include "blob/types.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace bsc::blob {

struct EngineConfig {
  std::uint64_t segment_bytes = 8ULL << 20;  ///< sealed-segment size
  double compact_dead_ratio = 0.5;           ///< compaction trigger threshold
};

/// Mappings for log segments, the one recycler of their memory. give()
/// keeps every mapping it is handed (its pages stay resident); take(n)
/// hands back the newest kept mapping of exactly n bytes, or else unmaps
/// kept mappings, oldest first, until a fresh mapping of n bytes fits under
/// high_water() and maps it. The budget is the pool's own past: mapped
/// bytes (live plus kept) never exceed the most it ever had live, so
/// keeping mappings never raises peak memory, and a process that builds
/// clusters one after another reuses resident pages instead of faulting
/// fresh ones in. What a take finds depends only on the order of takes and
/// gives. Thread-safe.
class SegmentPool {
 public:
  /// A private pool that publishes no metrics (tests); engines use process().
  SegmentPool() = default;
  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;
  /// Unmaps the kept mappings; every taken one must have been given back.
  ~SegmentPool();

  /// The pool every LogSegment uses. Process-wide on purpose: a pool owned
  /// and released with each store would fault every page of every cluster
  /// again. Never destroyed, so an engine that outlives static destruction
  /// can still release its segments. Publishes engine.segment.maps (fresh
  /// mappings), engine.segment.reuses and engine.segment.kept_bytes.
  static SegmentPool& process();

  /// A mapping of exactly `n` bytes: reused (old bytes intact) or fresh
  /// (zeroed). Throws std::bad_alloc when the system has no memory to map.
  void* take(std::size_t n);
  /// Keep `p`, which take(n) returned; never unmaps or allocates.
  void give(void* p, std::size_t n) noexcept;

  [[nodiscard]] std::size_t mapped_bytes() const;  ///< live plus kept
  [[nodiscard]] std::size_t kept_bytes() const;
  [[nodiscard]] std::size_t high_water() const;    ///< most bytes ever live

 private:
  struct Metrics;
  explicit SegmentPool(const Metrics* metrics) : metrics_(metrics) {}

  const Metrics* metrics_ = nullptr;
  mutable std::mutex mu_;
  /// (mapping, bytes), oldest first. give() never allocates: take() keeps
  /// the capacity at least kept_.size() + live_count_.
  std::vector<std::pair<void*, std::size_t>> kept_;
  std::size_t kept_bytes_ = 0;  ///< sum over kept_
  std::size_t live_count_ = 0;  ///< mappings taken and not given back
  std::size_t live_bytes_ = 0;
  std::size_t high_water_ = 0;  ///< max of live_bytes_
};

/// One log segment's bytes: a buffer of fixed capacity that appends copy
/// into and that never moves. Its memory bypasses the heap: open() takes a
/// mapping from SegmentPool::process() (a released segment's, pages still
/// resident, or a fresh one whose pages commit on first touch) and
/// release() gives it back. Through the heap, whether a new segment's
/// appends fault would hang on the allocator's history in the whole
/// process: on a benchmark that builds a fresh cluster every pass, runs of
/// one build spread from 84 to 141 k ops/s (4-core x86 host).
class LogSegment {
 public:
  LogSegment() = default;
  LogSegment(LogSegment&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        capacity_(std::exchange(o.capacity_, 0)) {}
  LogSegment& operator=(LogSegment&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      capacity_ = std::exchange(o.capacity_, 0);
    }
    return *this;
  }
  LogSegment(const LogSegment&) = delete;
  LogSegment& operator=(const LogSegment&) = delete;
  ~LogSegment() { release(); }

  /// Drop any buffer and take an empty one of exactly `capacity` bytes
  /// (throws std::bad_alloc when the system has no memory to map).
  void open(std::uint64_t capacity);
  /// Give the buffer back to the segment pool; the segment is then empty
  /// with capacity 0.
  void release() noexcept;

  /// Copy `data` to the end with stream_copy and return whether it streamed.
  /// The caller keeps size() + data.size() within capacity(). Then prefetch,
  /// for writing, the next min(data.size(), kPrefetchMax) bytes of the tail:
  /// a reused mapping's pages have long left the cache, and the next append
  /// of a similar size finds its lines warm instead of stalling on each one.
  bool append(ByteView data) noexcept {
    const bool streamed = stream_copy(data_ + size_, data);
    size_ += data.size();
    const std::uint64_t ahead = std::min<std::uint64_t>(
        std::min<std::uint64_t>(data.size(), kPrefetchMax), capacity_ - size_);
    for (std::uint64_t i = 0; i < ahead; i += kCacheLine) {
      __builtin_prefetch(data_ + size_ + i, 1, 3);
    }
    return streamed;
  }

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] ByteView view() const noexcept { return {data_, size_}; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::uint64_t kPrefetchMax = 16 << 10;  ///< tail prefetch cap
  static constexpr std::uint64_t kCacheLine = 64;

  std::byte* data_ = nullptr;
  std::uint64_t size_ = 0;
  std::uint64_t capacity_ = 0;
};

/// An object's logical length and version, read in one index lookup.
struct ObjectMeta {
  std::uint64_t length = 0;
  Version version = 0;
};

/// Outcome of a write, carrying what the cost model needs.
struct WriteOutcome {
  std::uint64_t bytes = 0;
  bool sequential_disk = true;  ///< log-structured appends always are
  Version version = 0;
  std::uint64_t length = 0;     ///< object length after the write
};

/// Outcome of a read: data plus the number of distinct extents touched
/// (each non-adjacent extent costs a seek on the simulated disk).
/// `covered` counts the bytes actually backed by extents — the remainder of
/// `data` is zero-filled holes, which throughput accounting must not claim
/// as transferred payload.
struct ReadOutcome {
  Bytes data;
  std::uint32_t extents_touched = 0;
  std::uint64_t covered = 0;
  std::uint64_t length = 0;   ///< the object's length (also on reads at/past EOF)
  Version version = 0;        ///< the object's version
};

/// Outcome of a read_into: like ReadOutcome but the data went straight into
/// the caller's buffer, so only the accounting travels back.
struct ReadIntoOutcome {
  std::uint64_t data_len = 0;   ///< bytes within the object (what a wire reply would carry)
  std::uint64_t covered = 0;    ///< extent-backed bytes among data_len
  std::uint32_t extents_touched = 0;
  std::uint64_t length = 0;     ///< the object's length (also on reads at/past EOF)
  Version version = 0;          ///< the object's version
};

/// Outcome of a span_probe: the digest a quorum vote ships plus the exact
/// accounting a payload read of the same span would have reported, so the
/// caller can charge read-equivalent costs without materializing bytes.
struct SpanProbeOutcome {
  std::uint64_t digest = 0;     ///< fold of the overlapping extent checksums
  std::uint64_t data_len = 0;   ///< bytes a payload read would carry
  std::uint64_t covered = 0;    ///< extent-backed bytes among data_len
  std::uint32_t extents_touched = 0;
  Version version = 0;          ///< the object's version
};

class StorageEngine {
 public:
  explicit StorageEngine(EngineConfig cfg = {});

  /// Rebuild an engine from a persistence directory: load the newest valid
  /// checkpoint (corrupt ones are skipped), replay WAL records past its
  /// LSN, stop cleanly at a torn/corrupt tail record (the log is truncated
  /// there), and verify every extent checksum before returning. The result
  /// has no journal attached — reattach one to resume logging.
  static Result<StorageEngine> recover(const std::string& dir, EngineConfig cfg = {},
                                       persist::RecoveryReport* report = nullptr);

  /// Attach (or detach with nullptr) a write-ahead journal sink: every
  /// subsequent successful mutation is appended as a WAL record. Non-owning;
  /// the journal must outlive the engine or be detached first.
  void attach_journal(persist::Journal* journal) noexcept { journal_ = journal; }
  [[nodiscard]] persist::Journal* journal() const noexcept { return journal_; }

  /// Snapshot the whole object table + extent data into a checkpoint file
  /// in the attached journal's directory, covering every record assigned so
  /// far. With `prune_wal` the log is reset afterwards (bounded replay, at
  /// the cost of older-checkpoint fallback depth). Returns the covered LSN.
  Result<std::uint64_t> write_checkpoint(bool prune_wal = false);

  /// Create an empty object. Fails with already_exists if present.
  Status create(const std::string& key);

  /// Remove an object and account its extents as dead. The removed object's
  /// version is kept as a *version floor*: recreating the key continues the
  /// version sequence past it instead of restarting at 1. Without the floor,
  /// a replica that was down across a remove+recreate would hold the old
  /// incarnation at a HIGHER version than the live ones, and every
  /// freshest-wins repair path (resync, scrub, hint drain) would resurrect
  /// the deleted data. Floors survive recovery: WAL replay of the remove
  /// record rebuilds them, and checkpoints snapshot outstanding floors.
  Status remove(const std::string& key);

  [[nodiscard]] bool contains(const std::string& key) const;

  /// Random-access write; grows the object as needed. Creates the object
  /// when `create_if_missing` (RADOS semantics), else not_found.
  /// `checksum`, when non-zero, is the caller's precomputed
  /// content_checksum(data): batched clients compute it once and ship it
  /// end-to-end, so each replica stores instead of recomputing (and a wire
  /// corruption is caught later against the *sender's* checksum, which a
  /// server-side recompute would bless). 0 = compute here.
  Result<WriteOutcome> write(const std::string& key, std::uint64_t offset, ByteView data,
                             bool create_if_missing, std::uint64_t checksum = 0);

  /// Random-access read; unwritten holes read as zero; reads past the end
  /// are clipped (empty result at/after EOF).
  Result<ReadOutcome> read(const std::string& key, std::uint64_t offset,
                           std::uint64_t len) const;

  /// Scatter-gather read into a caller-provided buffer: copies the extent
  /// bytes overlapping [offset, offset + dst.size()) directly into `dst`,
  /// skipping the intermediate ReadOutcome allocation+copy of read().
  /// Contract: `dst` is pre-zeroed by the caller — holes and the tail past
  /// the object's length are left untouched (they already read as zero).
  Result<ReadIntoOutcome> read_into(const std::string& key, std::uint64_t offset,
                                    MutableByteView dst) const;

  /// Metadata-proportional span digest for quorum votes: folds the stored
  /// per-extent checksums overlapping [offset, offset + len) — clipped at
  /// the object's length, like a read — into one value, without touching
  /// payload bytes. Replicas that applied the same op stream hold identical
  /// extent layouts, so equal digests mean byte-identical read replies;
  /// layouts that differ over identical bytes only differ in digest, which
  /// costs the client a spurious (but safe) payload refetch. Extents whose
  /// whole-extent checksum was dropped (overwrite splits, truncate trims)
  /// fall back to hashing their overlapping stored bytes.
  [[nodiscard]] Result<SpanProbeOutcome> span_probe(const std::string& key,
                                                    std::uint64_t offset,
                                                    std::uint64_t len) const;

  /// Grow (sparse) or shrink the object.
  Result<Version> truncate(const std::string& key, std::uint64_t new_size);

  /// Raise the object's logical length to at least `min_size` (no data is
  /// written; the gap reads as a hole). Bumps the version. Used to keep a
  /// striped blob's full logical size on its chunk-0 record.
  Result<Version> grow(const std::string& key, std::uint64_t min_size);

  Result<std::uint64_t> size(const std::string& key) const;
  Result<Version> version(const std::string& key) const;
  /// size() and version() in one lookup.
  Result<ObjectMeta> meta(const std::string& key) const;

  /// Force the object's version to `v` without touching its contents.
  /// Repair paths (resync, scrub, hint drain, rebalance) use this to install
  /// a copy at the *source's* version: replicas then agree that equal
  /// versions imply equal contents, which is what version-arbitrated quorum
  /// reads rely on. Journaled (WalOp::set_version) so recovery round-trips.
  Status set_version(const std::string& key, Version v);

  /// All keys in lexicographic order, optionally filtered by prefix.
  /// The walk always visits every object (the namespace is flat; prefix
  /// filtering is not an index) — the cost model reflects that. The index is
  /// unordered, so the matches are sorted before they are returned.
  [[nodiscard]] std::vector<BlobStat> scan(const std::string& prefix = {}) const;

  [[nodiscard]] std::uint64_t object_count() const noexcept { return objects_.size(); }

  // --- space accounting / compaction ---
  [[nodiscard]] std::uint64_t live_bytes() const noexcept { return live_bytes_; }
  [[nodiscard]] std::uint64_t dead_bytes() const noexcept { return dead_bytes_; }
  [[nodiscard]] std::uint64_t segments_total() const noexcept { return segments_.size(); }
  [[nodiscard]] bool needs_compaction() const noexcept;

  /// Rewrite all live extents into fresh segments (through the same append
  /// path as write()); returns bytes reclaimed.
  std::uint64_t compact();

  /// Verify every extent checksum (failure injection tests flip bytes).
  [[nodiscard]] Status verify_integrity() const;

  /// Verify one object's extent checksums.
  [[nodiscard]] Status verify_object(const std::string& key) const;

  /// Test hook: corrupt one byte of stored data for `key` (if any exists).
  bool corrupt_for_testing(const std::string& key);

 private:
  struct Extent {
    std::uint64_t log_off = 0;  ///< logical offset within the object
    std::uint32_t segment = 0;
    std::uint64_t seg_off = 0;
    std::uint64_t len = 0;
    std::uint64_t checksum = 0;
  };

  struct ObjectRec {
    std::uint64_t length = 0;
    Version version = 0;
    std::vector<Extent> extents;  ///< sorted by log_off, non-overlapping
  };

  /// Append raw data to the log; returns (segment, seg_off). Seals the
  /// active segment when `data` would overflow it, and opens each segment
  /// with its whole capacity in one allocation, so appends never move bytes
  /// already in the log. write(), recovery and compact() all append here.
  std::pair<std::uint32_t, std::uint64_t> append_to_log(ByteView data);

  /// Account `n` bytes of `segment` dead (live_bytes_/dead_bytes_/per-segment
  /// live count) and recycle the slot if the segment is now fully dead.
  void retire_bytes(std::uint32_t segment, std::uint64_t n);

  /// If `segment` is sealed, non-empty and fully dead, give its mapping back
  /// to the segment pool and put the slot index on the free list.
  void maybe_recycle(std::uint32_t segment);

  /// Retire [off, off+len) from an extent list whose run overlapping it
  /// starts at `first` (the first extent ending past `off`): the run is
  /// replaced by its non-overlapping left/right slices. Returns where an
  /// extent starting at `off` now belongs, between those slices.
  std::vector<Extent>::iterator supersede_range(std::vector<Extent>& xs,
                                                std::vector<Extent>::iterator first,
                                                std::uint64_t off, std::uint64_t len);

  /// Copy the extent bytes of `rec` overlapping [offset, offset + dst.size())
  /// — clipped at the object's length, offset < length — into the pre-zeroed
  /// `dst`; read() and read_into() both serve through here.
  ReadIntoOutcome copy_out(const ObjectRec& rec, std::uint64_t offset,
                           MutableByteView dst) const;

  /// Append a record to the attached journal (no-op without one).
  Status journal_append(persist::WalRecord rec);

  /// Recovery: install one checkpointed object wholesale (extents appended
  /// to the log, length/version restored verbatim).
  Status restore_object(const persist::CheckpointObject& obj);

  /// Consume the version floor a prior remove left for `key` (0 if none):
  /// the recreated object's version sequence starts above it.
  Version take_floor(const std::string& key);

  EngineConfig cfg_;
  std::unordered_map<std::string, ObjectRec> objects_;  ///< unordered: see scan()
  std::map<std::string, Version> removed_floors_;  ///< last version of removed keys
  std::vector<LogSegment> segments_;
  std::uint32_t active_ = 0;                ///< index of the open (append) segment
  std::vector<std::uint64_t> seg_live_;     ///< live bytes per segment slot
  std::vector<std::uint32_t> free_slots_;   ///< released slot indices ready for reuse
  std::uint64_t live_bytes_ = 0;
  std::uint64_t dead_bytes_ = 0;
  persist::Journal* journal_ = nullptr;
};

}  // namespace bsc::blob
