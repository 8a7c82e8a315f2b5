#include "blob/storage_engine.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <new>
#include <tuple>
#include <utility>

#include <sys/mman.h>

#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "persist/fault_file.hpp"

namespace bsc::blob {

namespace {
/// Checkpoint key prefix marking a version-floor entry (ASCII "record
/// separator" — never the first byte of a real engine key, which is either
/// an application key or an application key plus a chunk suffix).
constexpr char kFloorMarker = '\x1e';

/// Process-wide engine op counts: every StorageEngine instance (one per
/// server) publishes into the same aggregate series.
struct EngineMetrics {
  obs::Counter& creates;
  obs::Counter& removes;
  obs::Counter& writes;
  obs::Counter& reads;
  obs::Counter& truncates;
  obs::Counter& grows;
  obs::Counter& bytes_written;
  obs::Counter& bytes_read;
  obs::Counter& bytes_streamed;  ///< written to segments by a streamed copy
  obs::Counter& compactions;
};

EngineMetrics& engine_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static EngineMetrics m{
      reg.counter("engine.op.create"),    reg.counter("engine.op.remove"),
      reg.counter("engine.op.write"),     reg.counter("engine.op.read"),
      reg.counter("engine.op.truncate"),  reg.counter("engine.op.grow"),
      reg.counter("engine.bytes_written"), reg.counter("engine.bytes_read"),
      reg.counter("engine.bytes_streamed"), reg.counter("engine.compactions")};
  return m;
}

/// First extent of a sorted, disjoint extent list that ends past `off`.
/// Disjoint extents sorted by start have sorted ends too, so a binary search
/// finds where the run overlapping [off, ...) begins; the run ends at the
/// first extent starting at or past the range's end.
template <typename It>
It first_ending_after(It first, It last, std::uint64_t off) {
  return std::partition_point(first, last,
                              [off](const auto& e) { return e.log_off + e.len <= off; });
}

/// The extent-overlap walk every read-side op shares: calls fn(e, lo, hi)
/// for each extent of `xs` overlapping [off, end), in offset order, with
/// [lo, hi) the overlap, and counts the overlap into `out`'s covered bytes
/// and touched extents.
template <typename Xs, typename Out, typename Fn>
void walk_overlaps(const Xs& xs, std::uint64_t off, std::uint64_t end, Out& out, Fn&& fn) {
  for (auto it = first_ending_after(xs.begin(), xs.end(), off);
       it != xs.end() && it->log_off < end; ++it) {
    const std::uint64_t lo = std::max(it->log_off, off);
    const std::uint64_t hi = std::min(it->log_off + it->len, end);
    fn(*it, lo, hi);
    out.covered += hi - lo;
    ++out.extents_touched;
  }
}

}  // namespace

struct SegmentPool::Metrics {
  obs::Counter& maps;
  obs::Counter& reuses;
  obs::Gauge& kept_bytes;
};

SegmentPool& SegmentPool::process() {
  auto& reg = obs::MetricsRegistry::global();
  static const Metrics metrics{reg.counter("engine.segment.maps"),
                               reg.counter("engine.segment.reuses"),
                               reg.gauge("engine.segment.kept_bytes")};
  static auto* pool = new SegmentPool(&metrics);
  return *pool;
}

SegmentPool::~SegmentPool() {
  for (const auto& [p, n] : kept_) (void)::munmap(p, n);
}

void* SegmentPool::take(std::size_t n) {
  std::scoped_lock lk(mu_);
  // Room for every give(), grown geometrically so that a pool of many
  // mappings does not reallocate on every take.
  const std::size_t room = kept_.size() + live_count_ + 1;
  if (kept_.capacity() < room) kept_.reserve(std::max(room, 2 * kept_.capacity()));
  void* p = nullptr;
  for (auto it = kept_.rbegin(); it != kept_.rend(); ++it) {
    if (it->second != n) continue;
    p = it->first;
    kept_.erase(std::next(it).base());
    kept_bytes_ -= n;
    if (metrics_) metrics_->reuses.inc();
    break;
  }
  if (p == nullptr) {
    auto fits = kept_.begin();
    for (; fits != kept_.end() && live_bytes_ + kept_bytes_ + n > high_water_; ++fits) {
      (void)::munmap(fits->first, fits->second);
      kept_bytes_ -= fits->second;
    }
    kept_.erase(kept_.begin(), fits);
    p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    if (metrics_) metrics_->maps.inc();
  }
  ++live_count_;
  live_bytes_ += n;
  high_water_ = std::max(high_water_, live_bytes_);
  if (metrics_) metrics_->kept_bytes.set(static_cast<std::int64_t>(kept_bytes_));
  return p;
}

void SegmentPool::give(void* p, std::size_t n) noexcept {
  std::scoped_lock lk(mu_);
  kept_.emplace_back(p, n);  // within the capacity take() reserved: no allocation
  kept_bytes_ += n;
  --live_count_;
  live_bytes_ -= n;
  if (metrics_) metrics_->kept_bytes.set(static_cast<std::int64_t>(kept_bytes_));
}

std::size_t SegmentPool::mapped_bytes() const {
  std::scoped_lock lk(mu_);
  return live_bytes_ + kept_bytes_;
}

std::size_t SegmentPool::kept_bytes() const {
  std::scoped_lock lk(mu_);
  return kept_bytes_;
}

std::size_t SegmentPool::high_water() const {
  std::scoped_lock lk(mu_);
  return high_water_;
}

void LogSegment::open(std::uint64_t capacity) {
  release();
  data_ = static_cast<std::byte*>(SegmentPool::process().take(capacity));
  capacity_ = capacity;
}

void LogSegment::release() noexcept {
  if (data_ != nullptr) SegmentPool::process().give(data_, capacity_);
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

StorageEngine::StorageEngine(EngineConfig cfg) : cfg_(cfg) {
  segments_.emplace_back();  // active segment
  seg_live_.push_back(0);
}

Status StorageEngine::journal_append(persist::WalRecord rec) {
  if (!journal_) return Status::success();
  // The in-memory apply already happened; a failed append means the journal
  // is behind the engine, which the caller must see as an op failure.
  return journal_->append(std::move(rec));
}

Version StorageEngine::take_floor(const std::string& key) {
  auto it = removed_floors_.find(key);
  if (it == removed_floors_.end()) return 0;
  const Version v = it->second;
  removed_floors_.erase(it);
  return v;
}

Status StorageEngine::create(const std::string& key) {
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  auto [it, inserted] = objects_.try_emplace(key);
  if (!inserted) return {Errc::already_exists, key};
  it->second.version = take_floor(key) + 1;
  engine_metrics().creates.inc();
  return journal_append({.op = persist::WalOp::create, .key = key});
}

Status StorageEngine::remove(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  // Keep the dead object's version as a floor so a recreation continues the
  // sequence — see the header for why freshest-wins repair depends on this.
  removed_floors_[key] = it->second.version;
  for (const auto& e : it->second.extents) retire_bytes(e.segment, e.len);
  objects_.erase(it);
  engine_metrics().removes.inc();
  return journal_append({.op = persist::WalOp::remove, .key = key});
}

bool StorageEngine::contains(const std::string& key) const {
  return objects_.count(key) != 0;
}

std::pair<std::uint32_t, std::uint64_t> StorageEngine::append_to_log(ByteView data) {
  if (segments_[active_].size() + data.size() > cfg_.segment_bytes &&
      !segments_[active_].empty()) {
    // Seal the active segment and move to a released slot index, or a new
    // one. Either way the segment opens below with a pooled mapping.
    const std::uint32_t sealed = active_;
    if (!free_slots_.empty()) {
      active_ = free_slots_.back();
      free_slots_.pop_back();
    } else {
      segments_.emplace_back();
      seg_live_.push_back(0);
      active_ = static_cast<std::uint32_t>(segments_.size() - 1);
    }
    maybe_recycle(sealed);  // a sealed segment can already be fully dead
  }
  LogSegment& seg = segments_[active_];
  // Open the segment at its full capacity in one allocation (a payload of
  // segment size or more gets exactly its own size), so it never
  // reallocates or moves while it fills.
  const std::uint64_t need = std::max<std::uint64_t>(cfg_.segment_bytes, data.size());
  if (seg.empty() && seg.capacity() < need) seg.open(need);
  const std::uint64_t seg_off = seg.size();
  if (seg.append(data)) engine_metrics().bytes_streamed.add(data.size());
  seg_live_[active_] += data.size();
  return {active_, seg_off};
}

void StorageEngine::retire_bytes(std::uint32_t segment, std::uint64_t n) {
  live_bytes_ -= n;
  dead_bytes_ += n;
  seg_live_[segment] -= n;
  maybe_recycle(segment);
}

void StorageEngine::maybe_recycle(std::uint32_t segment) {
  if (segment == active_ || seg_live_[segment] != 0 || segments_[segment].empty()) {
    return;
  }
  // Every byte in the segment is dead: no live extent references it, so its
  // mapping goes back to the segment pool, whose newest kept mapping of this
  // size the next segment open takes (pages still resident).
  segments_[segment].release();
  free_slots_.push_back(segment);
}

std::vector<StorageEngine::Extent>::iterator StorageEngine::supersede_range(
    std::vector<Extent>& xs, std::vector<Extent>::iterator first, std::uint64_t off,
    std::uint64_t len) {
  const std::uint64_t end = off + len;
  auto last = first;
  while (last != xs.end() && last->log_off < end) ++last;
  if (first == last) return first;  // nothing overlaps: insert before the run
  // Overlap: keep the non-overlapping left/right slices, kill the middle.
  // Only the run's first extent can stick out on the left and only its last
  // on the right, so at most two trimmed pieces replace the run.
  const bool left_kept = first->log_off < off;  // the new extent goes after it
  std::array<Extent, 2> pieces;
  std::size_t n = 0;
  for (auto it = first; it != last; ++it) {
    const Extent& e = *it;
    const std::uint64_t e_end = e.log_off + e.len;
    retire_bytes(e.segment, std::min(e_end, end) - std::max(e.log_off, off));
    if (e.log_off < off) {
      Extent left = e;
      left.len = off - e.log_off;
      left.checksum = 0;  // partial extents lose their whole-extent checksum
      pieces[n++] = left;
    }
    if (e_end > end) {
      Extent right = e;
      const std::uint64_t skip = end - e.log_off;
      right.log_off = end;
      right.seg_off = e.seg_off + skip;
      right.len = e_end - end;
      right.checksum = 0;
      pieces[n++] = right;
    }
  }
  const auto at = xs.insert(xs.erase(first, last), pieces.begin(),
                            pieces.begin() + static_cast<std::ptrdiff_t>(n));
  return left_kept ? std::next(at) : at;
}

Result<WriteOutcome> StorageEngine::write(const std::string& key, std::uint64_t offset,
                                          ByteView data, bool create_if_missing,
                                          std::uint64_t checksum) {
  if (key.empty()) return {Errc::invalid_argument, "empty blob key"};
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    if (!create_if_missing) return {Errc::not_found, key};
    it = objects_.try_emplace(key).first;
    it->second.version = take_floor(key);  // ++ below lands at floor + 1
  }
  ObjectRec& rec = it->second;
  if (!data.empty()) {
    // One binary search finds the run the write overlaps; the in-place
    // check, the supersede and the insert all start from it.
    auto& xs = rec.extents;
    const auto hit = first_ending_after(xs.begin(), xs.end(), offset);
    if (hit != xs.end() && hit->log_off == offset && hit->len == data.size()) {
      // In-place fast path: a write that exactly replaces one existing
      // extent overwrites its segment bytes directly. Extents never overlap,
      // so an exact match means no other extent touches the range — no
      // supersede or append churn, no dead-byte growth, and under
      // steady-state full-chunk overwrites (the striped-write pattern) the
      // same slot is reused round after round instead of a fresh one. It is
      // cold by the next round all the same, so an overwrite of
      // kStreamCopyMin bytes or more streams past the cache (stream_copy)
      // instead of reading every destination line in first.
      if (stream_copy(segments_[hit->segment].data() + hit->seg_off, data)) {
        engine_metrics().bytes_streamed.add(data.size());
      }
      hit->checksum = checksum != 0 ? checksum : content_checksum(data);
    } else {
      const auto pos = supersede_range(xs, hit, offset, data.size());
      auto [seg, seg_off] = append_to_log(data);
      xs.insert(pos, Extent{.log_off = offset, .segment = seg, .seg_off = seg_off,
                            .len = data.size(),
                            .checksum = checksum != 0 ? checksum : content_checksum(data)});
      live_bytes_ += data.size();
    }
  }
  rec.length = std::max(rec.length, offset + data.size());
  ++rec.version;
  if (journal_ != nullptr) {
    // The WAL record owns a copy of the payload; constructing it with no
    // journal attached would be a dead full-payload copy on every write.
    auto jst = journal_append({.op = persist::WalOp::write,
                               .key = key,
                               .offset = offset,
                               .create_if_missing = create_if_missing,
                               .data = Bytes(data.begin(), data.end())});
    if (!jst.ok()) return jst.error();
  }
  engine_metrics().writes.inc();
  engine_metrics().bytes_written.add(data.size());
  return WriteOutcome{.bytes = data.size(), .sequential_disk = true,
                      .version = rec.version, .length = rec.length};
}

Result<ReadOutcome> StorageEngine::read(const std::string& key, std::uint64_t offset,
                                        std::uint64_t len) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  const ObjectRec& rec = it->second;
  ReadOutcome out;
  out.length = rec.length;
  out.version = rec.version;
  if (offset >= rec.length) return out;
  out.data.assign(std::min(len, rec.length - offset), std::byte{0});  // holes read as zero
  const ReadIntoOutcome in = copy_out(rec, offset, out.data);
  out.covered = in.covered;
  out.extents_touched = in.extents_touched;
  return out;
}

Result<ReadIntoOutcome> StorageEngine::read_into(const std::string& key,
                                                 std::uint64_t offset,
                                                 MutableByteView dst) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  const ObjectRec& rec = it->second;
  if (offset >= rec.length || dst.empty()) {
    return ReadIntoOutcome{.length = rec.length, .version = rec.version};
  }
  return copy_out(rec, offset, dst);
}

ReadIntoOutcome StorageEngine::copy_out(const ObjectRec& rec, std::uint64_t offset,
                                        MutableByteView dst) const {
  ReadIntoOutcome out{.length = rec.length, .version = rec.version};
  out.data_len = std::min<std::uint64_t>(dst.size(), rec.length - offset);
  walk_overlaps(rec.extents, offset, offset + out.data_len, out,
                [&](const Extent& e, std::uint64_t lo, std::uint64_t hi) {
                  std::copy_n(segments_[e.segment].data() + (e.seg_off + (lo - e.log_off)),
                              hi - lo, dst.begin() + static_cast<std::ptrdiff_t>(lo - offset));
                });
  engine_metrics().reads.inc();
  engine_metrics().bytes_read.add(out.data_len);
  return out;
}

Result<SpanProbeOutcome> StorageEngine::span_probe(const std::string& key,
                                                   std::uint64_t offset,
                                                   std::uint64_t len) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  const ObjectRec& rec = it->second;
  SpanProbeOutcome out{.version = rec.version};
  out.digest = 0x9d5c0a7c3f4e1b27ULL;  // nonzero seed: 0 means "no digest" on the wire
  if (offset >= rec.length || len == 0) return out;
  out.data_len = std::min(len, rec.length - offset);
  auto fold = [&](const Extent& e, std::uint64_t lo, std::uint64_t hi) {
    // The fold pins the window's position in the span, its position inside
    // the extent, and the whole-extent (length, checksum): equal tuples mean
    // the window covers the same bytes. Split/trimmed extents dropped their
    // checksum (0), so hash their overlapping stored bytes instead.
    std::uint64_t content = e.checksum;
    if (content == 0) {
      content = content_checksum(
          subview(segments_[e.segment].view(), e.seg_off + (lo - e.log_off), hi - lo));
    }
    out.digest = hash_combine(out.digest, lo - offset);
    out.digest = hash_combine(out.digest, hi - lo);
    out.digest = hash_combine(out.digest, lo - e.log_off);
    out.digest = hash_combine(out.digest, e.len);
    out.digest = hash_combine(out.digest, content);
  };
  walk_overlaps(rec.extents, offset, offset + out.data_len, out, fold);
  return out;
}

Result<Version> StorageEngine::truncate(const std::string& key, std::uint64_t new_size) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  ObjectRec& rec = it->second;
  if (new_size < rec.length) {
    // Drop extents fully past the new end; trim any extent straddling it.
    std::vector<Extent> kept;
    for (const Extent& e : rec.extents) {
      if (e.log_off >= new_size) {
        retire_bytes(e.segment, e.len);
        continue;
      }
      if (e.log_off + e.len > new_size) {
        Extent trimmed = e;
        const std::uint64_t cut = e.log_off + e.len - new_size;
        trimmed.len -= cut;
        trimmed.checksum = 0;
        retire_bytes(e.segment, cut);
        kept.push_back(trimmed);
      } else {
        kept.push_back(e);
      }
    }
    rec.extents = std::move(kept);
  }
  rec.length = new_size;
  ++rec.version;
  auto jst = journal_append({.op = persist::WalOp::truncate, .key = key, .size = new_size});
  if (!jst.ok()) return jst.error();
  engine_metrics().truncates.inc();
  return rec.version;
}

Result<Version> StorageEngine::grow(const std::string& key, std::uint64_t min_size) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  ObjectRec& rec = it->second;
  rec.length = std::max(rec.length, min_size);
  ++rec.version;
  auto jst = journal_append({.op = persist::WalOp::grow, .key = key, .size = min_size});
  if (!jst.ok()) return jst.error();
  engine_metrics().grows.inc();
  return rec.version;
}

Result<std::uint64_t> StorageEngine::size(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  return it->second.length;
}

Result<Version> StorageEngine::version(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  return it->second.version;
}

Result<ObjectMeta> StorageEngine::meta(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  return ObjectMeta{.length = it->second.length, .version = it->second.version};
}

Status StorageEngine::set_version(const std::string& key, Version v) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  it->second.version = v;
  // The version rides in the `size` field — set_version carries no payload.
  return journal_append({.op = persist::WalOp::set_version, .key = key, .size = v});
}

std::vector<BlobStat> StorageEngine::scan(const std::string& prefix) const {
  std::vector<BlobStat> out;
  for (const auto& [key, rec] : objects_) {
    if (!prefix.empty() && key.compare(0, prefix.size(), prefix) != 0) continue;
    out.push_back({key, rec.length, rec.version});
  }
  std::sort(out.begin(), out.end(),
            [](const BlobStat& a, const BlobStat& b) { return a.key < b.key; });
  return out;
}

bool StorageEngine::needs_compaction() const noexcept {
  const std::uint64_t total = live_bytes_ + dead_bytes_;
  return total > 0 &&
         static_cast<double>(dead_bytes_) / static_cast<double>(total) >
             cfg_.compact_dead_ratio;
}

std::uint64_t StorageEngine::compact() {
  const std::uint64_t reclaimed = dead_bytes_;
  // Rebuild the log from empty through append_to_log, the segment-open and
  // seal path writes and recovery use; the old segments are only the source.
  std::vector<LogSegment> old;
  old.swap(segments_);
  segments_.emplace_back();
  seg_live_.assign(1, 0);
  free_slots_.clear();
  active_ = 0;
  for (auto& [key, rec] : objects_) {
    for (Extent& e : rec.extents) {
      const ByteView data = subview(old[e.segment].view(), e.seg_off, e.len);
      std::tie(e.segment, e.seg_off) = append_to_log(data);
      e.checksum = content_checksum(data);
    }
  }
  dead_bytes_ = 0;
  engine_metrics().compactions.inc();
  return reclaimed;
}

Status StorageEngine::verify_integrity() const {
  for (const auto& [key, rec] : objects_) {
    auto st = verify_object(key);
    if (!st.ok()) return st;
  }
  return Status::success();
}

Status StorageEngine::verify_object(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return {Errc::not_found, key};
  for (const Extent& e : it->second.extents) {
    if (e.checksum == 0) continue;  // partial extents: checksum dropped
    const LogSegment& seg = segments_[e.segment];
    if (e.seg_off + e.len > seg.size()) {
      return {Errc::io_error, "extent past segment end: " + key};
    }
    if (content_checksum(subview(seg.view(), e.seg_off, e.len)) != e.checksum) {
      return {Errc::io_error, "checksum mismatch: " + key};
    }
  }
  return Status::success();
}

Result<std::uint64_t> StorageEngine::write_checkpoint(bool prune_wal) {
  if (!journal_) return {Errc::invalid_argument, "no journal attached"};
  // Covers every record assigned so far — including ones still sitting in
  // the group-commit buffer, since the in-memory state already reflects
  // them and the caller's locking forbids concurrent appends.
  const std::uint64_t lsn = journal_->last_assigned_lsn();
  std::vector<persist::CheckpointObject> objs;
  objs.reserve(objects_.size());
  for (const auto& [key, rec] : objects_) {
    persist::CheckpointObject obj;
    obj.key = key;
    obj.length = rec.length;
    obj.version = rec.version;
    obj.runs.reserve(rec.extents.size());
    for (const Extent& e : rec.extents) {
      persist::CheckpointRun run;
      run.log_off = e.log_off;
      const ByteView data = subview(segments_[e.segment].view(), e.seg_off, e.len);
      run.data.assign(data.begin(), data.end());
      // Partial extents carry checksum 0 in the index; the snapshot always
      // records a real one so recovery can validate every run.
      run.checksum = content_checksum(data);
      obj.runs.push_back(std::move(run));
    }
    objs.push_back(std::move(obj));
  }
  // Outstanding version floors ride along as marker entries (key prefixed
  // with kFloorMarker, version = floor, no data). Floors and live objects
  // are disjoint — creation consumes the floor — so no key appears twice.
  for (const auto& [key, floor] : removed_floors_) {
    persist::CheckpointObject obj;
    obj.key = std::string(1, kFloorMarker) + key;
    obj.version = floor;
    objs.push_back(std::move(obj));
  }
  auto st = persist::write_checkpoint(journal_->dir(), lsn, objs);
  if (!st.ok()) return st.error();
  if (prune_wal) {
    auto ts = journal_->truncate_log();
    if (!ts.ok()) return ts.error();
  }
  return lsn;
}

Status StorageEngine::restore_object(const persist::CheckpointObject& obj) {
  if (obj.key.empty()) return {Errc::io_error, "checkpoint object with empty key"};
  if (obj.key[0] == kFloorMarker) {
    removed_floors_[obj.key.substr(1)] = obj.version;
    return Status::success();
  }
  auto [it, inserted] = objects_.try_emplace(obj.key);
  if (!inserted) return {Errc::io_error, "duplicate checkpoint object: " + obj.key};
  ObjectRec& rec = it->second;
  rec.length = obj.length;
  rec.version = obj.version;
  rec.extents.reserve(obj.runs.size());
  std::uint64_t prev_end = 0;
  for (const persist::CheckpointRun& run : obj.runs) {
    if (run.log_off < prev_end || run.log_off + run.data.size() > obj.length) {
      objects_.erase(it);
      return {Errc::io_error, "checkpoint runs out of order: " + obj.key};
    }
    if (content_checksum(as_view(run.data)) != run.checksum) {
      objects_.erase(it);
      return {Errc::io_error, "checkpoint run checksum mismatch: " + obj.key};
    }
    prev_end = run.log_off + run.data.size();
    auto [seg, seg_off] = append_to_log(as_view(run.data));
    rec.extents.push_back({.log_off = run.log_off, .segment = seg, .seg_off = seg_off,
                           .len = run.data.size(), .checksum = run.checksum});
    live_bytes_ += run.data.size();
  }
  return Status::success();
}

Result<StorageEngine> StorageEngine::recover(const std::string& dir, EngineConfig cfg,
                                             persist::RecoveryReport* report) {
  StorageEngine e(cfg);
  persist::RecoveryReport rep;

  persist::CheckpointState ckpt = persist::load_newest_checkpoint(dir);
  rep.checkpoint_lsn = ckpt.found ? ckpt.lsn : 0;
  rep.checkpoints_skipped = ckpt.skipped;
  for (const auto& obj : ckpt.objects) {
    auto st = e.restore_object(obj);
    if (!st.ok()) return st.error();
  }

  persist::WalScanResult scan = persist::scan_wal(persist::wal_path(dir));
  rep.tail_torn = scan.tail_torn;
  rep.tail_reason = scan.tail_reason;
  rep.wal_valid_bytes = scan.valid_bytes;
  for (const persist::WalRecord& r : scan.records) {
    if (ckpt.found && r.lsn <= ckpt.lsn) {
      ++rep.records_skipped;
      continue;
    }
    Status st;
    switch (r.op) {
      case persist::WalOp::create:
        st = e.create(r.key);
        break;
      case persist::WalOp::remove:
        st = e.remove(r.key);
        break;
      case persist::WalOp::write: {
        auto w = e.write(r.key, r.offset, as_view(r.data), r.create_if_missing);
        st = w.ok() ? Status::success() : Status(w.error());
        break;
      }
      case persist::WalOp::truncate: {
        auto t = e.truncate(r.key, r.size);
        st = t.ok() ? Status::success() : Status(t.error());
        break;
      }
      case persist::WalOp::grow: {
        auto g = e.grow(r.key, r.size);
        st = g.ok() ? Status::success() : Status(g.error());
        break;
      }
      case persist::WalOp::set_version:
        st = e.set_version(r.key, r.size);
        break;
    }
    if (!st.ok()) {
      return Error{Errc::io_error,
                   "wal replay failed at lsn " + std::to_string(r.lsn) + ": " + st.message()};
    }
    ++rep.records_replayed;
  }

  if (scan.tail_torn && std::filesystem::exists(persist::wal_path(dir))) {
    // Discard the torn/corrupt tail so future appends extend a clean prefix.
    auto ts = persist::FaultFile(persist::wal_path(dir)).truncate_to(scan.valid_bytes);
    if (!ts.ok()) return ts.error();
  }

  // Recovery feeds the same verification machinery the scrubber uses: a
  // rebuilt engine with a bad extent checksum is an error, not a warning.
  auto vi = e.verify_integrity();
  if (!vi.ok()) return vi.error();

  if (report) *report = rep;
  return e;
}

bool StorageEngine::corrupt_for_testing(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end() || it->second.extents.empty()) return false;
  const Extent& e = it->second.extents.front();
  if (e.len == 0) return false;
  segments_[e.segment].data()[e.seg_off] ^= std::byte{0xff};
  return true;
}

}  // namespace bsc::blob
