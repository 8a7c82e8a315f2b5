#include "pfs/ost.hpp"

#include <algorithm>
#include <mutex>

#include "blob/server.hpp"
#include "common/hash.hpp"

namespace bsc::pfs {

namespace {
constexpr blob::ServerCosts kCpu{};

std::uint64_t cache_key(InodeId ino, std::uint32_t obj) {
  return hash_combine(mix64(ino), obj);
}
}  // namespace

Status ObjectStorageTarget::write(InodeId ino, std::uint64_t offset, ByteView data,
                                  SimMicros* service_us) {
  std::unique_lock lk(mu_);
  auto w = engine_.write(blob::id_key(ino), offset, data, /*create_if_missing=*/true);
  if (!w.ok()) return w.error();
  std::uint64_t& end = write_end_[ino];
  const bool sequential = offset == end;
  end = offset + data.size();
  *service_us = kCpu.cpu_op_us + kCpu.bytes_us(data.size()) +
                node_->disk().service_us(data.size(), sequential);
  node_->cache().touch_write(cache_key(ino, index_), w.value().length);
  return Status::success();
}

std::uint64_t ObjectStorageTarget::read(InodeId ino, std::uint64_t offset, MutableByteView dst,
                                        SimMicros* service_us) {
  std::shared_lock lk(mu_);
  auto r = engine_.read_into(blob::id_key(ino), offset, dst);
  if (!r.ok()) {
    *service_us = kCpu.cpu_op_us + node_->disk().params().controller_us;
    return 0;  // object never written: reads as empty
  }
  const std::uint64_t n = r.value().data_len;
  // Stripe-object reads are random on disk (different files and stripes
  // interleave on the platters) unless the object is page-cache resident.
  const bool cached = node_->cache().touch_read(cache_key(ino, index_), r.value().length);
  *service_us = kCpu.cpu_op_us + kCpu.bytes_us(n) +
                (cached ? 1 : node_->disk().service_us(n, /*sequential=*/false));
  return n;
}

Status ObjectStorageTarget::truncate(InodeId ino, std::uint64_t new_len,
                                     SimMicros* service_us) {
  std::unique_lock lk(mu_);
  *service_us = kCpu.cpu_op_us + node_->disk().params().controller_us;
  const std::string key = blob::id_key(ino);
  auto size = engine_.size(key);
  if (!size.ok()) return Status::success();
  std::uint64_t& end = write_end_[ino];
  end = std::min(end, new_len);
  // The fan-out only cuts: the file's size, holes included, lives at the MDS.
  if (size.value() <= new_len) return Status::success();
  auto t = engine_.truncate(key, new_len);
  if (!t.ok()) return t.error();
  return Status::success();
}

void ObjectStorageTarget::remove_inode(InodeId ino, SimMicros* service_us) {
  std::unique_lock lk(mu_);
  const bool removed = engine_.remove(blob::id_key(ino)).ok();
  if (removed) node_->cache().invalidate(cache_key(ino, index_));
  write_end_.erase(ino);
  *service_us = kCpu.cpu_op_us + (removed ? 2 : 0);
}

SimMicros ObjectStorageTarget::sync_cost() const noexcept {
  return kCpu.cpu_op_us + node_->disk().params().controller_us * 2;
}

}  // namespace bsc::pfs
