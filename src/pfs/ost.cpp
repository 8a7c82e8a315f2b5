#include "pfs/ost.hpp"

#include <mutex>

#include "common/hash.hpp"

namespace {
std::uint64_t cache_key(bsc::pfs::InodeId ino, std::uint32_t obj) {
  return bsc::hash_combine(bsc::mix64(ino), obj);
}
}  // namespace

namespace bsc::pfs {

namespace {
constexpr SimMicros kCpuOpUs = 3;
constexpr double kCpuBytesUs = 0.0001;

SimMicros cpu_bytes(std::uint64_t n) {
  return static_cast<SimMicros>(static_cast<double>(n) * kCpuBytesUs);
}
}  // namespace

Status ObjectStorageTarget::write(InodeId ino, std::uint32_t obj, std::uint64_t offset,
                                  ByteView data, SimMicros* service_us) {
  std::unique_lock lk(mu_);
  StripeObject& so = objects_[Key{ino, obj}];
  const bool sequential = offset == so.last_write_end;
  write_at(so.data, offset, data);
  so.last_write_end = offset + data.size();
  *service_us = kCpuOpUs + cpu_bytes(data.size()) +
                node_->disk().service_us(data.size(), sequential);
  node_->cache().touch_write(cache_key(ino, obj), so.data.size());
  return Status::success();
}

Result<Bytes> ObjectStorageTarget::read(InodeId ino, std::uint32_t obj, std::uint64_t offset,
                                        std::uint64_t len, SimMicros* service_us) {
  std::shared_lock lk(mu_);
  auto it = objects_.find(Key{ino, obj});
  if (it == objects_.end()) {
    *service_us = kCpuOpUs + node_->disk().params().controller_us;
    return Bytes{};  // object never written: reads as empty
  }
  const StripeObject& so = it->second;
  Bytes out;
  if (offset < so.data.size()) {
    const std::uint64_t n = std::min(len, so.data.size() - offset);
    out.assign(so.data.begin() + static_cast<std::ptrdiff_t>(offset),
               so.data.begin() + static_cast<std::ptrdiff_t>(offset + n));
  }
  // Stripe-object reads are random on disk (different files and stripes
  // interleave on the platters) unless the object is page-cache resident.
  const bool cached = node_->cache().touch_read(cache_key(ino, obj), so.data.size());
  *service_us = kCpuOpUs + cpu_bytes(out.size()) +
                (cached ? 1 : node_->disk().service_us(out.size(), /*sequential=*/false));
  return out;
}

Status ObjectStorageTarget::truncate(InodeId ino, std::uint32_t obj, std::uint64_t new_len,
                                     SimMicros* service_us) {
  std::unique_lock lk(mu_);
  *service_us = kCpuOpUs + node_->disk().params().controller_us;
  auto it = objects_.find(Key{ino, obj});
  if (it == objects_.end()) return Status::success();
  if (it->second.data.size() > new_len) it->second.data.resize(new_len);
  it->second.last_write_end = std::min<std::uint64_t>(it->second.last_write_end, new_len);
  return Status::success();
}

void ObjectStorageTarget::remove_inode(InodeId ino, SimMicros* service_us) {
  std::unique_lock lk(mu_);
  std::uint64_t removed = 0;
  for (auto it = objects_.begin(); it != objects_.end();) {
    if (it->first.ino == ino) {
      ++removed;
      node_->cache().invalidate(cache_key(ino, it->first.obj));
      it = objects_.erase(it);
    } else {
      ++it;
    }
  }
  *service_us = kCpuOpUs + static_cast<SimMicros>(removed) * 2;
}

SimMicros ObjectStorageTarget::sync_cost() const noexcept {
  return kCpuOpUs + node_->disk().params().controller_us * 2;
}

std::uint64_t ObjectStorageTarget::bytes_stored() {
  std::shared_lock lk(mu_);
  std::uint64_t n = 0;
  for (const auto& [k, so] : objects_) n += so.data.size();
  return n;
}

}  // namespace bsc::pfs
