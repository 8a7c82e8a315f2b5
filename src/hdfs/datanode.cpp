#include "hdfs/datanode.hpp"

#include <mutex>

#include "common/hash.hpp"

namespace bsc::hdfs {

namespace {
constexpr SimMicros kCpuOpUs = 3;
constexpr double kCpuBytesUs = 0.0001;
}  // namespace

Status Datanode::append(std::uint64_t block_id, ByteView data, SimMicros* service_us) {
  std::unique_lock lk(mu_);
  Bytes& b = blocks_[block_id];
  bsc::append(b, data);
  *service_us = kCpuOpUs +
                static_cast<SimMicros>(static_cast<double>(data.size()) * kCpuBytesUs) +
                node_->disk().service_us(data.size(), /*sequential=*/true);
  node_->cache().touch_write(mix64(block_id), b.size());
  return Status::success();
}

Result<Bytes> Datanode::read(std::uint64_t block_id, std::uint64_t offset,
                             std::uint64_t len, SimMicros* service_us) {
  std::shared_lock lk(mu_);
  auto it = blocks_.find(block_id);
  if (it == blocks_.end()) {
    *service_us = kCpuOpUs;
    return {Errc::not_found, "block"};
  }
  Bytes out;
  if (offset < it->second.size()) {
    const std::uint64_t n = std::min(len, it->second.size() - offset);
    out.assign(it->second.begin() + static_cast<std::ptrdiff_t>(offset),
               it->second.begin() + static_cast<std::ptrdiff_t>(offset + n));
  }
  const bool cached = node_->cache().touch_read(mix64(block_id), it->second.size());
  *service_us = kCpuOpUs +
                static_cast<SimMicros>(static_cast<double>(out.size()) * kCpuBytesUs) +
                (cached ? 1 : node_->disk().service_us(out.size(), /*sequential=*/false));
  return out;
}

void Datanode::drop(std::uint64_t block_id, SimMicros* service_us) {
  std::unique_lock lk(mu_);
  node_->cache().invalidate(mix64(block_id));
  blocks_.erase(block_id);
  *service_us = kCpuOpUs;
}

std::uint64_t Datanode::bytes_stored() {
  std::shared_lock lk(mu_);
  std::uint64_t n = 0;
  for (const auto& [id, b] : blocks_) n += b.size();
  return n;
}

Result<std::uint64_t> Datanode::block_length(std::uint64_t block_id) {
  std::shared_lock lk(mu_);
  auto it = blocks_.find(block_id);
  if (it == blocks_.end()) return {Errc::not_found, "block"};
  return it->second.size();
}

}  // namespace bsc::hdfs
