#include "hdfs/datanode.hpp"

#include <mutex>

#include "blob/server.hpp"
#include "common/hash.hpp"

namespace bsc::hdfs {

namespace {
constexpr blob::ServerCosts kCpu{};
}  // namespace

Status Datanode::append(std::uint64_t block_id, ByteView data, SimMicros* service_us) {
  std::unique_lock lk(mu_);
  const std::string key = blob::id_key(block_id);
  auto size = engine_.size(key);
  auto w = engine_.write(key, size.ok() ? size.value() : 0, data, /*create_if_missing=*/true);
  if (!w.ok()) return w.error();
  *service_us = kCpu.cpu_op_us + kCpu.bytes_us(data.size()) +
                node_->disk().service_us(data.size(), /*sequential=*/true);
  node_->cache().touch_write(mix64(block_id), w.value().length);
  return Status::success();
}

Result<std::uint64_t> Datanode::read(std::uint64_t block_id, std::uint64_t offset,
                                     MutableByteView dst, SimMicros* service_us) {
  std::shared_lock lk(mu_);
  auto r = engine_.read_into(blob::id_key(block_id), offset, dst);
  if (!r.ok()) {
    *service_us = kCpu.cpu_op_us;
    return {Errc::not_found, "block"};
  }
  const std::uint64_t n = r.value().data_len;
  const bool cached = node_->cache().touch_read(mix64(block_id), r.value().length);
  *service_us = kCpu.cpu_op_us + kCpu.bytes_us(n) +
                (cached ? 1 : node_->disk().service_us(n, /*sequential=*/false));
  return n;
}

void Datanode::drop(std::uint64_t block_id, SimMicros* service_us) {
  std::unique_lock lk(mu_);
  node_->cache().invalidate(mix64(block_id));
  (void)engine_.remove(blob::id_key(block_id));
  *service_us = kCpu.cpu_op_us;
}

}  // namespace bsc::hdfs
