// HDFS datanode: stores blocks. Blocks are written once, sequentially
// (pipeline appends), then become immutable; reads may hit any offset.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "sim/node.hpp"

namespace bsc::hdfs {

class Datanode {
 public:
  explicit Datanode(sim::SimNode& node) : node_(&node) {}

  [[nodiscard]] sim::SimNode& node() noexcept { return *node_; }

  /// Append `data` to block `id` (creating it on first write).
  Status append(std::uint64_t block_id, ByteView data, SimMicros* service_us);

  /// Random read inside a block.
  Result<Bytes> read(std::uint64_t block_id, std::uint64_t offset, std::uint64_t len,
                     SimMicros* service_us);

  /// Drop a block replica (file deletion).
  void drop(std::uint64_t block_id, SimMicros* service_us);

  [[nodiscard]] std::uint64_t bytes_stored();
  [[nodiscard]] Result<std::uint64_t> block_length(std::uint64_t block_id);

 private:
  sim::SimNode* node_;
  std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, Bytes> blocks_;
};

}  // namespace bsc::hdfs
