// HDFS datanode: stores blocks. Blocks are written once, sequentially
// (pipeline appends), then become immutable; reads may hit any offset. The
// bytes live in a blob::StorageEngine, the object store under all three
// backends.
#pragma once

#include <cstdint>
#include <shared_mutex>

#include "blob/storage_engine.hpp"
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

  /// Random read inside a block: gather its bytes at [offset, offset +
  /// dst.size()) into `dst`, which the caller zeroed. Returns the bytes
  /// within the block.
  Result<std::uint64_t> read(std::uint64_t block_id, std::uint64_t offset,
                             MutableByteView dst, SimMicros* service_us);

  /// Drop a block replica (file deletion).
  void drop(std::uint64_t block_id, SimMicros* service_us);

  /// The block store, keyed by blob::id_key(block_id). Unlocked: for tests.
  [[nodiscard]] const blob::StorageEngine& engine() const noexcept { return engine_; }

 private:
  sim::SimNode* node_;
  std::shared_mutex mu_;
  blob::StorageEngine engine_;
};

}  // namespace bsc::hdfs
