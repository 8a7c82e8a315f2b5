// Object Storage Target: holds the striped data objects of the parallel
// file system, one OST per simulated storage node.
//
// Unlike the blob engine (log-structured), OSTs write update-in-place —
// random offsets pay a seek on the simulated disk, which is half of the
// mechanical story behind the flat-namespace blob stack's advantage.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "pfs/inode.hpp"
#include "sim/node.hpp"

namespace bsc::pfs {

class ObjectStorageTarget {
 public:
  explicit ObjectStorageTarget(sim::SimNode& node) : node_(&node) {}

  [[nodiscard]] sim::SimNode& node() noexcept { return *node_; }

  /// Write `data` at `offset` within the stripe object `(ino, obj)`.
  Status write(InodeId ino, std::uint32_t obj, std::uint64_t offset, ByteView data,
               SimMicros* service_us);

  /// Read up to `len` bytes; missing tail reads short, holes read as zero.
  Result<Bytes> read(InodeId ino, std::uint32_t obj, std::uint64_t offset,
                     std::uint64_t len, SimMicros* service_us);

  /// Drop object data beyond `new_len` (file truncate fan-out).
  Status truncate(InodeId ino, std::uint32_t obj, std::uint64_t new_len,
                  SimMicros* service_us);

  /// Remove all objects of `ino` (unlink reclamation).
  void remove_inode(InodeId ino, SimMicros* service_us);

  /// Flush dirty state (fsync); charged as a short sequential journal write.
  SimMicros sync_cost() const noexcept;

  [[nodiscard]] std::uint64_t bytes_stored();

 private:
  struct Key {
    InodeId ino;
    std::uint32_t obj;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}((k.ino << 20) ^ k.obj);
    }
  };
  struct StripeObject {
    Bytes data;
    std::uint64_t last_write_end = 0;  ///< for sequentiality detection
  };

  sim::SimNode* node_;
  std::shared_mutex mu_;
  std::unordered_map<Key, StripeObject, KeyHash> objects_;
};

}  // namespace bsc::pfs
