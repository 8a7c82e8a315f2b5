// Object Storage Target: holds the striped data objects of the parallel
// file system, one OST per simulated storage node.
//
// The bytes live in a blob::StorageEngine, the object store under all three
// backends; the simulated model above it is the OST's own. OSTs charge
// update-in-place — random offsets pay a seek on the simulated disk, which
// is half of the mechanical story behind the flat-namespace blob stack's
// advantage.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "blob/storage_engine.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"
#include "pfs/inode.hpp"
#include "sim/node.hpp"

namespace bsc::pfs {

class ObjectStorageTarget {
 public:
  /// `index` is the OST's place in the file system's OST list, which is also
  /// the stripe-object number of every object it stores: an OST holds at most
  /// one object per inode.
  ObjectStorageTarget(sim::SimNode& node, std::uint32_t index) : node_(&node), index_(index) {}

  [[nodiscard]] sim::SimNode& node() noexcept { return *node_; }

  /// Write `data` at `offset` within the stripe object of `ino`.
  Status write(InodeId ino, std::uint64_t offset, ByteView data, SimMicros* service_us);

  /// Gather the object's bytes at [offset, offset + dst.size()) into `dst`,
  /// which the caller zeroed: holes, the part past the object's end and a
  /// never-written object read as zero. Returns the bytes within the object.
  std::uint64_t read(InodeId ino, std::uint64_t offset, MutableByteView dst,
                     SimMicros* service_us);

  /// Drop object data beyond `new_len` (file truncate fan-out).
  Status truncate(InodeId ino, std::uint64_t new_len, SimMicros* service_us);

  /// Remove the object of `ino` (unlink reclamation).
  void remove_inode(InodeId ino, SimMicros* service_us);

  /// Flush dirty state (fsync); charged as a short sequential journal write.
  SimMicros sync_cost() const noexcept;

  /// The object store, keyed by blob::id_key(ino). Unlocked: for tests.
  [[nodiscard]] const blob::StorageEngine& engine() const noexcept { return engine_; }

 private:
  sim::SimNode* node_;
  std::uint32_t index_;
  std::shared_mutex mu_;
  blob::StorageEngine engine_;
  /// Where each object's last write ended: a write starting there is
  /// sequential on the disk model.
  std::unordered_map<InodeId, std::uint64_t> write_end_;
};

}  // namespace bsc::pfs
