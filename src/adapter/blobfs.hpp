// BlobFs — a POSIX-IO FileSystem implemented directly on the blob store,
// the construction the paper's §III argues for (and CephFS-on-RADOS proves
// feasible).
//
// Mapping (documented in DESIGN.md):
//   * file metadata  -> blob  "m!<path>"   (type, mode, uid/gid, size, xattrs)
//   * file data      -> blobs "d!<path>!<chunk#>", fixed-size chunks striped
//                       across the store by the placement ring (CephFS-style)
//   * directories    -> a metadata marker blob only; there is no directory
//                       index. readdir/rmdir are emulated with the scan()
//                       primitive — the paper's own suggestion, "far from
//                       optimized", and the benches measure exactly that.
//
// Deliberate semantic reductions (the features the paper says applications
// do not need):
//   * permissions are stored for API compatibility but never enforced;
//   * no strict cross-client write serialization (no lock manager): writes
//     are visible when the blob ack returns, nothing more is promised;
//   * rename copies chunks (a flat namespace has no cheap rename);
//   * open handles cache the file's metadata (CephFS-capability style):
//     reads/writes use the cached size, and size growth is flushed to the
//     metadata blob on sync/close — MPI-IO-grade visibility, not POSIX.
//     Flushes never shrink the persisted size, so concurrent writers to
//     disjoint regions of a shared file converge to the maximum extent.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "blob/client.hpp"
#include "blob/store.hpp"
#include "vfs/file_system.hpp"

namespace bsc::adapter {

struct BlobFsConfig {
  std::uint64_t chunk_bytes = 256 * 1024;  ///< file striping unit
};

class BlobFs final : public vfs::FileSystem {
 public:
  BlobFs(blob::BlobStore& store, BlobFsConfig cfg = {});

  [[nodiscard]] std::string backend_name() const override { return "blobfs"; }

  Result<vfs::FileHandle> open(const vfs::IoCtx& ctx, std::string_view path,
                               vfs::OpenFlags flags,
                               vfs::Mode mode = vfs::kDefaultFileMode) override;
  Status close(const vfs::IoCtx& ctx, vfs::FileHandle fh) override;
  Result<Bytes> read(const vfs::IoCtx& ctx, vfs::FileHandle fh, std::uint64_t offset,
                     std::uint64_t len) override;
  Result<std::uint64_t> write(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                              std::uint64_t offset, ByteView data) override;
  Status sync(const vfs::IoCtx& ctx, vfs::FileHandle fh) override;
  Status truncate(const vfs::IoCtx& ctx, std::string_view path,
                  std::uint64_t new_size) override;
  Status unlink(const vfs::IoCtx& ctx, std::string_view path) override;
  Status mkdir(const vfs::IoCtx& ctx, std::string_view path,
               vfs::Mode mode = vfs::kDefaultDirMode) override;
  Status rmdir(const vfs::IoCtx& ctx, std::string_view path) override;
  Result<std::vector<vfs::DirEntry>> readdir(const vfs::IoCtx& ctx,
                                             std::string_view path) override;
  Result<vfs::FileInfo> stat(const vfs::IoCtx& ctx, std::string_view path) override;
  Status rename(const vfs::IoCtx& ctx, std::string_view from, std::string_view to) override;
  Status chmod(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) override;
  Result<std::string> getxattr(const vfs::IoCtx& ctx, std::string_view path,
                               std::string_view name) override;
  Status setxattr(const vfs::IoCtx& ctx, std::string_view path, std::string_view name,
                  std::string_view value) override;

  [[nodiscard]] blob::BlobStore& store() noexcept { return *store_; }
  [[nodiscard]] const BlobFsConfig& config() const noexcept { return cfg_; }

  // --- key-encoding scheme (exposed for tests) ---
  [[nodiscard]] static std::string meta_key(std::string_view norm_path);
  [[nodiscard]] static std::string chunk_key(std::string_view norm_path,
                                             std::uint64_t chunk);
  /// Prefix that matches the metadata blobs of a directory's children.
  [[nodiscard]] static std::string child_meta_prefix(std::string_view norm_dir);

 private:
  struct Meta {
    vfs::FileType type = vfs::FileType::regular;
    vfs::Mode mode = vfs::kDefaultFileMode;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t size = 0;
    std::vector<std::pair<std::string, std::string>> xattrs;
  };

  struct OpenFile {
    std::string path;  ///< normalized
    vfs::OpenFlags flags;
    Meta meta;          ///< cached at open (capability-style)
    bool size_dirty = false;
  };

  [[nodiscard]] static Bytes encode_meta(const Meta& m);
  [[nodiscard]] static Result<Meta> decode_meta(ByteView data);

  /// Read + decode a path's metadata blob with `client`.
  Result<Meta> load_meta(blob::BlobClient& client, std::string_view norm_path);
  Status store_meta(blob::BlobClient& client, std::string_view norm_path, const Meta& m);

  /// The calling thread's client, started on a new call bound to the
  /// caller's agent (BlobClient::start_call). Each thread gets one client per
  /// BlobFs, built on its first call and kept until the BlobFs is destroyed,
  /// the way SPDK gives each thread one I/O channel. Reuse keeps placements,
  /// counters and map buckets; start_call gives back a new client's health,
  /// backoff and metadata-cache state, so the simulated model is the one a
  /// fresh client per call gave. The client holds the agent for this call
  /// only; read() and write() re-point it at each chunk's forked agent.
  /// tests/test_alloc_counts.cpp pins the heap allocations this leaves per
  /// small read and write.
  [[nodiscard]] blob::BlobClient& client_for(const vfs::IoCtx& ctx);
  /// The calling thread's client without starting a call. The lookup takes
  /// no lock once the thread has used this BlobFs last.
  [[nodiscard]] blob::BlobClient& thread_client();

  /// Handles are owned by one logical thread (the FileSystem contract), so
  /// returning a raw pointer into the map is safe until that thread closes.
  Result<OpenFile*> lookup_handle(vfs::FileHandle fh);
  /// Persist cached size growth: read-merge-write so a flush never shrinks
  /// the size another handle already persisted. Serialized on meta_mu_.
  Status flush_size(blob::BlobClient& client, OpenFile& of);
  Status remove_file_blobs(blob::BlobClient& client, std::string_view norm_path,
                           std::uint64_t size);

  blob::BlobStore* store_;
  BlobFsConfig cfg_;
  /// Process-unique and never reused, so a thread's cached client is never
  /// mistaken for one of a later BlobFs built at the same address.
  const std::uint64_t id_;

  std::mutex clients_mu_;  ///< guards clients_; taken on a thread's cache miss only
  std::unordered_map<std::thread::id, std::unique_ptr<blob::BlobClient>> clients_;

  std::shared_mutex handles_mu_;
  std::unordered_map<vfs::FileHandle, OpenFile> handles_;
  /// Guards flush_size's read-merge-write of metadata blobs. A host lock
  /// with no simulated charge: it only orders flushes through this
  /// instance. Writers through separate BlobFs instances can still lose a
  /// size until metadata updates carry a versioned compare-and-swap.
  std::mutex meta_mu_;
  std::atomic<vfs::FileHandle> next_handle_{1};
};

}  // namespace bsc::adapter
