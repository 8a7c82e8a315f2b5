// LustreLikeFs — a strictly POSIX-compliant parallel file system.
//
// Architecture (one instance per simulated cluster):
//   * MetadataServer (src/pfs/mds.hpp) on the metadata node: hierarchical
//     namespace, permissions, xattrs, size/handle bookkeeping.
//   * One ObjectStorageTarget per storage node: striped file data,
//     update-in-place (random writes pay seeks).
//   * LockManager on the metadata node: per-I/O range locks giving the
//     strict "writes immediately visible to all processes" semantics.
//
// Every FileSystem call maps to the RPCs a real Lustre client would issue,
// and each RPC charges the caller's SimAgent: metadata round-trips to the
// MDS, lock round-trips to the DLM, parallel data transfers to the OSTs.
//
// PfsConfig::strict_locking = false gives OrangeFS-style relaxed semantics
// (no lock traffic, lazy size updates) behind the same POSIX interface —
// the paper's "relaxed semantics, same API" point, and our ablation knob.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "pfs/lock_manager.hpp"
#include "pfs/mds.hpp"
#include "pfs/ost.hpp"
#include "rpc/transport.hpp"
#include "sim/cluster.hpp"
#include "vfs/file_system.hpp"

namespace bsc::pfs {

struct PfsConfig {
  std::uint64_t stripe_size = 64 * 1024;  ///< stripe unit across OSTs
  std::uint32_t stripe_width = 0;         ///< OSTs per file; 0 = all
  bool strict_locking = true;             ///< POSIX semantics vs relaxed (MPI-IO-like)
};

class LustreLikeFs final : public vfs::FileSystem {
 public:
  LustreLikeFs(sim::Cluster& cluster, PfsConfig cfg = {});

  [[nodiscard]] std::string backend_name() const override {
    return cfg_.strict_locking ? "pfs-strict" : "pfs-relaxed";
  }

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

  // --- introspection for tests and benches ---
  [[nodiscard]] MetadataServer& mds() noexcept { return *mds_; }
  [[nodiscard]] LockManager& lock_manager() noexcept { return *locks_; }
  [[nodiscard]] std::size_t ost_count() const noexcept { return osts_.size(); }
  [[nodiscard]] ObjectStorageTarget& ost(std::size_t i) noexcept { return *osts_[i]; }
  [[nodiscard]] const PfsConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t open_handle_count();

 private:
  struct OpenFile {
    InodeId ino = 0;
    vfs::OpenFlags flags;
    std::string path;
  };

  struct StripePiece {
    std::uint32_t ost = 0;       ///< OST index
    std::uint64_t obj_off = 0;   ///< offset inside the per-OST object
    std::uint64_t log_off = 0;   ///< offset inside the file
    std::uint64_t len = 0;
  };

  [[nodiscard]] std::uint32_t width_of() const noexcept;
  [[nodiscard]] std::vector<StripePiece> stripe_range(InodeId ino, std::uint64_t offset,
                                                      std::uint64_t len) const;
  Result<OpenFile> lookup_handle(vfs::FileHandle fh);

  Status truncate_resolved(const vfs::IoCtx& ctx, InodeId ino, std::uint64_t new_size);
  void reclaim_inode(const vfs::IoCtx& ctx, InodeId ino);

  PfsConfig cfg_;
  rpc::Transport transport_;
  std::unique_ptr<MetadataServer> mds_;
  std::unique_ptr<LockManager> locks_;
  std::vector<std::unique_ptr<ObjectStorageTarget>> osts_;

  std::shared_mutex handles_mu_;
  std::unordered_map<vfs::FileHandle, OpenFile> handles_;
  std::atomic<vfs::FileHandle> next_handle_{1};
};

}  // namespace bsc::pfs
