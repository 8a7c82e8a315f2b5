// HdfsLikeFs — write-once-read-many distributed file system front-end.
//
// Semantics match the HDFS behaviour the paper describes (§II-B):
//   * files are created, written sequentially through a replica pipeline,
//     then sealed on close; reopening an existing file for overwrite fails;
//   * random (non-append) writes are rejected at the protocol level;
//   * truncate is unsupported;
//   * directories, permissions metadata, rename and xattrs exist (the parts
//     of POSIX HDFS kept), but enforcement is advisory.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "hdfs/datanode.hpp"
#include "hdfs/namenode.hpp"
#include "rpc/transport.hpp"
#include "sim/cluster.hpp"
#include "vfs/file_system.hpp"

namespace bsc::hdfs {

struct HdfsConfig {
  std::uint64_t block_bytes = 1 << 20;  ///< scaled stand-in for 128 MiB blocks
  std::uint32_t replication = 3;
};

class HdfsLikeFs final : public vfs::FileSystem {
 public:
  HdfsLikeFs(sim::Cluster& cluster, HdfsConfig cfg = {});

  [[nodiscard]] std::string backend_name() const override { return "hdfs"; }

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

  [[nodiscard]] Namenode& namenode() noexcept { return *namenode_; }
  [[nodiscard]] std::size_t datanode_count() const noexcept { return datanodes_.size(); }
  [[nodiscard]] Datanode& datanode(std::size_t i) noexcept { return *datanodes_[i]; }
  [[nodiscard]] const HdfsConfig& config() const noexcept { return cfg_; }

 private:
  struct OpenFile {
    std::string path;
    bool writing = false;
    std::uint64_t write_pos = 0;        ///< next append offset (writers)
    std::uint64_t last_block_fill = 0;  ///< bytes already in the open block
    BlockInfo current_block;            ///< valid when last_block_fill > 0 or allocated
    bool has_block = false;
    std::vector<BlockInfo> read_blocks; ///< cached locations (readers)
    std::uint64_t read_size = 0;
  };

  /// Append one ≤block-remainder chunk through the replica pipeline.
  Status pipeline_append(const vfs::IoCtx& ctx, const BlockInfo& block, ByteView data);

  HdfsConfig cfg_;
  rpc::Transport transport_;
  std::unique_ptr<Namenode> namenode_;
  std::vector<std::unique_ptr<Datanode>> datanodes_;

  std::shared_mutex handles_mu_;
  std::unordered_map<vfs::FileHandle, OpenFile> handles_;
  std::atomic<vfs::FileHandle> next_handle_{1};
};

}  // namespace bsc::hdfs
