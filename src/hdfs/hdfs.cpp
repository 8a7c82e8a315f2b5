#include "hdfs/hdfs.hpp"

#include <algorithm>
#include <mutex>

#include "common/strings.hpp"
#include "rpc/envelope.hpp"

namespace bsc::hdfs {

using rpc::kHdfsEnvelope;
using rpc::kHdfsMetaReply;
using rpc::kHdfsMetaRequest;

HdfsLikeFs::HdfsLikeFs(sim::Cluster& cluster, HdfsConfig cfg)
    : cfg_(cfg), transport_(cluster) {
  namenode_ = std::make_unique<Namenode>(
      cluster.metadata_node(), static_cast<std::uint32_t>(cluster.storage_count()),
      cfg.replication, cfg.block_bytes);
  datanodes_.reserve(cluster.storage_count());
  for (std::size_t i = 0; i < cluster.storage_count(); ++i) {
    datanodes_.push_back(std::make_unique<Datanode>(cluster.storage_node(i)));
  }
}

Result<vfs::FileHandle> HdfsLikeFs::open(const vfs::IoCtx& ctx, std::string_view path,
                                         vfs::OpenFlags flags, vfs::Mode mode) {
  if (!flags.read && !flags.write) return {Errc::invalid_argument, "open without r/w"};
  OpenFile of;
  of.path = normalize_path(path);
  const std::uint64_t req = kHdfsEnvelope + path.size();
  if (flags.write) {
    of.writing = true;
    SimMicros svc = 0;
    if (flags.append) {
      // Append to an existing file, or create it on first use.
      auto st = namenode_->reopen_for_append(of.path, ctx.uid, ctx.gid, &svc);
      if (st.code() == Errc::not_found) {
        st = namenode_->create_file(of.path, mode, ctx.uid, ctx.gid, &svc);
      }
      transport_.call_reliable(ctx.agent, namenode_->node(), req, kHdfsMetaReply, svc);
      if (!st.ok()) return st.error();
      SimMicros svc2 = 0;
      auto info = namenode_->stat(of.path, ctx.uid, ctx.gid, &svc2);
      if (!info.ok()) return info.error();
      of.write_pos = info.value().size;
      of.last_block_fill = info.value().size % cfg_.block_bytes;
      if (of.last_block_fill != 0) {
        auto blocks = namenode_->block_locations(of.path, ctx.uid, ctx.gid, &svc2);
        if (!blocks.ok()) return blocks.error();
        of.current_block = blocks.value().back();
        of.has_block = true;
      }
    } else {
      // WORM: plain write-open creates a fresh file; an existing path fails
      // (truncate-in-place does not exist in this world).
      auto st = namenode_->create_file(of.path, mode, ctx.uid, ctx.gid, &svc);
      transport_.call_reliable(ctx.agent, namenode_->node(), req, kHdfsMetaReply, svc);
      if (!st.ok()) {
        if (st.code() == Errc::already_exists) {
          return {Errc::read_only, "write-once: " + of.path};
        }
        return st.error();
      }
    }
  } else {
    SimMicros svc = 0;
    auto blocks = namenode_->block_locations(of.path, ctx.uid, ctx.gid, &svc);
    const std::uint64_t resp = kHdfsEnvelope + (blocks.ok() ? blocks.value().size() * 24 : 0);
    transport_.call_reliable(ctx.agent, namenode_->node(), req, resp, svc);
    if (!blocks.ok()) return blocks.error();
    of.read_blocks = std::move(blocks).take();
    for (const auto& b : of.read_blocks) of.read_size += b.length;
  }
  const vfs::FileHandle fh = next_handle_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock lk(handles_mu_);
    handles_.emplace(fh, std::move(of));
  }
  return fh;
}

Status HdfsLikeFs::pipeline_append(const vfs::IoCtx& ctx, const BlockInfo& block,
                                   ByteView data) {
  // Chain replication: client -> dn0 -> dn1 -> dn2; the ack returns along
  // the chain, so the client sees the sum of the pipeline stages (HDFS
  // overlaps packets, so we charge one traversal, not per-packet). Each hop
  // is one reliable leg; only the last hop's ack travels back to the client.
  SimMicros t = ctx.now();
  for (std::uint32_t dn : block.datanodes) {
    Datanode& d = *datanodes_[dn];
    SimMicros svc = 0;
    auto st = d.append(block.id, data, &svc);
    if (!st.ok()) return st;
    t = transport_.call_reliable_at(d.node(), t, data.size() + kHdfsEnvelope, kHdfsEnvelope,
                                    svc).served;
  }
  if (ctx.agent) ctx.agent->advance_to(transport_.hop(t, kHdfsEnvelope));
  return Status::success();
}

Result<std::uint64_t> HdfsLikeFs::write(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                                        std::uint64_t offset, ByteView data) {
  OpenFile* of = nullptr;
  {
    std::shared_lock lk(handles_mu_);
    auto it = handles_.find(fh);
    if (it == handles_.end()) return {Errc::closed, "bad handle"};
    of = &it->second;
  }
  if (!of->writing) return {Errc::invalid_argument, "handle not open for write"};
  if (offset != of->write_pos) {
    return {Errc::unsupported, "HDFS supports only sequential append writes"};
  }
  std::uint64_t written = 0;
  while (written < data.size()) {
    if (!of->has_block || of->last_block_fill == cfg_.block_bytes) {
      SimMicros svc = 0;
      auto b = namenode_->allocate_block(of->path, &svc);
      transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsMetaRequest, kHdfsMetaReply,
                               svc);
      if (!b.ok()) return b.error();
      of->current_block = b.value();
      of->has_block = true;
      of->last_block_fill = 0;
    }
    const std::uint64_t room = cfg_.block_bytes - of->last_block_fill;
    const std::uint64_t n = std::min<std::uint64_t>(room, data.size() - written);
    auto st = pipeline_append(ctx, of->current_block, subview(data, written, n));
    if (!st.ok()) return st.error();
    // Namenode learns the new length via pipeline reports (no extra client
    // round-trip); the bookkeeping still has to happen.
    SimMicros svc = 0;
    auto es = namenode_->extend_last_block(of->path, n, &svc);
    if (!es.ok()) return es.error();
    namenode_->node().serve(ctx.now(), svc);
    of->last_block_fill += n;
    of->write_pos += n;
    written += n;
  }
  return written;
}

Result<Bytes> HdfsLikeFs::read(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                               std::uint64_t offset, std::uint64_t len) {
  OpenFile snapshot;
  {
    std::shared_lock lk(handles_mu_);
    auto it = handles_.find(fh);
    if (it == handles_.end()) return {Errc::closed, "bad handle"};
    if (it->second.writing) return {Errc::invalid_argument, "handle not open for read"};
    snapshot = it->second;
  }
  if (offset >= snapshot.read_size || len == 0) return Bytes{};
  len = std::min(len, snapshot.read_size - offset);

  Bytes out(len, std::byte{0});
  const SimMicros start = ctx.now();
  SimMicros done = start;
  std::uint64_t block_start = 0;
  for (const BlockInfo& b : snapshot.read_blocks) {
    const std::uint64_t block_end = block_start + b.length;
    if (block_end > offset && block_start < offset + len) {
      const std::uint64_t lo = std::max(offset, block_start);
      const std::uint64_t hi = std::min(offset + len, block_end);
      Datanode& d = *datanodes_[b.datanodes.front()];
      SimMicros svc = 0;
      auto piece = d.read(b.id, lo - block_start,
                          MutableByteView(out).subspan(lo - offset, hi - lo), &svc);
      if (!piece.ok()) return piece.error();
      done = std::max(done, transport_.call_reliable_at(d.node(), start, kHdfsEnvelope,
                                                        (hi - lo) + kHdfsEnvelope, svc).completion);
    }
    block_start = block_end;
  }
  if (ctx.agent) ctx.agent->advance_to(done);
  return out;
}

Status HdfsLikeFs::sync(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  OpenFile snapshot;
  {
    std::shared_lock lk(handles_mu_);
    auto it = handles_.find(fh);
    if (it == handles_.end()) return {Errc::closed, "bad handle"};
    snapshot = it->second;
  }
  if (!snapshot.writing || !snapshot.has_block) return Status::success();
  // hflush: push the pipeline acks for the open block, one leg per hop.
  SimMicros t = ctx.now();
  for (std::uint32_t dn : snapshot.current_block.datanodes) {
    t = transport_.call_reliable_at(datanodes_[dn]->node(), t, kHdfsEnvelope, kHdfsEnvelope,
                                    10).served;
  }
  if (ctx.agent) ctx.agent->advance_to(transport_.hop(t, kHdfsEnvelope));
  return Status::success();
}

Status HdfsLikeFs::close(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  OpenFile of;
  {
    std::unique_lock lk(handles_mu_);
    auto it = handles_.find(fh);
    if (it == handles_.end()) return {Errc::closed, "bad handle"};
    of = std::move(it->second);
    handles_.erase(it);
  }
  if (of.writing) {
    SimMicros svc = 0;
    auto st = namenode_->complete_file(of.path, &svc);
    transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsMetaRequest, kHdfsMetaReply,
                             svc);
    return st;
  }
  return Status::success();
}

Status HdfsLikeFs::truncate(const vfs::IoCtx& ctx, std::string_view path,
                            std::uint64_t new_size) {
  (void)new_size;
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + path.size(),
                           kHdfsMetaReply, 5);
  return {Errc::unsupported, "HDFS does not support truncate"};
}

Status HdfsLikeFs::unlink(const vfs::IoCtx& ctx, std::string_view path) {
  SimMicros svc = 0;
  auto blocks = namenode_->unlink(path, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + path.size(),
                           kHdfsMetaReply, svc);
  if (!blocks.ok()) return blocks.error();
  // Replica deletion happens in the background (not on the client's clock).
  for (const BlockInfo& b : blocks.value()) {
    for (std::uint32_t dn : b.datanodes) {
      SimMicros dsvc = 0;
      datanodes_[dn]->drop(b.id, &dsvc);
      datanodes_[dn]->node().serve(ctx.now(), dsvc);
    }
  }
  return Status::success();
}

Status HdfsLikeFs::mkdir(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  SimMicros svc = 0;
  auto st = namenode_->mkdir(path, mode, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + path.size(),
                           kHdfsMetaReply, svc);
  return st;
}

Status HdfsLikeFs::rmdir(const vfs::IoCtx& ctx, std::string_view path) {
  SimMicros svc = 0;
  auto st = namenode_->rmdir(path, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + path.size(),
                           kHdfsMetaReply, svc);
  return st;
}

Result<std::vector<vfs::DirEntry>> HdfsLikeFs::readdir(const vfs::IoCtx& ctx,
                                                       std::string_view path) {
  SimMicros svc = 0;
  auto r = namenode_->readdir(path, ctx.uid, ctx.gid, &svc);
  const std::uint64_t resp = kHdfsEnvelope + (r.ok() ? r.value().size() * 32 : 0);
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + path.size(), resp, svc);
  return r;
}

Result<vfs::FileInfo> HdfsLikeFs::stat(const vfs::IoCtx& ctx, std::string_view path) {
  SimMicros svc = 0;
  auto r = namenode_->stat(path, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + path.size(),
                           kHdfsEnvelope + 64, svc);
  return r;
}

Status HdfsLikeFs::rename(const vfs::IoCtx& ctx, std::string_view from,
                          std::string_view to) {
  SimMicros svc = 0;
  auto st = namenode_->rename(from, to, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + from.size() + to.size(),
                           kHdfsMetaReply, svc);
  return st;
}

Status HdfsLikeFs::chmod(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  SimMicros svc = 0;
  auto st = namenode_->chmod(path, mode, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + path.size(),
                           kHdfsMetaReply, svc);
  return st;
}

Result<std::string> HdfsLikeFs::getxattr(const vfs::IoCtx& ctx, std::string_view path,
                                         std::string_view name) {
  SimMicros svc = 0;
  auto r = namenode_->getxattr(path, name, &svc);
  transport_.call_reliable(ctx.agent, namenode_->node(), kHdfsEnvelope + path.size() + name.size(),
                           kHdfsMetaReply, svc);
  return r;
}

Status HdfsLikeFs::setxattr(const vfs::IoCtx& ctx, std::string_view path,
                            std::string_view name, std::string_view value) {
  SimMicros svc = 0;
  auto st = namenode_->setxattr(path, name, value, &svc);
  const std::uint64_t req = kHdfsEnvelope + path.size() + name.size() + value.size();
  transport_.call_reliable(ctx.agent, namenode_->node(), req, kHdfsMetaReply, svc);
  return st;
}

}  // namespace bsc::hdfs
