#include "pfs/pfs.hpp"

#include <mutex>

#include <algorithm>

#include "common/strings.hpp"
#include "rpc/envelope.hpp"

namespace bsc::pfs {

using rpc::kPfsEnvelope;
using rpc::kPfsMetaReply;
using rpc::kPfsMetaRequest;

LustreLikeFs::LustreLikeFs(sim::Cluster& cluster, PfsConfig cfg)
    : cfg_(cfg), transport_(cluster) {
  mds_ = std::make_unique<MetadataServer>(cluster.metadata_node());
  locks_ = std::make_unique<LockManager>(cluster.metadata_node(), cfg_.stripe_size);
  osts_.reserve(cluster.storage_count());
  for (std::size_t i = 0; i < cluster.storage_count(); ++i) {
    osts_.push_back(std::make_unique<ObjectStorageTarget>(cluster.storage_node(i),
                                                          static_cast<std::uint32_t>(i)));
  }
}

std::uint32_t LustreLikeFs::width_of() const noexcept {
  const auto n = static_cast<std::uint32_t>(osts_.size());
  return cfg_.stripe_width == 0 ? n : std::min(cfg_.stripe_width, n);
}

std::vector<LustreLikeFs::StripePiece> LustreLikeFs::stripe_range(
    InodeId ino, std::uint64_t offset, std::uint64_t len) const {
  std::vector<StripePiece> pieces;
  if (len == 0) return pieces;
  const std::uint64_t ss = cfg_.stripe_size;
  const std::uint32_t width = width_of();
  const std::uint32_t start = static_cast<std::uint32_t>(ino % width);
  std::uint64_t cur = offset;
  const std::uint64_t end = offset + len;
  while (cur < end) {
    const std::uint64_t sn = cur / ss;
    const std::uint64_t in_stripe = cur % ss;
    const std::uint64_t n = std::min(ss - in_stripe, end - cur);
    StripePiece p;
    p.ost = static_cast<std::uint32_t>((start + sn) % width);
    p.obj_off = (sn / width) * ss + in_stripe;
    p.log_off = cur;
    p.len = n;
    pieces.push_back(p);
    cur += n;
  }
  return pieces;
}

Result<LustreLikeFs::OpenFile> LustreLikeFs::lookup_handle(vfs::FileHandle fh) {
  std::shared_lock lk(handles_mu_);
  auto it = handles_.find(fh);
  if (it == handles_.end()) return {Errc::closed, "bad handle"};
  return it->second;
}

Result<vfs::FileHandle> LustreLikeFs::open(const vfs::IoCtx& ctx, std::string_view path,
                                           vfs::OpenFlags flags, vfs::Mode mode) {
  if (!flags.read && !flags.write) return {Errc::invalid_argument, "open without r/w"};
  // One metadata round trip carrying the path, whatever the outcome: create
  // or resolve (the permission re-check of a pre-existing file is done
  // inside create_file), then register the handle.
  SimMicros svc = 0;
  Result<InodeId> opened = [&]() -> Result<InodeId> {
    if (flags.write && flags.create) {
      return mds_->create_file(path, mode, ctx.uid, ctx.gid, flags.exclusive, &svc);
    }
    const std::uint32_t want = (flags.read ? 4u : 0u) | (flags.write ? 2u : 0u);
    auto r = mds_->resolve_checked(path, ctx.uid, ctx.gid, want, &svc);
    if (!r.ok()) return r.error();
    SimMicros svc2 = 0;
    auto info = mds_->stat_inode(r.value().ino, &svc2);
    svc += svc2;
    if (!info.ok()) return info.error();
    if (info.value().type == vfs::FileType::directory && flags.write) {
      return {Errc::is_a_directory, std::string{path}};
    }
    return r.value().ino;
  }();
  if (opened.ok()) {
    SimMicros svc3 = 0;
    auto hs = mds_->handle_opened(opened.value(), &svc3);
    svc += svc3;
    if (!hs.ok()) opened = hs.error();
  }
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size(), kPfsMetaReply,
                           svc);
  if (!opened.ok()) return opened.error();
  const InodeId ino = opened.value();

  const vfs::FileHandle fh = next_handle_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock lk(handles_mu_);
    handles_.emplace(fh, OpenFile{ino, flags, normalize_path(path)});
  }
  if (flags.truncate) {
    auto ts = truncate_resolved(ctx, ino, 0);
    if (!ts.ok()) return ts.error();
  }
  return fh;
}

Status LustreLikeFs::close(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  OpenFile of;
  {
    std::unique_lock lk(handles_mu_);
    auto it = handles_.find(fh);
    if (it == handles_.end()) return {Errc::closed, "bad handle"};
    of = it->second;
    handles_.erase(it);
  }
  SimMicros svc = 0;
  bool reclaim = false;
  auto st = mds_->handle_closed(of.ino, &reclaim, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsMetaRequest, kPfsMetaReply, svc);
  if (reclaim) reclaim_inode(ctx, of.ino);
  return st;
}

Result<Bytes> LustreLikeFs::read(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                                 std::uint64_t offset, std::uint64_t len) {
  auto h = lookup_handle(fh);
  if (!h.ok()) return h.error();
  if (!h.value().flags.read) return {Errc::invalid_argument, "handle not open for read"};
  const InodeId ino = h.value().ino;

  // One combined metadata round-trip: range-lock enqueue + size glimpse.
  SimMicros size_svc = 0;
  auto size_r = mds_->get_size(ino, &size_svc);
  if (!size_r.ok()) return size_r.error();
  const std::uint64_t fsize = size_r.value();
  if (cfg_.strict_locking) size_svc += LockManager::grant_service_us();
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsMetaRequest, kPfsMetaReply, size_svc);
  if (cfg_.strict_locking && ctx.agent) {
    ctx.agent->advance_to(locks_->acquire_shared(ino, offset, len, ctx.agent->now()));
  }

  if (offset >= fsize || len == 0) return Bytes{};
  len = std::min(len, fsize - offset);

  // Parallel stripe reads across the OSTs, each gathered straight into its
  // slice of the output. Short stripe reads are holes: they stay zero.
  Bytes out(len, std::byte{0});
  const SimMicros start = ctx.now();
  SimMicros done = start;
  for (const StripePiece& p : stripe_range(ino, offset, len)) {
    ObjectStorageTarget& t = *osts_[p.ost];
    SimMicros svc = 0;
    t.read(ino, p.obj_off, MutableByteView(out).subspan(p.log_off - offset, p.len), &svc);
    done = std::max(done, transport_.call_reliable_at(t.node(), start, kPfsEnvelope,
                                                      p.len + kPfsEnvelope, svc).completion);
  }
  if (ctx.agent) ctx.agent->advance_to(done);
  return out;
}

Result<std::uint64_t> LustreLikeFs::write(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                                          std::uint64_t offset, ByteView data) {
  auto h = lookup_handle(fh);
  if (!h.ok()) return h.error();
  if (!h.value().flags.write) return {Errc::invalid_argument, "handle not open for write"};
  const InodeId ino = h.value().ino;

  if (h.value().flags.append) {
    SimMicros svc = 0;
    auto size_r = mds_->get_size(ino, &svc);
    if (!size_r.ok()) return size_r.error();
    transport_.call_reliable(ctx.agent, mds_->node(), kPfsMetaRequest, kPfsMetaReply, svc);
    offset = size_r.value();
  }

  const auto pieces = stripe_range(ino, offset, data.size());

  if (cfg_.strict_locking) {
    // Range-lock round-trip; overlapping writers serialize for the duration
    // of the slowest stripe write.
    SimMicros hold = 0;
    for (const StripePiece& p : pieces) {
      hold = std::max(hold, osts_[p.ost]->node().disk().service_us(p.len, false));
    }
    transport_.call_reliable(ctx.agent, mds_->node(), kPfsMetaRequest, kPfsMetaReply,
                             LockManager::grant_service_us());
    if (ctx.agent) {
      const SimMicros grant =
          locks_->acquire_exclusive(ino, offset, data.size(), ctx.agent->now(), hold);
      ctx.agent->advance_to(grant);
    }
  }

  // Parallel stripe writes.
  const SimMicros start = ctx.now();
  SimMicros done = start;
  for (const StripePiece& p : pieces) {
    ObjectStorageTarget& t = *osts_[p.ost];
    SimMicros svc = 0;
    auto st = t.write(ino, p.obj_off, subview(data, p.log_off - offset, p.len), &svc);
    if (!st.ok()) return st.error();
    done = std::max(done, transport_.call_reliable_at(t.node(), start, p.len + kPfsEnvelope,
                                                      kPfsEnvelope, svc).completion);
  }
  if (ctx.agent) ctx.agent->advance_to(done);

  // Grow the file size at the MDS. Under strict semantics the new size must
  // be visible to every client immediately (a journalled metadata update);
  // relaxed mode batches size updates lazily and charges nothing here.
  SimMicros svc = 0;
  auto es = mds_->extend_size(ino, offset + data.size(), &svc);
  if (!es.ok()) return es.error();
  if (cfg_.strict_locking) {
    transport_.call_reliable(ctx.agent, mds_->node(), kPfsMetaRequest, kPfsMetaReply, svc);
  }
  return data.size();
}

Status LustreLikeFs::sync(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  auto h = lookup_handle(fh);
  if (!h.ok()) return h.error();
  // Flush every OST the file stripes over, in parallel.
  const SimMicros start = ctx.now();
  SimMicros done = start;
  for (std::uint32_t i = 0; i < width_of(); ++i) {
    ObjectStorageTarget& t = *osts_[i];
    done = std::max(done, transport_.call_reliable_at(t.node(), start, kPfsEnvelope,
                                                      kPfsEnvelope, t.sync_cost()).completion);
  }
  if (ctx.agent) ctx.agent->advance_to(done);
  return Status::success();
}

Status LustreLikeFs::truncate_resolved(const vfs::IoCtx& ctx, InodeId ino,
                                       std::uint64_t new_size) {
  // Fan out object truncation to every OST, then persist the size.
  const SimMicros start = ctx.now();
  SimMicros done = start;
  const std::uint64_t ss = cfg_.stripe_size;
  const std::uint32_t width = width_of();
  const std::uint32_t start_ost = static_cast<std::uint32_t>(ino % width);
  const std::uint64_t full_stripes = new_size / ss;   // stripes fully below the cut
  const std::uint64_t partial = new_size % ss;        // bytes into the cut stripe
  for (std::uint32_t i = 0; i < width; ++i) {
    // Exact per-object cut: count the stripes strided onto OST i below the
    // cut point, plus the partial stripe if it lands on this OST.
    const std::uint32_t r = (i + width - start_ost) % width;  // first stripe index on OST i
    std::uint64_t obj_len = r < full_stripes ? ((full_stripes - r - 1) / width + 1) * ss : 0;
    if (partial != 0 && (start_ost + full_stripes) % width == i) {
      obj_len = (full_stripes / width) * ss + partial;
    }
    ObjectStorageTarget& t = *osts_[i];
    SimMicros svc = 0;
    auto st = t.truncate(ino, obj_len, &svc);
    if (!st.ok()) return st;
    done = std::max(done, transport_.call_reliable_at(t.node(), start, kPfsEnvelope,
                                                      kPfsEnvelope, svc).completion);
  }
  if (ctx.agent) ctx.agent->advance_to(done);
  SimMicros svc = 0;
  auto st = mds_->set_size(ino, new_size, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsMetaRequest, kPfsMetaReply, svc);
  return st;
}

Status LustreLikeFs::truncate(const vfs::IoCtx& ctx, std::string_view path,
                              std::uint64_t new_size) {
  SimMicros svc = 0;
  auto r = mds_->resolve_checked(path, ctx.uid, ctx.gid, 2, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size(), kPfsMetaReply, svc);
  if (!r.ok()) return r.error();
  return truncate_resolved(ctx, r.value().ino, new_size);
}

void LustreLikeFs::reclaim_inode(const vfs::IoCtx& ctx, InodeId ino) {
  // Object destroys are charged as OST service only: the model sends no
  // message for them (no envelope, no transfer).
  const SimMicros start = ctx.now();
  SimMicros done = start;
  for (auto& t : osts_) {
    SimMicros svc = 0;
    t->remove_inode(ino, &svc);
    done = std::max(done, t->node().serve(start, svc));
  }
  locks_->forget(ino);
  if (ctx.agent) ctx.agent->advance_to(done);
}

Status LustreLikeFs::unlink(const vfs::IoCtx& ctx, std::string_view path) {
  SimMicros svc = 0;
  auto r = mds_->unlink(path, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size(), kPfsMetaReply, svc);
  if (!r.ok()) return r.error();
  if (r.value().reclaim_now) reclaim_inode(ctx, r.value().ino);
  return Status::success();
}

Status LustreLikeFs::mkdir(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  SimMicros svc = 0;
  auto st = mds_->mkdir(path, mode, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size(), kPfsMetaReply, svc);
  return st;
}

Status LustreLikeFs::rmdir(const vfs::IoCtx& ctx, std::string_view path) {
  SimMicros svc = 0;
  auto st = mds_->rmdir(path, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size(), kPfsMetaReply, svc);
  return st;
}

Result<std::vector<vfs::DirEntry>> LustreLikeFs::readdir(const vfs::IoCtx& ctx,
                                                         std::string_view path) {
  SimMicros svc = 0;
  auto r = mds_->readdir(path, ctx.uid, ctx.gid, &svc);
  const std::uint64_t resp = kPfsEnvelope + (r.ok() ? r.value().size() * 32 : 0);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size(), resp, svc);
  return r;
}

Result<vfs::FileInfo> LustreLikeFs::stat(const vfs::IoCtx& ctx, std::string_view path) {
  SimMicros svc = 0;
  auto r = mds_->stat(path, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size(),
                           kPfsEnvelope + 64, svc);
  return r;
}

Status LustreLikeFs::rename(const vfs::IoCtx& ctx, std::string_view from,
                            std::string_view to) {
  SimMicros svc = 0;
  auto st = mds_->rename(from, to, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + from.size() + to.size(),
                           kPfsMetaReply, svc);
  return st;
}

Status LustreLikeFs::chmod(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  SimMicros svc = 0;
  auto st = mds_->chmod(path, mode, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size(), kPfsMetaReply, svc);
  return st;
}

Result<std::string> LustreLikeFs::getxattr(const vfs::IoCtx& ctx, std::string_view path,
                                           std::string_view name) {
  SimMicros svc = 0;
  auto r = mds_->getxattr(path, name, ctx.uid, ctx.gid, &svc);
  transport_.call_reliable(ctx.agent, mds_->node(), kPfsEnvelope + path.size() + name.size(),
                           kPfsMetaReply, svc);
  return r;
}

Status LustreLikeFs::setxattr(const vfs::IoCtx& ctx, std::string_view path,
                              std::string_view name, std::string_view value) {
  SimMicros svc = 0;
  auto st = mds_->setxattr(path, name, value, ctx.uid, ctx.gid, &svc);
  const std::uint64_t req = kPfsEnvelope + path.size() + name.size() + value.size();
  transport_.call_reliable(ctx.agent, mds_->node(), req, kPfsMetaReply, svc);
  return st;
}

std::uint64_t LustreLikeFs::open_handle_count() {
  std::shared_lock lk(handles_mu_);
  return handles_.size();
}

}  // namespace bsc::pfs
