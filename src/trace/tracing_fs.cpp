#include "trace/tracing_fs.hpp"

namespace bsc::trace {

Result<vfs::FileHandle> TracingFs::open(const vfs::IoCtx& ctx, std::string_view path,
                                        vfs::OpenFlags flags, vfs::Mode mode) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->open(ctx, path, flags, mode);
  note(OpKind::open, 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::close(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->close(ctx, fh);
  note(OpKind::close, 0, ctx, t0, r.ok());
  return r;
}

Result<Bytes> TracingFs::read(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                              std::uint64_t offset, std::uint64_t len) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->read(ctx, fh, offset, len);
  note(OpKind::read, r.ok() ? r.value().size() : 0, ctx, t0, r.ok());
  return r;
}

Result<std::uint64_t> TracingFs::write(const vfs::IoCtx& ctx, vfs::FileHandle fh,
                                       std::uint64_t offset, ByteView data) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->write(ctx, fh, offset, data);
  note(OpKind::write, r.ok() ? r.value() : 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::sync(const vfs::IoCtx& ctx, vfs::FileHandle fh) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->sync(ctx, fh);
  note(OpKind::sync, 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::truncate(const vfs::IoCtx& ctx, std::string_view path,
                           std::uint64_t new_size) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->truncate(ctx, path, new_size);
  note(OpKind::truncate, 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::unlink(const vfs::IoCtx& ctx, std::string_view path) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->unlink(ctx, path);
  note(OpKind::unlink, 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::mkdir(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->mkdir(ctx, path, mode);
  note(OpKind::mkdir, 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::rmdir(const vfs::IoCtx& ctx, std::string_view path) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->rmdir(ctx, path);
  note(OpKind::rmdir, 0, ctx, t0, r.ok());
  return r;
}

Result<std::vector<vfs::DirEntry>> TracingFs::readdir(const vfs::IoCtx& ctx,
                                                      std::string_view path) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->readdir(ctx, path);
  note(OpKind::readdir, 0, ctx, t0, r.ok());
  return r;
}

Result<vfs::FileInfo> TracingFs::stat(const vfs::IoCtx& ctx, std::string_view path) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->stat(ctx, path);
  note(OpKind::stat, 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::rename(const vfs::IoCtx& ctx, std::string_view from,
                         std::string_view to) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->rename(ctx, from, to);
  note(OpKind::rename, 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::chmod(const vfs::IoCtx& ctx, std::string_view path, vfs::Mode mode) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->chmod(ctx, path, mode);
  note(OpKind::chmod, 0, ctx, t0, r.ok());
  return r;
}

Result<std::string> TracingFs::getxattr(const vfs::IoCtx& ctx, std::string_view path,
                                        std::string_view name) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->getxattr(ctx, path, name);
  note(OpKind::getxattr, 0, ctx, t0, r.ok());
  return r;
}

Status TracingFs::setxattr(const vfs::IoCtx& ctx, std::string_view path,
                           std::string_view name, std::string_view value) {
  const SimMicros t0 = ctx.now();
  auto r = inner_->setxattr(ctx, path, name, value);
  note(OpKind::setxattr, 0, ctx, t0, r.ok());
  return r;
}

}  // namespace bsc::trace
