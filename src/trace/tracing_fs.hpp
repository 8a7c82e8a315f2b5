// TracingFs — the FUSE-interceptor stand-in: a FileSystem decorator that
// forwards every call to the wrapped backend and records (kind, bytes,
// simulated latency, outcome) into a TraceRecorder. Wrapping is transparent;
// applications run unmodified, exactly as in the paper's methodology
// (§IV-B: "We log these calls ... using a FUSE interceptor" / "modifying
// Hadoop / HDFS to intercept all storage calls made by Spark").
#pragma once

#include <memory>

#include "trace/recorder.hpp"
#include "vfs/file_system.hpp"

namespace bsc::trace {

class TracingFs final : public vfs::FileSystem {
 public:
  /// Does not own `inner` or `recorder`; both must outlive the tracer.
  TracingFs(vfs::FileSystem& inner, TraceRecorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}

  [[nodiscard]] std::string backend_name() const override {
    return "traced:" + inner_->backend_name();
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

  [[nodiscard]] TraceRecorder& recorder() noexcept { return *recorder_; }
  [[nodiscard]] vfs::FileSystem& inner() noexcept { return *inner_; }

 private:
  [[nodiscard]] static SimMicros elapsed(const vfs::IoCtx& ctx, SimMicros start) noexcept {
    return ctx.agent ? ctx.now() - start : -1;
  }

  void note(OpKind op, std::uint64_t bytes, const vfs::IoCtx& ctx, SimMicros t0, bool ok) {
    recorder_->record(op, bytes, elapsed(ctx, t0), ok);
  }

  vfs::FileSystem* inner_;
  TraceRecorder* recorder_;
};

}  // namespace bsc::trace
