// Bulk copy into memory the copying thread will not read again soon.
#pragma once

#include <cstddef>
#include <cstring>

#include "common/bytes.hpp"

namespace bsc {

/// Copies of at least this many bytes stream past the cache. It sits above
/// BlobFs's 256 KiB chunk, so POSIX-on-blob staging writes, which the same
/// process reads back soon after, stay ordinary cached copies.
inline constexpr std::size_t kStreamCopyMin = 512 << 10;

/// True where stream_copy has a streaming body: x86 with SSE2, outside
/// AddressSanitizer and ThreadSanitizer builds, which do not see
/// non-temporal stores and so would miss or misreport the bytes they write.
inline constexpr bool kStreamCopyStreams =
#if defined(__SSE2__) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

namespace detail {
/// The streaming body: src.size() >= kStreamCopyMin, kStreamCopyStreams.
/// Defined on SSE2 targets only; elsewhere no call to it is compiled.
void stream_copy_large(std::byte* dst, ByteView src) noexcept;
}  // namespace detail

/// memcpy(dst, src.data(), src.size()), for any alignment of either side.
/// A copy of at least kStreamCopyMin bytes, where kStreamCopyStreams, writes
/// its cache-line-aligned body with non-temporal stores: no destination line
/// is read into the cache first, and the copy does not evict the writer's
/// working set. It ends in a store fence, so the bytes are visible to any
/// thread that later acquires a lock the caller releases. Returns whether
/// the body streamed.
inline bool stream_copy(std::byte* dst, ByteView src) noexcept {
  if constexpr (kStreamCopyStreams) {
    if (src.size() >= kStreamCopyMin) {
      detail::stream_copy_large(dst, src);
      return true;
    }
  }
  if (!src.empty()) std::memcpy(dst, src.data(), src.size());
  return false;
}

}  // namespace bsc
