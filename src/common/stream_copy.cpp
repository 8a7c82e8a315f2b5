#include "common/stream_copy.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>

#include <cstdint>

namespace bsc::detail {

void stream_copy_large(std::byte* dst, ByteView src) noexcept {
  // memcpy brings dst up to a cache-line boundary; the body then writes
  // whole lines, four 16-byte streaming stores each, so every line leaves
  // the write-combining buffer complete; memcpy copies the tail.
  constexpr std::size_t kLine = 64;
  const std::byte* s = src.data();
  std::size_t n = src.size();
  const std::size_t head = (kLine - reinterpret_cast<std::uintptr_t>(dst) % kLine) % kLine;
  std::memcpy(dst, s, head);
  dst += head;
  s += head;
  n -= head;
  const std::size_t body = n - n % kLine;
  for (std::size_t i = 0; i < body; i += kLine) {
    const auto* in = reinterpret_cast<const __m128i*>(s + i);
    auto* out = reinterpret_cast<__m128i*>(dst + i);
    const __m128i a = _mm_loadu_si128(in);
    const __m128i b = _mm_loadu_si128(in + 1);
    const __m128i c = _mm_loadu_si128(in + 2);
    const __m128i d = _mm_loadu_si128(in + 3);
    _mm_stream_si128(out, a);
    _mm_stream_si128(out + 1, b);
    _mm_stream_si128(out + 2, c);
    _mm_stream_si128(out + 3, d);
  }
  // Streaming stores are weakly ordered: without the fence, a lock release
  // after the copy could become visible before the bytes.
  _mm_sfence();
  std::memcpy(dst + body, s + body, n - body);
}

}  // namespace bsc::detail
#endif
