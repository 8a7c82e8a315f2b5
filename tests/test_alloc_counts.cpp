// Heap allocations per BlobFs call, pinned. This binary replaces the global
// operator new with a counting one (only here: every other binary keeps the
// default), so a host-cost fact that does not depend on the host's speed can
// be checked like a simulated pin: the counts are a function of the code
// path alone. A change that adds an allocation to every small read or write
// fails here, however fast the host.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string_view>

#include "adapter/blobfs.hpp"
#include "common/strings.hpp"
#include "vfs/helpers.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace bsc::adapter {
namespace {

/// Allocations per call, averaged over `calls` calls of `op(i)`.
template <typename Op>
double allocations_per_call(int calls, Op&& op) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < calls; ++i) op(i);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / calls;
}

struct CallCounts {
  double per_write = 0;  ///< per 1.5 KiB write
  double per_read = 0;   ///< per 1 KiB read
};

// The hpc_census shape: one rank, default store (R = 3), 1-2 KiB calls on
// an open handle, none crossing a 256 KiB chunk. Each call runs warm: the
// file, its chunk and the thread's client exist before counting starts.
CallCounts warm_counts(std::string_view path) {
  sim::Cluster cluster;
  blob::BlobStore store(cluster);
  BlobFs fs(store);
  sim::SimAgent agent;
  const vfs::IoCtx ctx{&agent, 100, 100};
  auto h = fs.open(ctx, path, vfs::OpenFlags::rw());
  EXPECT_TRUE(h.ok());
  if (!h.ok()) return {};
  const vfs::FileHandle fh = h.value();
  const Bytes data = make_payload(1, 0, 1536);
  constexpr int kCalls = 128;  // 128 x 1.5 KiB = 192 KiB: one chunk
  const auto write_at = [&](int i) {
    EXPECT_TRUE(fs.write(ctx, fh, static_cast<std::uint64_t>(i) * 1536, as_view(data)).ok());
  };
  const auto read_at = [&](int i) {
    EXPECT_TRUE(fs.read(ctx, fh, static_cast<std::uint64_t>(i) * 1024, 1024).ok());
  };
  for (int i = 0; i < kCalls; ++i) write_at(i);  // warm: file, chunk, client
  for (int i = 0; i < kCalls; ++i) read_at(i);
  CallCounts out;
  out.per_write = allocations_per_call(kCalls, write_at);
  out.per_read = allocations_per_call(kCalls, read_at);
  std::printf("ALLOC_COUNTS path=%.*s per_write_1536=%.2f per_read_1024=%.2f\n",
              static_cast<int>(path.size()), path.data(), out.per_write, out.per_read);
  EXPECT_TRUE(fs.close(ctx, fh).ok());
  return out;
}

// Pins, from the tree that introduced this test. A fresh BlobClient per call
// made 14.00 and 12.00 for "/f" and 19.00 and 15.00 for "/census/out". The
// write pins went 7 -> 6 and 9 -> 8 when a write with a current placement
// stopped re-resolving it under the held stripes.
// Lower a pin when a change removes an allocation; never raise one to make a
// change pass.
TEST(AllocCounts, WarmSmallCallsShortKey) {
  // "d!/f!00000000" fits in a std::string's inline buffer.
  const CallCounts c = warm_counts("/f");
  EXPECT_LE(c.per_write, 6.00);
  EXPECT_LE(c.per_read, 6.00);
}

TEST(AllocCounts, WarmSmallCallsHeapKey) {
  // "d!/census/out!00000000" does not: each copy of the key allocates, as
  // for the census's own paths.
  const CallCounts c = warm_counts("/census/out");
  EXPECT_LE(c.per_write, 8.00);
  EXPECT_LE(c.per_read, 8.00);
}

}  // namespace
}  // namespace bsc::adapter
