// Wire-format serialization for RPC messages.
//
// Services in this codebase execute in-process, but every request and
// response is nevertheless encoded into a wire buffer. This serves two
// purposes: (1) message sizes fed to the network cost model are the real
// encoded sizes, not guesses; (2) the encode/decode round-trip is a genuine
// serialization layer that a networked deployment could reuse unchanged.
//
// Encoding: little-endian fixed-width integers, length-prefixed strings and
// byte blobs. No alignment padding.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace bsc::rpc {

class WireWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_string(std::string_view s);
  void put_bytes(ByteView b);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  [[nodiscard]] const Bytes& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] Bytes take() && noexcept { return std::move(buf_); }

 private:
  Bytes buf_;
};

class WireReader {
 public:
  explicit WireReader(ByteView data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> get_u8();
  [[nodiscard]] Result<std::uint32_t> get_u32();
  [[nodiscard]] Result<std::uint64_t> get_u64();
  [[nodiscard]] Result<std::int64_t> get_i64();
  [[nodiscard]] Result<std::string> get_string();
  [[nodiscard]] Result<Bytes> get_bytes();
  /// Zero-copy variant of get_bytes: the returned view aliases the source
  /// buffer, which must outlive it. Batch decoding uses this so a reply's
  /// payloads are not copied a second time on the way out.
  [[nodiscard]] Result<ByteView> get_bytes_view();
  [[nodiscard]] Result<bool> get_bool();

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  [[nodiscard]] bool need(std::size_t n) const noexcept { return remaining() >= n; }

  ByteView data_;
  std::size_t pos_ = 0;
};

// --- multi-op batch envelope ----------------------------------------------
//
// All chunk legs of a striped blob operation destined for the same acting
// primary travel as one request: one envelope, one queueing trip, one
// fault-injection decision, per-sub-op status in the reply. Sub-op payloads
// are ByteViews (non-owning, both directions): encoding appends them to the
// wire buffer, decoding returns views aliasing the source buffer — the hot
// path computes exact message sizes with wire_size() and never materializes
// the wire buffer at all (the services execute in-process).
//
// `span` >= 2 marks a coalesced vectored sub-op: the operation covers `span`
// consecutive chunks starting at `key` (chunk keys are derivable), sharing
// one sub-header instead of repeating key + header per chunk. Coalescing is
// a descriptor optimization: the segments still scatter-gather per chunk at
// the endpoints, as independent parallel streams.

enum class BatchOpKind : std::uint8_t {
  read = 1,
  write = 2,
  truncate = 3,
  create = 4,
  remove = 5,
  grow = 6,
  stat = 7,  ///< piggybacked metadata verification (size + version)
};

struct BatchOp {
  BatchOpKind kind = BatchOpKind::read;
  std::string key;            ///< engine key of the first covered chunk
  std::uint32_t span = 1;     ///< consecutive chunks covered (>= 2 = coalesced)
  std::uint64_t offset = 0;   ///< intra-object offset (reads/writes)
  std::uint64_t len = 0;      ///< read length / truncate-grow target size
  std::uint64_t checksum = 0; ///< sender's content checksum of `data` (0 = none)
  ByteView data;              ///< write payload (empty otherwise)
};

/// BatchRequest::flags bit: the sender wants per-sub freshness marks only —
/// replies carry (version, digest) per read sub and no payload bytes. The
/// quorum read path sends one digest-only envelope per non-primary candidate
/// so wire bytes stay ~1x under replication instead of Rx.
inline constexpr std::uint8_t kBatchDigestOnly = 0x1;

struct BatchRequest {
  std::uint8_t flags = 0;  ///< kBatchDigestOnly et al.
  std::vector<BatchOp> ops;
};

struct BatchSubStatus {
  std::uint8_t errc = 0;      ///< numeric Errc of this sub-op (0 = ok)
  std::uint64_t size = 0;     ///< object size (stat) / bytes applied (mutations)
  std::uint64_t version = 0;  ///< post-op / current object version
  std::uint64_t digest = 0;   ///< extent-index span digest of the read span (0 = none)
  ByteView data;              ///< read payload (empty otherwise)
};

struct BatchReply {
  std::vector<BatchSubStatus> subs;
};

/// Exact encoded size without materializing the buffer — what the network
/// cost model is fed on the hot path. Tests pin wire_size(x) ==
/// encode(x).size() so the two can never drift.
[[nodiscard]] std::uint64_t wire_size(const BatchOp& op) noexcept;
[[nodiscard]] std::uint64_t wire_size(const BatchRequest& req) noexcept;
[[nodiscard]] std::uint64_t wire_size(const BatchSubStatus& sub) noexcept;
[[nodiscard]] std::uint64_t wire_size(const BatchReply& reply) noexcept;

[[nodiscard]] Bytes encode(const BatchRequest& req);
[[nodiscard]] Bytes encode(const BatchReply& reply);

/// Decoded payloads alias `buf`, which must outlive the result.
[[nodiscard]] Result<BatchRequest> decode_batch_request(ByteView buf);
[[nodiscard]] Result<BatchReply> decode_batch_reply(ByteView buf);

}  // namespace bsc::rpc
