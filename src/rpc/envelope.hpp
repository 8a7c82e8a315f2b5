// Framing sizes of every simulated protocol, each defined once. A message is
// its framing plus what it carries; the stacks' protocols differ, so do these.
#pragma once

#include <cstdint>

namespace bsc::rpc {

/// Lustre-like PFS: one MDS or OST message; an MDS request and reply that
/// name no path (size glimpse, lock grant, close).
inline constexpr std::uint64_t kPfsEnvelope = 48;
inline constexpr std::uint64_t kPfsMetaRequest = 96;
inline constexpr std::uint64_t kPfsMetaReply = 64;

/// HDFS-like: one namenode, datanode or pipeline message; a namenode request
/// and reply that name no path (block allocation, complete).
inline constexpr std::uint64_t kHdfsEnvelope = 48;
inline constexpr std::uint64_t kHdfsMetaRequest = 96;
inline constexpr std::uint64_t kHdfsMetaReply = 64;

/// Blob data path: header, op code and status of one request, reply or batch
/// envelope; a version probe (stat of one key) and its reply (stat body 24).
inline constexpr std::uint64_t kBlobEnvelope = 32;
inline constexpr std::uint64_t kProbeRequest = 64;
inline constexpr std::uint64_t kProbeReply = kBlobEnvelope + 24;

/// Store maintenance on the reliable channel (resync, scrub, rebalance): one
/// message, and a digest reply (8-byte digest).
inline constexpr std::uint64_t kMaintEnvelope = 64;
inline constexpr std::uint64_t kDigestReply = kMaintEnvelope + 8;

/// Transaction commit protocol: a prepare or commit request, and a reply.
inline constexpr std::uint64_t kTxnRequest = 64;
inline constexpr std::uint64_t kTxnReply = 32;

}  // namespace bsc::rpc
