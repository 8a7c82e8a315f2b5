// Network cost model. Two profiles matching the paper's testbed (§IV-B):
// Gigabit Ethernet (MTU 1500) and 4x 20G DDR InfiniBand.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace bsc::sim {

struct NetProfile {
  std::string name;
  SimMicros rtt_us;          ///< request/response round-trip latency
  double bytes_per_us;       ///< effective unidirectional bandwidth
  std::uint64_t mtu_bytes;   ///< per-packet segmentation unit
  SimMicros per_packet_us;   ///< per-packet processing overhead

  /// Gigabit Ethernet: ~100 us RTT, ~117 MB/s wire rate, MTU 1500.
  static NetProfile gigabit_ethernet();
  /// 4x 20G DDR InfiniBand: ~4 us RTT, ~6 GB/s effective, 2 KiB MTU.
  static NetProfile infiniband_ddr();
};

class NetModel {
 public:
  explicit NetModel(NetProfile p = NetProfile::gigabit_ethernet()) : p_(std::move(p)) {}

  /// One-way transfer time for a message carrying `payload_bytes`.
  [[nodiscard]] SimMicros transfer_us(std::uint64_t payload_bytes) const noexcept;

  [[nodiscard]] const NetProfile& profile() const noexcept { return p_; }

 private:
  NetProfile p_;
};

}  // namespace bsc::sim
