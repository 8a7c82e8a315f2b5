#include "sim/net_model.hpp"

#include <cmath>

namespace bsc::sim {

NetProfile NetProfile::gigabit_ethernet() {
  return {.name = "gbe", .rtt_us = 100, .bytes_per_us = 117.0,
          .mtu_bytes = 1500, .per_packet_us = 1};
}

NetProfile NetProfile::infiniband_ddr() {
  return {.name = "ib-ddr-4x", .rtt_us = 4, .bytes_per_us = 6000.0,
          .mtu_bytes = 2048, .per_packet_us = 0};
}

SimMicros NetModel::transfer_us(std::uint64_t payload_bytes) const noexcept {
  const std::uint64_t packets =
      payload_bytes == 0 ? 1 : (payload_bytes + p_.mtu_bytes - 1) / p_.mtu_bytes;
  const auto wire = static_cast<SimMicros>(
      std::llround(static_cast<double>(payload_bytes) / p_.bytes_per_us));
  return p_.rtt_us / 2 + wire + static_cast<SimMicros>(packets) * p_.per_packet_us;
}

}  // namespace bsc::sim
