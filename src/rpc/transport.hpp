// Cost-charging in-process transport: the one wire model. Transport::leg
// charges every simulated RPC leg of all three backends (request transfer,
// FCFS service at the server node, response transfer), directly or through
// `call`/`call_reliable`, which charge an agent. Framing: rpc/envelope.hpp.
//
// An optional FaultInjector makes individual calls fallible: a call may be
// dropped (the client waits out its deadline and gets Errc::timeout),
// rejected with a transient error or an outage refusal (Errc::unavailable
// after a short round trip), or delivered late. plan_attempt is the one rule
// for an attempt's fate; `call` and the blob data path both use it.
// `call_reliable` bypasses the injector: store maintenance models an
// out-of-band repair channel, and the PFS/HDFS baselines model no faults.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "rpc/fault.hpp"
#include "sim/cluster.hpp"
#include "sim/sim_clock.hpp"

namespace bsc::rpc {

struct CallCost {
  SimMicros start;       ///< simulated time the request left the client
  SimMicros served;      ///< simulated time the server finished service
  SimMicros completion;  ///< simulated time the response arrived back
  [[nodiscard]] SimMicros latency() const noexcept { return completion - start; }
};

/// Default per-attempt deadline, matching blob::RetryPolicy's default
/// attempt_deadline_us — every call carries an explicit deadline unless the
/// caller deliberately opts out with 0.
inline constexpr SimMicros kDefaultAttemptDeadlineUs = 2000;

struct CallOptions {
  /// Per-attempt deadline. When a call is dropped the client cannot tell a
  /// slow reply from a lost one; it waits `deadline_us` then gives up with
  /// Errc::timeout. Defaults to the policy-derived per-attempt deadline;
  /// passing 0 explicitly opts out, in which case a dropped call still times
  /// out, but only after the conservative kDefaultDropWaitUs fallback.
  SimMicros deadline_us = kDefaultAttemptDeadlineUs;
};

class Transport {
 public:
  explicit Transport(sim::Cluster& cluster) : cluster_(&cluster) {}

  /// Fate of one request attempt, planned from its own send time.
  struct Attempt {
    bool delivered = false;
    SimMicros start = 0;             ///< send time of the attempt
    SimMicros extra_latency_us = 0;  ///< added to each network half, when delivered
    SimMicros failed_at = 0;         ///< failure-detection time, when not
    Errc err = Errc::ok;
  };

  /// Execute a simulated RPC against `server`, subject to the installed
  /// fault injector (if any). On success advances `agent` past the response
  /// arrival and returns the timing breakdown. On failure advances `agent`
  /// to the failure-detection point (see plan_attempt) and returns its error.
  Result<CallCost> call(sim::SimAgent& agent, sim::SimNode& server,
                        std::uint64_t request_bytes, std::uint64_t response_bytes,
                        SimMicros server_service_us, CallOptions opts = {});

  /// Execute a simulated RPC that cannot fail (pre-injector semantics) at
  /// `agent`'s time and advance `agent` past the response: store
  /// maintenance (failure handling lives above the transport) and PFS/HDFS
  /// metadata. With no agent nobody waits: the server's queue is charged the
  /// service at time 0 and nothing is counted.
  CallCost call_reliable(sim::SimAgent* agent, sim::SimNode& server,
                         std::uint64_t request_bytes, std::uint64_t response_bytes,
                         SimMicros server_service_us);

  /// One reliable leg sent at `start`, charging no agent (PFS/HDFS fan-out
  /// and pipeline legs, joined by the caller). Counts rpc.reliable_calls and
  /// rpc.call.latency_us, as `call_reliable` with an agent does.
  CallCost call_reliable_at(sim::SimNode& server, SimMicros start,
                            std::uint64_t request_bytes, std::uint64_t response_bytes,
                            SimMicros server_service_us);

  /// The wire-cost rule for one leg sent at `start`: the request arrives one
  /// `hop` later, queues FCFS for `service_us`, and the response arrives one
  /// `hop` after service; `extra_latency_us` lands on both hops. Charges no
  /// agent and counts nothing (plan_attempt or call_reliable_at does).
  CallCost leg(sim::SimNode& server, SimMicros start, std::uint64_t request_bytes,
               std::uint64_t response_bytes, SimMicros service_us,
               SimMicros extra_latency_us = 0) const noexcept {
    const SimMicros served =
        server.serve(hop(start, request_bytes, extra_latency_us), service_us);
    return {.start = start,
            .served = served,
            .completion = hop(served, response_bytes, extra_latency_us)};
  }

  /// The leg of delivered attempt `a`: sent at its start, with its latency.
  CallCost leg(sim::SimNode& server, const Attempt& a, std::uint64_t request_bytes,
               std::uint64_t response_bytes, SimMicros service_us) const noexcept {
    return leg(server, a.start, request_bytes, response_bytes, service_us, a.extra_latency_us);
  }

  /// One network half of a leg: a message of `bytes` sent at `sent` arrives
  /// one transfer plus `extra_latency_us` later. Batched legs, which serve
  /// their sub-ops as a chain, take both halves from here.
  [[nodiscard]] SimMicros hop(SimMicros sent, std::uint64_t bytes,
                              SimMicros extra_latency_us = 0) const noexcept {
    return sent + net().transfer_us(bytes) + extra_latency_us;
  }

  /// A request of `bytes` and an equal-sized answer, with no service.
  [[nodiscard]] SimMicros round_trip_us(std::uint64_t bytes) const noexcept {
    return 2 * net().transfer_us(bytes);
  }

  /// Plan one attempt to `server` sent at simulated `start`, without
  /// charging anyone: the blob data path forks legs from their own start
  /// times and charges each delivered one through `leg`. The attempt draws
  /// one fault verdict (one per whole envelope when `batch_subs` > 0: a
  /// multi-op batch is one request on the wire, accounted as rpc.batches /
  /// rpc.batch.subops too).
  /// A request the injector would deliver is additionally checked against
  /// the server's bounded backlog (sim::OverloadConfig). A failed attempt is
  /// detected
  ///   - drop: after `deadline_us` (kDefaultDropWaitUs when 0), Errc::timeout;
  ///   - error or shed: after one request round trip, Errc::unavailable or
  ///     Errc::overloaded;
  ///   - outage: after one request transfer, Errc::unavailable.
  /// Counts rpc.calls per delivered attempt, rpc.call_failures per failed
  /// one, and rpc.timeouts per drop.
  Attempt plan_attempt(sim::SimNode& server, SimMicros start, std::uint64_t request_bytes,
                       SimMicros deadline_us, std::uint32_t batch_subs = 0);

  /// Install a fault injector (not owned; nullptr uninstalls). All
  /// subsequent `call`/`plan_attempt` invocations consult it.
  void set_fault_injector(FaultInjector* injector) noexcept { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept { return injector_; }

  [[nodiscard]] const sim::NetModel& net() const noexcept { return cluster_->net(); }

  /// Fallback wait when a caller explicitly opted out of a deadline
  /// (CallOptions{.deadline_us = 0}) and the request is dropped. Documented
  /// escape hatch only — callers normally inherit kDefaultAttemptDeadlineUs.
  static constexpr SimMicros kDefaultDropWaitUs = 5000;

 private:
  sim::Cluster* cluster_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace bsc::rpc
