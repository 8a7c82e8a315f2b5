// Cost-charging in-process transport.
//
// A Call describes one client→server→client exchange: the client's agent is
// charged request transfer, then the server node queues the service time
// (FCFS in simulated time), then the response transfer. The returned value
// is the simulated completion time; the agent's clock is advanced to it.
//
// An optional FaultInjector makes individual calls fallible: a call may be
// dropped (the client waits out its deadline and gets Errc::timeout),
// rejected with a transient error or an outage refusal (Errc::unavailable
// after a short round trip), or delivered late. plan_attempt is the one rule
// for an attempt's fate; `call` and the blob data path both use it.
// `call_reliable` bypasses the injector entirely — the store's maintenance
// traffic (resync, scrub, rebalance) models an out-of-band repair channel
// with retries baked in.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "rpc/fault.hpp"
#include "sim/cluster.hpp"
#include "sim/sim_clock.hpp"

namespace bsc::rpc {

struct CallCost {
  SimMicros start;       ///< simulated time the request left the client
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

  /// Execute a simulated RPC against `server`, subject to the installed
  /// fault injector (if any). On success advances `agent` past the response
  /// arrival and returns the timing breakdown. On failure advances `agent`
  /// to the failure-detection point (see plan_attempt) and returns its error.
  Result<CallCost> call(sim::SimAgent& agent, sim::SimNode& server,
                        std::uint64_t request_bytes, std::uint64_t response_bytes,
                        SimMicros server_service_us, CallOptions opts = {});

  /// Execute a simulated RPC that cannot fail (pre-injector semantics).
  /// Used by store maintenance paths whose failure handling lives above the
  /// transport (down-flags checked by the caller).
  CallCost call_reliable(sim::SimAgent& agent, sim::SimNode& server,
                         std::uint64_t request_bytes, std::uint64_t response_bytes,
                         SimMicros server_service_us);

  /// Fate of one request attempt, planned from its own send time.
  struct Attempt {
    bool delivered = false;
    SimMicros extra_latency_us = 0;  ///< added to each network leg, when delivered
    SimMicros failed_at = 0;         ///< failure-detection time, when not
    Errc err = Errc::ok;
  };

  /// Plan one attempt to `server` sent at simulated `start`, without
  /// charging anyone: the blob data path forks legs from their own start
  /// times and charges costs itself. The attempt draws one fault verdict
  /// (one per whole envelope when `batch_subs` > 0: a multi-op batch is one
  /// request on the wire, accounted as rpc.batches / rpc.batch.subops too).
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

  [[nodiscard]] sim::Cluster& cluster() noexcept { return *cluster_; }
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
