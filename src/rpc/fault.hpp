// Per-node RPC fault injection.
//
// A FaultInjector installed on rpc::Transport decides, for every request
// leg, whether the call is delivered, silently dropped, rejected with a
// transient error, or refused because the target is inside a scripted
// outage window. Probabilistic verdicts draw from one seeded common/rng
// stream, so a single-threaded workload replays bit-for-bit under the same
// seed — the property the chaos harness (tests/test_chaos.cpp) asserts.
//
// The injector models the *request* leg only: a dropped or errored call was
// never executed by the server. Response loss is folded into request loss —
// a simplification that keeps mutations exactly-once per delivered attempt
// (no double-apply on retry) while still exercising every client-side
// recovery path (deadline, retry, failover, quorum, hints).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "sim/sim_clock.hpp"

namespace bsc::rpc {

/// Half-open simulated-time window [from, until) during which the node
/// refuses every call (connection refused — fast fail, not a timeout).
struct Outage {
  SimMicros from = 0;
  SimMicros until = 0;
};

/// What can go wrong on the way to one node.
struct FaultPlan {
  double drop_probability = 0.0;   ///< request vanishes; client waits out its deadline
  double error_probability = 0.0;  ///< node answers "unavailable" after one short RTT
  SimMicros added_latency_us = 0;  ///< fixed extra latency per delivered leg
  SimMicros jitter_us = 0;         ///< + uniform [0, jitter] extra, from the seeded rng
  std::vector<Outage> outages;     ///< scripted unreachability windows

  [[nodiscard]] bool trivial() const noexcept {
    return drop_probability <= 0.0 && error_probability <= 0.0 &&
           added_latency_us == 0 && jitter_us == 0 && outages.empty();
  }
};

/// Verdict for one request leg. `shed` is not produced by the injector: the
/// transport issues it when the target node's bounded backlog
/// (sim::OverloadConfig) rejects the arrival — admission control and
/// injected faults share the verdict vocabulary so every client recovery
/// path handles both uniformly.
struct FaultVerdict {
  enum class Kind {
    deliver,  ///< request reaches the server (possibly late)
    drop,     ///< request lost in transit; no reply will ever come
    error,    ///< server reachable but answers a transient error
    outage,   ///< node refuses connections (scripted window)
    shed,     ///< server over its backlog bound; rejected with overloaded
  };
  Kind kind = Kind::deliver;
  SimMicros extra_latency_us = 0;  ///< added to each network leg when delivered
};

/// Thread-safe (one mutex; verdict order is deterministic only for
/// single-threaded callers, which is what the chaos harness uses).
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// Install (or replace) the fault plan for `node`. Absent nodes are
  /// perfectly healthy.
  void set_plan(std::uint32_t node, FaultPlan plan);
  void clear_plan(std::uint32_t node);
  void clear_all();

  /// Decide the fate of one request leg to `node` sent at simulated `now`.
  [[nodiscard]] FaultVerdict decide(std::uint32_t node, SimMicros now);

  struct Counters {
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t errored = 0;
    std::uint64_t outage_rejections = 0;
    std::uint64_t delayed = 0;  ///< delivered legs that carried extra latency
  };
  [[nodiscard]] Counters counters() const;

 private:
  mutable std::mutex mu_;
  Rng rng_;
  std::map<std::uint32_t, FaultPlan> plans_;
  Counters counters_;
};

}  // namespace bsc::rpc
