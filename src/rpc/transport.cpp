#include "rpc/transport.hpp"

#include "obs/metrics.hpp"

namespace bsc::rpc {

namespace {
/// Transport-level series: per plan_attempt (every fault-injected request
/// leg passes through it) one attempt, its fault or shed, and one delivered
/// call or one call failure; plus completed-call latency for the RPCs the
/// transport drives end to end.
struct TransportMetrics {
  obs::Counter& attempts;
  obs::Counter& errors;
  obs::Counter& outages;
  obs::Counter& timeouts;
  obs::Counter& calls;
  obs::Counter& call_failures;
  obs::Counter& reliable_calls;
  obs::Counter& batches;
  obs::Counter& batch_subops;
  // Admission control: requests refused at the server's backlog bound.
  obs::Counter& sheds;
  obs::Counter& shed_batches;
  obs::ShardedHistogram& shed_queue_us;
  obs::ShardedHistogram& call_latency_us;
};

TransportMetrics& transport_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static TransportMetrics m{reg.counter("rpc.attempts"),
                            reg.counter("rpc.attempt.errors"),
                            reg.counter("rpc.attempt.outages"),
                            reg.counter("rpc.timeouts"),
                            reg.counter("rpc.calls"),
                            reg.counter("rpc.call_failures"),
                            reg.counter("rpc.reliable_calls"),
                            reg.counter("rpc.batches"),
                            reg.counter("rpc.batch.subops"),
                            reg.counter("server.shed.requests"),
                            reg.counter("server.shed.batches"),
                            reg.histogram("server.shed.queue_us"),
                            reg.histogram("rpc.call.latency_us")};
  return m;
}
}  // namespace

Result<CallCost> Transport::call(sim::SimAgent& agent, sim::SimNode& server,
                                 std::uint64_t request_bytes, std::uint64_t response_bytes,
                                 SimMicros server_service_us, CallOptions opts) {
  const SimMicros start = agent.now();
  const Attempt a = plan_attempt(server, start, request_bytes, opts.deadline_us);
  if (!a.delivered) {
    agent.advance_to(a.failed_at);
    return Error{a.err, "rpc attempt failed"};
  }
  const CallCost c = leg(server, a, request_bytes, response_bytes, server_service_us);
  agent.advance_to(c.completion);
  transport_metrics().call_latency_us.add(c.completion - start);
  return c;
}

CallCost Transport::call_reliable(sim::SimAgent* agent, sim::SimNode& server,
                                  std::uint64_t request_bytes, std::uint64_t response_bytes,
                                  SimMicros server_service_us) {
  if (agent == nullptr) {
    const SimMicros served = server.serve(0, server_service_us);
    return {.start = 0, .served = served, .completion = served};
  }
  const CallCost c =
      call_reliable_at(server, agent->now(), request_bytes, response_bytes, server_service_us);
  agent->advance_to(c.completion);
  return c;
}

CallCost Transport::call_reliable_at(sim::SimNode& server, SimMicros start,
                                     std::uint64_t request_bytes,
                                     std::uint64_t response_bytes,
                                     SimMicros server_service_us) {
  const CallCost c = leg(server, start, request_bytes, response_bytes, server_service_us);
  transport_metrics().reliable_calls.inc();
  transport_metrics().call_latency_us.add(c.completion - start);
  return c;
}

Transport::Attempt Transport::plan_attempt(sim::SimNode& server, SimMicros start,
                                           std::uint64_t request_bytes,
                                           SimMicros deadline_us, std::uint32_t batch_subs) {
  auto& m = transport_metrics();
  m.attempts.inc();
  if (batch_subs > 0) {
    m.batches.inc();
    m.batch_subops.add(batch_subs);
  }
  FaultVerdict v;
  if (injector_ != nullptr) v = injector_->decide(server.id(), start);
  // Bounded-backlog admission: a request the network would deliver arrives
  // at the server (after its request leg's extra latency) and is bounced
  // there if the queue is over its configured bound.
  const SimMicros arrival = start + v.extra_latency_us;
  if (v.kind == FaultVerdict::Kind::deliver && server.would_shed(arrival)) {
    server.note_shed();
    m.sheds.inc();
    if (batch_subs > 0) m.shed_batches.inc();
    m.shed_queue_us.add(static_cast<std::uint64_t>(server.queue_delay(arrival)));
    v.kind = FaultVerdict::Kind::shed;
  }

  Attempt a;
  a.start = start;
  switch (v.kind) {
    case FaultVerdict::Kind::deliver:
      m.calls.inc();
      a.delivered = true;
      a.extra_latency_us = v.extra_latency_us;
      return a;
    case FaultVerdict::Kind::drop:
      // The request is gone; the client cannot distinguish slow from lost
      // and burns its whole per-attempt deadline before concluding timeout.
      m.timeouts.inc();
      a.failed_at = start + (deadline_us > 0 ? deadline_us : kDefaultDropWaitUs);
      a.err = Errc::timeout;
      break;
    case FaultVerdict::Kind::error:
      // The node answered, just unhelpfully: one round trip of the request
      // envelope (the error reply is tiny).
      m.errors.inc();
      a.failed_at = start + round_trip_us(request_bytes);
      a.err = Errc::unavailable;
      break;
    case FaultVerdict::Kind::outage:
      // Connection refused: detected after a single send attempt.
      m.outages.inc();
      a.failed_at = hop(start, request_bytes);
      a.err = Errc::unavailable;
      break;
    case FaultVerdict::Kind::shed:
      // Bounced before any work: one round trip of the request envelope — a
      // fast fail, the whole point of admission control vs. letting the
      // deadline burn.
      a.failed_at = start + round_trip_us(request_bytes);
      a.err = Errc::overloaded;
      break;
  }
  m.call_failures.inc();
  return a;
}

}  // namespace bsc::rpc
