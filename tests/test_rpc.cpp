// Unit tests for the wire format and the cost-charging transport.
#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"

namespace bsc::rpc {
namespace {

TEST(Wire, RoundTripAllTypes) {
  WireWriter w;
  w.put_u8(7);
  w.put_u32(123456);
  w.put_u64(9876543210ULL);
  w.put_i64(-42);
  w.put_string("hello");
  w.put_bytes(as_view(to_bytes("payload")));
  w.put_bool(true);

  WireReader r(as_view(w.buffer()));
  EXPECT_EQ(r.get_u8().value(), 7);
  EXPECT_EQ(r.get_u32().value(), 123456u);
  EXPECT_EQ(r.get_u64().value(), 9876543210ULL);
  EXPECT_EQ(r.get_i64().value(), -42);
  EXPECT_EQ(r.get_string().value(), "hello");
  EXPECT_EQ(to_string(as_view(r.get_bytes().value())), "payload");
  EXPECT_TRUE(r.get_bool().value());
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, EmptyStringAndBytes) {
  WireWriter w;
  w.put_string("");
  w.put_bytes({});
  WireReader r(as_view(w.buffer()));
  EXPECT_EQ(r.get_string().value(), "");
  EXPECT_TRUE(r.get_bytes().value().empty());
}

TEST(Wire, TruncatedBufferFailsCleanly) {
  WireWriter w;
  w.put_u64(1);
  Bytes buf = std::move(w).take();
  buf.resize(4);  // cut in half
  WireReader r(as_view(buf));
  EXPECT_EQ(r.get_u64().code(), Errc::out_of_range);
}

TEST(Wire, StringLengthBeyondBufferFails) {
  WireWriter w;
  w.put_u32(1000);  // claims 1000 bytes follow; none do
  WireReader r(as_view(w.buffer()));
  EXPECT_EQ(r.get_string().code(), Errc::out_of_range);
}

TEST(Transport, ChargesRequestServiceResponse) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimAgent agent;
  auto cost = t.call(agent, cluster.storage_node(0), 1000, 2000, 500);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost.value().start, 0);
  const auto& net = cluster.net();
  const SimMicros expected =
      net.transfer_us(1000) + 500 + net.transfer_us(2000);
  EXPECT_EQ(cost.value().completion, expected);
  EXPECT_EQ(agent.now(), expected);
}

TEST(Transport, QueueingDelaysSecondCaller) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimAgent a1;
  sim::SimAgent a2;
  ASSERT_TRUE(t.call(a1, cluster.storage_node(0), 0, 0, 10000).ok());
  ASSERT_TRUE(t.call(a2, cluster.storage_node(0), 0, 0, 10000).ok());
  // a2's request queued behind a1's service window.
  EXPECT_GT(a2.now(), a1.now());
}

TEST(Transport, ReliableCallMatchesFaultFreeCall) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimAgent a1;
  sim::SimAgent a2;
  auto fallible = t.call(a1, cluster.storage_node(0), 1000, 2000, 500);
  CallCost reliable = t.call_reliable(&a2, cluster.storage_node(1), 1000, 2000, 500);
  ASSERT_TRUE(fallible.ok());
  EXPECT_EQ(fallible.value().latency(), reliable.latency());
}

TEST(Transport, DropBurnsDeadlineAndTimesOut) {
  sim::Cluster cluster;
  Transport t(cluster);
  FaultInjector inj(/*seed=*/1);
  inj.set_plan(cluster.storage_node(0).id(), {.drop_probability = 1.0});
  t.set_fault_injector(&inj);

  sim::SimAgent agent;
  auto r = t.call(agent, cluster.storage_node(0), 100, 100, 50,
                  {.deadline_us = 2000});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::timeout);
  EXPECT_EQ(agent.now(), 2000);  // the whole deadline was burned waiting
  EXPECT_EQ(inj.counters().dropped, 1u);
}

TEST(Transport, DroppedCallWithDefaultOptionsWaitsDefaultAttemptDeadline) {
  // Regression: default-constructed CallOptions used to mean deadline_us = 0,
  // so every caller that forgot to set a deadline silently waited the long
  // kDefaultDropWaitUs fallback on a drop. The default is now an explicit
  // per-attempt deadline.
  sim::Cluster cluster;
  Transport t(cluster);
  FaultInjector inj(/*seed=*/1);
  inj.set_plan(cluster.storage_node(0).id(), {.drop_probability = 1.0});
  t.set_fault_injector(&inj);

  sim::SimAgent agent;
  auto r = t.call(agent, cluster.storage_node(0), 100, 100, 50);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::timeout);
  EXPECT_EQ(agent.now(), kDefaultAttemptDeadlineUs);
  EXPECT_LT(agent.now(), Transport::kDefaultDropWaitUs);
}

TEST(Transport, DropWithExplicitZeroDeadlineUsesFallbackWait) {
  // deadline_us = 0 is now a deliberate opt-out; only then does the
  // conservative drop-wait fallback apply.
  sim::Cluster cluster;
  Transport t(cluster);
  FaultInjector inj(/*seed=*/1);
  inj.set_plan(cluster.storage_node(0).id(), {.drop_probability = 1.0});
  t.set_fault_injector(&inj);

  sim::SimAgent agent;
  auto r = t.call(agent, cluster.storage_node(0), 100, 100, 50,
                  {.deadline_us = 0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::timeout);
  EXPECT_EQ(agent.now(), Transport::kDefaultDropWaitUs);
}

TEST(Transport, OverloadedServerShedsFast) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimNode& node = cluster.storage_node(0);
  node.set_overload({.max_queue_us = 1000});

  // Pre-load the backlog well past the bound, then call at t=0.
  node.serve(/*arrival_us=*/0, /*service_us=*/50000);

  sim::SimAgent agent;
  auto r = t.call(agent, node, 100, 100, 50, {.deadline_us = 10000});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::overloaded);
  // Fast-fail: one short reject round trip, nowhere near the deadline and
  // nowhere near the queue drain time.
  EXPECT_LT(agent.now(), 1000u);
  EXPECT_EQ(node.sheds(), 1u);

  // Once the backlog drains the same node admits again.
  agent.advance_to(60000);
  EXPECT_TRUE(t.call(agent, node, 100, 100, 50).ok());
}

TEST(Transport, QueueDepthBoundShedsIndependently) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimNode& node = cluster.storage_node(0);
  node.set_overload({.max_queue_depth = 2});

  // Stack up several equal service windows: depth estimate = backlog / mean.
  for (int i = 0; i < 6; ++i) node.serve(0, 1000);

  sim::SimAgent agent;
  auto r = t.call(agent, node, 100, 100, 50, {.deadline_us = 60000});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::overloaded);
}

TEST(Transport, UnboundedBacklogNeverSheds) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimNode& node = cluster.storage_node(0);
  // Default OverloadConfig{} is unbounded: pile on work, still admitted.
  for (int i = 0; i < 8; ++i) node.serve(0, 10000);
  sim::SimAgent agent;
  EXPECT_TRUE(t.call(agent, node, 100, 100, 50, {.deadline_us = 0}).ok());
  EXPECT_EQ(node.sheds(), 0u);
}

TEST(Wire, NewErrcsRoundTripBatchSubStatus) {
  // Errc travels as a numeric u8 inside BatchSubStatus; the two codes this
  // layer added (overloaded, deadline_exceeded) must survive the round trip
  // and must sit after every pre-existing code (appended, never reordered).
  EXPECT_GT(static_cast<std::uint8_t>(Errc::overloaded),
            static_cast<std::uint8_t>(Errc::unavailable));
  EXPECT_GT(static_cast<std::uint8_t>(Errc::deadline_exceeded),
            static_cast<std::uint8_t>(Errc::overloaded));

  for (const Errc code : {Errc::overloaded, Errc::deadline_exceeded}) {
    BatchReply reply;
    BatchSubStatus sub;
    sub.errc = static_cast<std::uint8_t>(code);
    sub.size = 7;
    sub.version = 3;
    reply.subs.push_back(sub);
    const Bytes buf = encode(reply);
    auto decoded = decode_batch_reply(as_view(buf));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().subs.size(), 1u);
    EXPECT_EQ(static_cast<Errc>(decoded.value().subs[0].errc), code);
    EXPECT_NE(to_string(static_cast<Errc>(decoded.value().subs[0].errc)),
              "unknown");
  }
}

TEST(Transport, TransientErrorIsFastAndUnavailable) {
  sim::Cluster cluster;
  Transport t(cluster);
  FaultInjector inj(/*seed=*/7);
  inj.set_plan(cluster.storage_node(0).id(), {.error_probability = 1.0});
  t.set_fault_injector(&inj);

  sim::SimAgent agent;
  auto r = t.call(agent, cluster.storage_node(0), 100, 100, 50,
                  {.deadline_us = 10000});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::unavailable);
  EXPECT_LT(agent.now(), 10000);  // detected well before the deadline
  EXPECT_EQ(inj.counters().errored, 1u);
}

TEST(Transport, OutageWindowRejectsOnlyInsideWindow) {
  sim::Cluster cluster;
  Transport t(cluster);
  FaultInjector inj(/*seed=*/3);
  FaultPlan plan;
  plan.outages.push_back({.from = 1000, .until = 5000});
  inj.set_plan(cluster.storage_node(0).id(), plan);
  t.set_fault_injector(&inj);

  sim::SimAgent agent;
  EXPECT_TRUE(t.call(agent, cluster.storage_node(0), 10, 10, 5).ok());  // before
  agent.advance_to(2000);
  auto r = t.call(agent, cluster.storage_node(0), 10, 10, 5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::unavailable);  // inside
  agent.advance_to(5000);
  EXPECT_TRUE(t.call(agent, cluster.storage_node(0), 10, 10, 5).ok());  // after
  EXPECT_EQ(inj.counters().outage_rejections, 1u);
}

TEST(Transport, AddedLatencySlowsDeliveredCalls) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimAgent base_agent;
  CallCost base = t.call_reliable(&base_agent, cluster.storage_node(0), 100, 100, 50);

  FaultInjector inj(/*seed=*/5);
  inj.set_plan(cluster.storage_node(1).id(), {.added_latency_us = 300});
  t.set_fault_injector(&inj);
  sim::SimAgent slow_agent;
  auto slow = t.call(slow_agent, cluster.storage_node(1), 100, 100, 50);
  ASSERT_TRUE(slow.ok());
  // Extra latency applies to both the request and the response leg.
  EXPECT_EQ(slow.value().latency(), base.latency() + 600);
  EXPECT_EQ(inj.counters().delayed, 1u);
}

TEST(Transport, SameSeedSameVerdictSequence) {
  sim::Cluster cluster;
  auto run = [&](std::uint64_t seed) {
    FaultInjector inj(seed);
    inj.set_plan(0, {.drop_probability = 0.3, .error_probability = 0.2, .jitter_us = 50});
    std::vector<int> verdicts;
    for (int i = 0; i < 200; ++i) {
      auto v = inj.decide(0, /*now=*/i);
      verdicts.push_back(static_cast<int>(v.kind) * 1000 +
                         static_cast<int>(v.extra_latency_us));
    }
    return verdicts;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Transport, UnplannedNodesAreUnaffected) {
  sim::Cluster cluster;
  Transport t(cluster);
  FaultInjector inj(/*seed=*/9);
  inj.set_plan(cluster.storage_node(0).id(), {.drop_probability = 1.0});
  t.set_fault_injector(&inj);
  sim::SimAgent agent;
  EXPECT_TRUE(t.call(agent, cluster.storage_node(1), 10, 10, 5).ok());
  inj.clear_all();
  EXPECT_TRUE(t.call(agent, cluster.storage_node(0), 10, 10, 5).ok());
}

std::uint64_t reliable_calls_since(const obs::MetricsSnapshot& before) {
  const auto d = obs::MetricsRegistry::global().snapshot().delta_since(before);
  const auto it = d.counters.find("rpc.reliable_calls");
  return it == d.counters.end() ? 0 : it->second;
}

// The one wire-cost rule. A leg's injected extra latency lands on both of
// its network halves, and the leg charges no agent and counts nothing (the
// caller's plan_attempt or call_reliable_at does the counting).
TEST(TransportLeg, ExtraLatencyLandsOnBothNetworkHalves) {
  sim::Cluster cluster;
  Transport t(cluster);
  const auto& net = cluster.net();
  const auto before = obs::MetricsRegistry::global().snapshot();

  const CallCost plain = t.leg(cluster.storage_node(0), 1000, 1500, 3000, 40);
  const CallCost slow = t.leg(cluster.storage_node(1), 1000, 1500, 3000, 40, 250);
  EXPECT_EQ(plain.start, 1000);
  EXPECT_EQ(plain.served, 1000 + net.transfer_us(1500) + 40);
  EXPECT_EQ(plain.completion, plain.served + net.transfer_us(3000));
  EXPECT_EQ(slow.served, plain.served + 250);          // request half
  EXPECT_EQ(slow.completion, plain.completion + 500);  // and response half
  EXPECT_EQ(t.hop(plain.served, 3000), plain.completion);
  EXPECT_EQ(t.hop(slow.served, 3000, 250), slow.completion);

  const auto d = obs::MetricsRegistry::global().snapshot().delta_since(before);
  for (const auto& [name, v] : d.counters) {
    if (name.rfind("rpc.", 0) == 0) {
      EXPECT_EQ(v, 0u) << name;
    }
  }
  EXPECT_EQ(d.histogram_stats("rpc.call.latency_us").count, 0u);
}

// The batched legs serve their sub-ops as a chain from one arrival, with
// per-sub deltas of the cumulative service marks. The chain must leave the
// node exactly as one serve of the total would (completion, busy-until,
// busy time) while counting one request per sub, the unit of the node's
// queue-depth estimate.
TEST(TransportLeg, ChainedSubServesMatchOneServeOfTheTotal) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimNode& chained = cluster.storage_node(0);
  sim::SimNode& whole = cluster.storage_node(1);
  // Both nodes already hold a backlog, so the chain queues behind it.
  (void)chained.serve(0, 700);
  (void)whole.serve(0, 700);

  const SimMicros arrival = t.hop(100, 2000, 30);
  const std::vector<SimMicros> marks = {30, 75, 75, 120};
  SimMicros done = arrival;
  SimMicros prev = 0;
  for (const SimMicros mark : marks) {
    done = chained.serve(arrival, mark - prev);
    prev = mark;
  }
  const SimMicros once = whole.serve(arrival, marks.back());

  EXPECT_EQ(done, once);
  EXPECT_EQ(done, 700 + 120);
  EXPECT_EQ(chained.queue_delay(0), whole.queue_delay(0));
  EXPECT_EQ(chained.busy_total(), whole.busy_total());
  EXPECT_EQ(chained.requests_served(), 1u + marks.size());
  EXPECT_EQ(whole.requests_served(), 1u + 1u);
  // A later request queues behind either the same way.
  EXPECT_EQ(t.leg(chained, 0, 10, 10, 5).completion, t.leg(whole, 0, 10, 10, 5).completion);
}

// Without an agent nobody waits for the reply: call_reliable charges the
// service at the tail of the server's queue and counts nothing.
TEST(TransportLeg, ReliableCallWithoutAgentQueuesAtServerTail) {
  sim::Cluster cluster;
  Transport t(cluster);
  sim::SimNode& node = cluster.metadata_node();
  (void)node.serve(0, 500);
  const auto before = obs::MetricsRegistry::global().snapshot();

  const CallCost c = t.call_reliable(nullptr, node, 100, 100, 80);
  EXPECT_EQ(c.served, 580);
  EXPECT_EQ(c.completion, 580);
  EXPECT_EQ(node.queue_delay(0), 580);
  EXPECT_EQ(node.requests_served(), 2u);
  EXPECT_EQ(reliable_calls_since(before), 0u);

  // With an agent the same call is a counted leg from the agent's time.
  sim::SimAgent agent(40);
  const CallCost a = t.call_reliable(&agent, node, 100, 100, 80);
  EXPECT_EQ(a.start, 40);
  EXPECT_EQ(a.served, 580 + 80);
  EXPECT_EQ(agent.now(), a.completion);
  EXPECT_EQ(reliable_calls_since(before), 1u);
}

}  // namespace
}  // namespace bsc::rpc
