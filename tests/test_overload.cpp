// Overload-and-gray-failure resilience: server admission control surfacing
// as Errc::overloaded at the client, end-to-end deadline budgets, the
// client-wide retry token bucket, and the per-node breaker state machine
// interacting with the fault injector (outage opens it, half-open probes
// close it, suspects are demoted in read order, open-breaker forwards
// convert to hinted handoff). Runs under plain and sanitizer builds alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "blob/client.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "rpc/fault.hpp"
#include "client_agreement.hpp"

namespace bsc::blob {
namespace {

rpc::FaultPlan forever_outage() {
  rpc::FaultPlan dead;
  dead.outages.push_back({0, std::numeric_limits<SimMicros>::max()});
  return dead;
}

/// Fresh keys for which `server_index` is a NON-primary replica: each key's
/// first mutation forwards to that replica (a replica already behind on a key
/// is version-gated out before the breaker is even consulted, so distinct
/// fresh keys are what keeps the failing node in the forward path).
std::vector<std::string> secondary_keys(BlobStore& store,
                                        std::uint32_t server_index,
                                        std::size_t want) {
  std::vector<std::string> out;
  for (int i = 0; out.size() < want && i < 10000; ++i) {
    std::string k = strfmt("ok-%04d", i);
    const auto reps = store.replicas_of(k);
    if (reps.size() >= 3 && reps[0] != server_index &&
        std::find(reps.begin(), reps.end(), server_index) != reps.end()) {
      out.push_back(std::move(k));
    }
  }
  return out;
}

struct Rig {
  explicit Rig(StoreConfig cfg = {}) : store(cluster, cfg), client(store, &agent) {}

  sim::Cluster cluster;
  BlobStore store;
  sim::SimAgent agent;
  BlobClient client;
  rpc::FaultInjector injector{/*seed=*/42};

  void install_injector() { store.transport().set_fault_injector(&injector); }
  sim::SimNode& node_of(std::uint32_t server_index) {
    return store.server(server_index).node();
  }
};

TEST(Overload, ClientSurfacesServerShedsAsFastFailure) {
  Rig rig;
  ClientRegistryAgreement agree({&rig.client});
  // Bound every storage backlog, then pre-load each node far past the bound.
  for (std::uint32_t i = 0; i < rig.store.server_count(); ++i) {
    rig.node_of(i).set_overload({.max_queue_us = 500});
    rig.node_of(i).serve(/*arrival_us=*/0, /*service_us=*/200000);
  }
  const Bytes data = make_payload(1, 0, 512);
  auto r = rig.client.write("shed-key", 0, as_view(data));
  ASSERT_FALSE(r.ok());
  EXPECT_GT(rig.client.counters().sheds_observed, 0u);
  // Fast-fail: detection cost is reject round trips + backoffs, never the
  // 200ms backlog drain and never a burned drop deadline per attempt.
  EXPECT_LT(rig.agent.now(), 20000u);
  std::uint64_t sheds = 0;
  for (std::uint32_t i = 0; i < rig.store.server_count(); ++i) {
    sheds += rig.node_of(i).sheds();
  }
  EXPECT_GT(sheds, 0u);
  agree.check({"client.breaker.sheds_observed"});
}

TEST(Overload, ShedsClearOnceBacklogDrains) {
  Rig rig;
  ClientRegistryAgreement agree({&rig.client});
  for (std::uint32_t i = 0; i < rig.store.server_count(); ++i) {
    rig.node_of(i).set_overload({.max_queue_us = 500});
    rig.node_of(i).serve(0, 50000);
  }
  rig.agent.advance_to(60000);  // backlog fully drained
  const Bytes data = make_payload(2, 0, 512);
  EXPECT_TRUE(rig.client.write("drain-key", 0, as_view(data)).ok());
  EXPECT_EQ(rig.client.counters().sheds_observed, 0u);
  agree.check({"client.write.calls"});
}

TEST(Overload, DeadlineBudgetBoundsTimeLostToRetries) {
  // Everything drops: without a budget the client burns the full per-attempt
  // deadline on every retry of every replica leg; with a budget the op stops
  // at Errc::deadline_exceeded once the end-to-end allowance is spent.
  StoreConfig budgeted;
  budgeted.deadline.op_deadline_us = 3000;
  Rig rig(budgeted);
  ClientRegistryAgreement agree({&rig.client});
  rig.install_injector();
  for (std::uint32_t i = 0; i < rig.store.server_count(); ++i) {
    rig.injector.set_plan(rig.node_of(i).id(), {.drop_probability = 1.0});
  }
  const Bytes data = make_payload(3, 0, 256);
  auto r = rig.client.write("budget-key", 0, as_view(data));
  ASSERT_FALSE(r.ok());
  EXPECT_GE(rig.client.counters().deadline_exceeded, 1u);
  // Elapsed stays near the budget (the final clamped attempt may straddle
  // it); well under one unbudgeted leg (4 attempts x 2000us + backoff).
  EXPECT_LT(rig.agent.now(), 5000u);
  agree.check({"client.deadline.exceeded", "client.deadline.clamped_attempts"});

  Rig control;  // identical faults, no budget
  control.install_injector();
  for (std::uint32_t i = 0; i < control.store.server_count(); ++i) {
    control.injector.set_plan(control.node_of(i).id(), {.drop_probability = 1.0});
  }
  ASSERT_FALSE(control.client.write("budget-key", 0, as_view(data)).ok());
  EXPECT_EQ(control.client.counters().deadline_exceeded, 0u);
  EXPECT_GT(control.agent.now(), rig.agent.now() + 2000u);
}

TEST(Overload, BudgetedHealthyOpsPayNoPenalty) {
  StoreConfig budgeted;
  budgeted.deadline.op_deadline_us = 1000000;
  Rig rig(budgeted);
  Rig control;
  const Bytes data = make_payload(4, 0, 4096);
  ASSERT_TRUE(rig.client.write("healthy", 0, as_view(data)).ok());
  ASSERT_TRUE(control.client.write("healthy", 0, as_view(data)).ok());
  auto rr = rig.client.read("healthy", 0, 4096);
  auto cr = control.client.read("healthy", 0, 4096);
  ASSERT_TRUE(rr.ok());
  ASSERT_TRUE(cr.ok());
  // A generous budget must not perturb the healthy path's timing at all.
  EXPECT_EQ(rig.agent.now(), control.agent.now());
  EXPECT_EQ(rig.client.counters().deadline_exceeded, 0u);
}

TEST(Overload, RetryTokenBucketSuppressesCorrelatedRetryStorm) {
  StoreConfig cfg;
  cfg.deadline.retry_token_cap = 2.0;
  cfg.deadline.retry_token_ratio = 0.0;  // nothing earned back: hard drain
  Rig rig(cfg);
  ClientRegistryAgreement agree({&rig.client});
  rig.install_injector();
  for (std::uint32_t i = 0; i < rig.store.server_count(); ++i) {
    rig.injector.set_plan(rig.node_of(i).id(), {.drop_probability = 1.0});
  }
  const Bytes data = make_payload(5, 0, 256);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(rig.client.write(strfmt("storm-%d", i), 0, as_view(data)).ok());
  }
  // The drained bucket caps total retry amplification at the initial fill.
  EXPECT_LE(rig.client.counters().retries, 2u);
  EXPECT_GT(rig.client.counters().retries_suppressed, 0u);
  agree.check({"client.deadline.retries_suppressed"});
}

TEST(Overload, OutageOpensBreakerAndConvertsForwardsToHints) {
  StoreConfig cfg;
  cfg.write_quorum = 2;  // W=2 over replication 3: quorum acks, misses hint
  Rig rig(cfg);
  ClientRegistryAgreement agree({&rig.client});
  rig.install_injector();

  // Kill one node where it serves as a non-primary replica: every write
  // still reaches quorum, but each fresh key's first forward slams into it.
  const std::uint32_t victim = 3;
  const auto keys = secondary_keys(rig.store, victim, 8);
  ASSERT_EQ(keys.size(), 8u);
  rig.injector.set_plan(rig.node_of(victim).id(), forever_outage());

  const Bytes data = make_payload(6, 0, 512);
  for (const auto& key : keys) {
    ASSERT_TRUE(rig.client.write(key, 0, as_view(data)).ok()) << key;
  }
  const ClientCounters& c = rig.client.counters();
  // Consecutive per-attempt failures crossed the threshold and opened the
  // breaker; later forwards skipped the dead replica and hinted immediately.
  EXPECT_GE(c.breaker_opens, 1u);
  EXPECT_GT(c.breaker_fast_hints, 0u);
  EXPECT_GT(c.hints_written, 0u);
  EXPECT_GT(c.quorum_degraded_writes, 0u);
  agree.check({"client.breaker.opens", "client.breaker.fast_hints",
               "client.hints.written", "client.quorum.degraded_writes"});
}

TEST(Overload, HalfOpenProbesCloseBreakerAfterRecovery) {
  StoreConfig cfg;
  cfg.write_quorum = 2;
  Rig rig(cfg);
  ClientRegistryAgreement agree({&rig.client});
  rig.install_injector();

  const std::uint32_t victim = 3;
  const auto keys = secondary_keys(rig.store, victim, 14);
  ASSERT_EQ(keys.size(), 14u);
  rig.injector.set_plan(rig.node_of(victim).id(), forever_outage());
  const Bytes data = make_payload(7, 0, 512);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(rig.client.write(keys[static_cast<std::size_t>(i)], 0,
                                 as_view(data)).ok());
  }
  ASSERT_GE(rig.client.counters().breaker_opens, 1u);

  // Recover the replica, wait out the open cooldown, and keep writing fresh
  // keys: the breaker must admit half-open probes and close within a few
  // operations.
  rig.injector.clear_all();
  rig.agent.advance_to(rig.agent.now() + cfg.breaker.open_cooldown_us + 1000);
  for (int i = 6; i < 10; ++i) {
    ASSERT_TRUE(rig.client.write(keys[static_cast<std::size_t>(i)], 0,
                                 as_view(data)).ok());
  }
  const ClientCounters& c = rig.client.counters();
  EXPECT_GT(c.breaker_probes, 0u);
  EXPECT_GE(c.breaker_closes, 1u);

  // Closed again: further writes forward normally, no new fast hints.
  const std::uint64_t hints_before = c.breaker_fast_hints;
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(rig.client.write(keys[static_cast<std::size_t>(i)], 0,
                                 as_view(data)).ok());
  }
  EXPECT_EQ(c.breaker_fast_hints, hints_before);
  agree.check({"client.breaker.probes", "client.breaker.closes"});
}

TEST(Overload, FailedHalfOpenProbeReopensBreaker) {
  StoreConfig cfg;
  cfg.write_quorum = 2;
  Rig rig(cfg);
  ClientRegistryAgreement agree({&rig.client});
  rig.install_injector();

  const std::uint32_t victim = 3;
  const auto keys = secondary_keys(rig.store, victim, 8);
  ASSERT_EQ(keys.size(), 8u);
  rig.injector.set_plan(rig.node_of(victim).id(), forever_outage());
  const Bytes data = make_payload(8, 0, 512);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(rig.client.write(keys[static_cast<std::size_t>(i)], 0,
                                 as_view(data)).ok());
  }
  const std::uint64_t opens = rig.client.counters().breaker_opens;
  ASSERT_GE(opens, 1u);

  // Outage persists: the post-cooldown probe fails and snaps straight back
  // to open (no threshold accumulation in half-open).
  rig.agent.advance_to(rig.agent.now() + cfg.breaker.open_cooldown_us + 1000);
  for (int i = 6; i < 8; ++i) {
    ASSERT_TRUE(rig.client.write(keys[static_cast<std::size_t>(i)], 0,
                                 as_view(data)).ok());
  }
  EXPECT_GT(rig.client.counters().breaker_probes, 0u);
  EXPECT_GT(rig.client.counters().breaker_opens, opens);
  EXPECT_EQ(rig.client.counters().breaker_closes, 0u);
  agree.check({"client.breaker.probes", "client.breaker.opens"});
}

TEST(Overload, ReadsDemoteSuspectReplicasAfterBreakerOpens) {
  Rig rig;  // classic mode, read quorum 1: reads fail over through replicas
  ClientRegistryAgreement agree({&rig.client});
  rig.install_injector();

  const std::string key = "demote-key";
  const Bytes data = make_payload(9, 0, 1024);
  ASSERT_TRUE(rig.client.write(key, 0, as_view(data)).ok());

  const auto reps = rig.store.replicas_of(key);
  ASSERT_EQ(reps.size(), 3u);
  rig.injector.set_plan(rig.node_of(reps[0]).id(), forever_outage());
  // Each failed-over read charges >=1 failures against the primary; two
  // reads cross the threshold of 5 and open its breaker.
  for (int i = 0; i < 3; ++i) {
    auto r = rig.client.read(key, 0, 1024);
    ASSERT_TRUE(r.ok()) << i;  // failover keeps the data available
  }
  EXPECT_GT(rig.client.counters().failovers, 0u);
  ASSERT_GE(rig.client.counters().breaker_opens, 1u);

  // Primary recovers, but its breaker is still open: subsequent reads demote
  // it to the back of the candidate order and serve from a healthy replica
  // without paying a single failed attempt.
  rig.injector.clear_all();
  const std::uint64_t retries_before = rig.client.counters().retries;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.client.read(key, 0, 1024).ok());
  }
  EXPECT_GT(rig.client.counters().breaker_demotions, 0u);
  EXPECT_EQ(rig.client.counters().retries, retries_before);
  agree.check({"client.failovers", "client.breaker.demotions"});
}

TEST(Overload, ClientGivesBackOpenBreakerGauge) {
  // client.breaker.open_nodes counts nodes whose breaker is open or
  // half-open. A client destroyed (or restarted with start_call) with such a
  // breaker must give its units back, or the gauge drifts upward forever.
  StoreConfig cfg;
  cfg.write_quorum = 2;
  Rig rig(cfg);
  rig.install_injector();
  obs::Gauge& open_nodes = obs::MetricsRegistry::global().gauge("client.breaker.open_nodes");
  const std::int64_t before = open_nodes.value();

  const std::uint32_t victim = 3;
  const auto keys = secondary_keys(rig.store, victim, 16);
  ASSERT_EQ(keys.size(), 16u);
  rig.injector.set_plan(rig.node_of(victim).id(), forever_outage());
  const Bytes data = make_payload(10, 0, 512);
  {
    sim::SimAgent agent;
    BlobClient client(rig.store, &agent);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(client.write(keys[static_cast<std::size_t>(i)], 0, as_view(data)).ok());
    }
    ASSERT_GE(client.counters().breaker_opens, 1u);
    EXPECT_EQ(open_nodes.value(), before + 1);
  }
  EXPECT_EQ(open_nodes.value(), before);

  // Half-open: the replica recovers and one probe succeeds, one short of
  // the two that close the breaker. start_call gives the unit back too.
  for (int i = 6; i < 12; ++i) {
    ASSERT_TRUE(rig.client.write(keys[static_cast<std::size_t>(i)], 0, as_view(data)).ok());
  }
  ASSERT_GE(rig.client.counters().breaker_opens, 1u);
  rig.injector.clear_all();
  rig.agent.advance_to(rig.agent.now() + cfg.breaker.open_cooldown_us + 1000);
  ASSERT_TRUE(rig.client.write(keys[12], 0, as_view(data)).ok());
  ASSERT_GE(rig.client.counters().breaker_probes, 1u);
  ASSERT_EQ(rig.client.counters().breaker_closes, 0u);
  EXPECT_EQ(open_nodes.value(), before + 1);
  rig.client.start_call(&rig.agent);
  EXPECT_EQ(open_nodes.value(), before);
}

TEST(Overload, StartCallAnswersAsANewClient) {
  // Two identical rigs replay one faulted history. Afterwards rig a keeps
  // its client and calls start_call, rig b builds a new client: every
  // simulated time and fault-handling count must then match. The history
  // leaves an open breaker and a latency suspect behind, so a health entry
  // reset in place has to answer exactly as an absent one.
  Rig a;
  Rig b;
  std::vector<std::string> keys;
  for (int i = 0; i < 24; ++i) keys.push_back(strfmt("reset-%02d", i));
  const auto history = [&keys](Rig& rig) {
    rig.install_injector();
    const Bytes data = make_payload(11, 0, 1024);
    for (const auto& k : keys) ASSERT_TRUE(rig.client.write(k, 0, as_view(data)).ok());
    rpc::FaultPlan gray;
    gray.added_latency_us = 2000;
    rig.injector.set_plan(rig.node_of(rig.store.replicas_of(keys[0])[0]).id(), gray);
    rig.injector.set_plan(rig.node_of(rig.store.replicas_of(keys[1])[0]).id(),
                          forever_outage());
  };
  const auto reads = [&keys](BlobClient& c, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (const auto& k : keys) ASSERT_TRUE(c.read(k, 0, 1024).ok()) << k;
    }
  };
  history(a);
  history(b);
  reads(a.client, 3);
  reads(b.client, 3);
  ASSERT_GE(a.client.counters().breaker_opens, 1u);
  ASSERT_GT(a.client.counters().breaker_demotions, 0u);
  ASSERT_EQ(a.agent.now(), b.agent.now());

  a.client.start_call(&a.agent);
  const ClientCounters& ca = a.client.counters();
  const std::vector<std::uint64_t> base = {
      ca.failovers, ca.retries, ca.breaker_opens, ca.breaker_probes,
      ca.breaker_closes, ca.breaker_demotions, ca.hints_written, ca.retries_suppressed};
  BlobClient fresh(b.store, &b.agent);
  reads(a.client, 2);
  reads(fresh, 2);
  a.injector.clear_all();  // the outage replica is a primary: writes need it back
  b.injector.clear_all();
  const Bytes more = make_payload(12, 0, 1024);
  for (const auto& k : keys) {
    ASSERT_TRUE(a.client.write(k, 0, as_view(more)).ok());
    ASSERT_TRUE(fresh.write(k, 0, as_view(more)).ok());
  }
  const ClientCounters& cf = fresh.counters();
  EXPECT_EQ(a.agent.now(), b.agent.now());
  EXPECT_EQ(ca.failovers - base[0], cf.failovers.value());
  EXPECT_EQ(ca.retries - base[1], cf.retries.value());
  EXPECT_EQ(ca.breaker_opens - base[2], cf.breaker_opens.value());
  EXPECT_EQ(ca.breaker_probes - base[3], cf.breaker_probes.value());
  EXPECT_EQ(ca.breaker_closes - base[4], cf.breaker_closes.value());
  EXPECT_EQ(ca.breaker_demotions - base[5], cf.breaker_demotions.value());
  EXPECT_EQ(ca.hints_written - base[6], cf.hints_written.value());
  EXPECT_EQ(ca.retries_suppressed - base[7], cf.retries_suppressed.value());
  EXPECT_GT(cf.breaker_demotions.value(), 0u);
}

TEST(Overload, DisabledBreakerKeepsLegacyBehavior) {
  StoreConfig cfg;
  cfg.write_quorum = 2;
  cfg.breaker.enabled = false;
  Rig rig(cfg);
  ClientRegistryAgreement agree({&rig.client});
  rig.install_injector();

  const std::string key = "legacy-key";
  const auto reps = rig.store.replicas_of(key);
  ASSERT_EQ(reps.size(), 3u);
  rig.injector.set_plan(rig.node_of(reps[2]).id(), forever_outage());
  const Bytes data = make_payload(10, 0, 512);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.client.write(key, 0, as_view(data)).ok());
  }
  const ClientCounters& c = rig.client.counters();
  EXPECT_EQ(c.breaker_opens, 0u);
  EXPECT_EQ(c.breaker_fast_hints, 0u);
  EXPECT_EQ(c.breaker_probes, 0u);
  EXPECT_GT(c.hints_written, 0u);  // the slow path still records hints
  agree.check({"client.hints.written"});
}

TEST(Overload, AckedWritesSurviveBreakerFastHints) {
  // End-to-end durability of the fast-hint path: writes acked while one
  // replica sat behind an open breaker must be fully readable after the
  // replica recovers and hints drain.
  StoreConfig cfg;
  cfg.write_quorum = 2;
  Rig rig(cfg);
  ClientRegistryAgreement agree({&rig.client});
  rig.install_injector();

  const std::uint32_t victim = 3;
  const auto keys = secondary_keys(rig.store, victim, 8);
  ASSERT_EQ(keys.size(), 8u);
  rig.injector.set_plan(rig.node_of(victim).id(), forever_outage());
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    payloads.push_back(make_payload(100 + i, 0, 768));
    ASSERT_TRUE(rig.client.write(keys[i], 0, as_view(payloads[i])).ok());
  }
  ASSERT_GT(rig.client.counters().breaker_fast_hints, 0u);

  rig.injector.clear_all();
  for (std::uint32_t i = 0; i < rig.store.server_count(); ++i) {
    rig.store.recover_server(i, &rig.agent);
    (void)rig.store.resync_server(i, &rig.agent);
  }
  const auto report = rig.store.scrub(/*repair=*/false, &rig.agent);
  EXPECT_EQ(report.divergent_replicas, 0u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto r = rig.client.read(keys[i], 0, 768);
    ASSERT_TRUE(r.ok()) << keys[i];
    EXPECT_EQ(r.value(), payloads[i]) << keys[i];
  }
  agree.check({"client.breaker.fast_hints"});
}

}  // namespace
}  // namespace bsc::blob
