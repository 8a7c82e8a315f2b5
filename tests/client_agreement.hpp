// Client <-> registry agreement. Every ClientCounters event rolls up into
// one registry series (kClientEventSeries), so over any interval the summed
// per-client deltas of an event equal its series' delta. Scenarios that
// already drive the events construct a ClientRegistryAgreement before they
// start and call check() at the end.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blob/client.hpp"
#include "obs/metrics.hpp"

namespace bsc::blob {

class ClientRegistryAgreement {
 public:
  /// Snapshots the registry and the clients' counts. Pass every client that
  /// publishes during the scenario: a series sums all of them.
  explicit ClientRegistryAgreement(std::vector<const BlobClient*> clients)
      : clients_(std::move(clients)), before_(obs::MetricsRegistry::global().snapshot()) {
    for (const ClientEventSeries& e : kClientEventSeries) before_counts_.push_back(count(e));
  }

  /// Every event moved its series by exactly the clients' summed delta, and
  /// each series in `moved` (the events this scenario exists to drive) moved.
  void check(std::initializer_list<std::string> moved) const { compare(moved, false); }

  /// For an interval run with the metrics switch off: the per-client counts
  /// of `moved` advanced while every series stayed frozen.
  void check_frozen(std::initializer_list<std::string> moved) const { compare(moved, true); }

 private:
  std::uint64_t count(const ClientEventSeries& e) const {
    std::uint64_t n = 0;
    for (const BlobClient* c : clients_) n += (c->counters().*e.field).value();
    return n;
  }

  static std::uint64_t series_delta(const obs::MetricsSnapshot& delta,
                                    const ClientEventSeries& e) {
    if (e.sink == ClientEventSink::counter) return delta.counters.at(e.series);
    // A byte-volume event's series is the histogram whose sum it is.
    const Histogram& h = delta.histograms.at(e.series);
    return static_cast<std::uint64_t>(
        std::llround(h.mean() * static_cast<double>(h.count())));
  }

  void compare(std::initializer_list<std::string> moved, bool frozen) const {
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().delta_since(before_);
    std::set<std::string> unmoved(moved.begin(), moved.end());
    for (std::size_t i = 0; i < std::size(kClientEventSeries); ++i) {
      const ClientEventSeries& e = kClientEventSeries[i];
      const std::uint64_t client_delta = count(e) - before_counts_[i];
      EXPECT_EQ(series_delta(delta, e), frozen ? 0 : client_delta) << e.series;
      if (client_delta > 0) unmoved.erase(e.series);
    }
    EXPECT_TRUE(unmoved.empty()) << "scenario did not drive " << *unmoved.begin();
  }

  std::vector<const BlobClient*> clients_;
  obs::MetricsSnapshot before_;
  std::vector<std::uint64_t> before_counts_;
};

}  // namespace bsc::blob
