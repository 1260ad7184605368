// Tests of the benchmark's own statistics: the tail-percentile rule, the
// open-loop schedule's due-time latency under a stall, and failure
// accounting on a digest mismatch.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(TailPercentile, PicksHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, leaving exactly 10 above it.
  auto t = tail_percentile(ramp(1000));
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  // 999 samples: p99 would leave 9, so p98 (rank 980, 19 above).
  t = tail_percentile(ramp(999));
  EXPECT_EQ(t.percentile, 98);
  EXPECT_EQ(t.value, 980.0);
  // 100 samples: p90 leaves 10, p91 would leave 9.
  t = tail_percentile(ramp(100));
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.value, 90.0);
  // Order of the input does not matter.
  auto shuffled = ramp(100);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(tail_percentile(shuffled).value, 90.0);
  // Too few samples for any tail: the median.
  t = tail_percentile(ramp(15));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 8.0);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

// A clock that only moves when the system under test works or the
// generator waits.
struct FakeClock {
  double t = 0;
  double now() const { return t; }
  void wait_until(double until) { t = std::max(t, until); }
};

// Runs 40 chunks of 10 reports at 1000 reports/s (one every 10 ms), each
// taking 1 ms to serve, with `stall_s` extra on chunk 5. Returns each
// chunk's latency from its due time.
std::vector<double> latencies(double stall_s, OpenLoopSchedule& schedule) {
  FakeClock clock;
  std::vector<double> out;
  run_open_loop(schedule, clock, [&](std::size_t i, double due) {
    clock.t += 0.001 + (i == 5 ? stall_s : 0.0);
    out.push_back(clock.now() - due);
  });
  return out;
}

TEST(OpenLoop, StallRaisesDueTimeLatencyOfQueuedChunks) {
  OpenLoopSchedule calm(1000, 10, 400);
  const auto base = latencies(0.0, calm);
  ASSERT_EQ(base.size(), 40u);
  for (const double l : base) EXPECT_NEAR(l, 0.001, 1e-9);
  EXPECT_EQ(calm.max_backlog_reports, 0u);

  OpenLoopSchedule stalled(1000, 10, 400);
  const auto hit = latencies(0.2, stalled);
  EXPECT_NEAR(hit[5], 0.201, 1e-9);
  // Chunk 6 was due 10 ms after chunk 5 but could only go out when the
  // stall ended: it waited ~191 ms and its latency counts that wait. The
  // schedule does not slide, so the queue drains at 1 ms per chunk and
  // every chunk due during the stall is late.
  EXPECT_NEAR(hit[6], 0.192, 1e-9);
  for (std::size_t i = 6; i < 26; ++i) EXPECT_GT(hit[i], base[i] + 0.001);
  EXPECT_NEAR(hit[39], base[39], 1e-9);  // caught up by the end
  EXPECT_NEAR(stalled.max_lag_s, 0.191, 1e-9);
  // When the stall ends (t = 0.251), chunks 0-25 are due and chunk 6 is
  // going out: 19 chunks of 10 reports wait behind it.
  EXPECT_EQ(stalled.max_backlog_reports, 190u);
  EXPECT_NEAR(stalled.queue_wait_s[6], 0.191, 1e-9);
}

TEST(Ledger, DoctoredDigestCountsAsFailure) {
  const Digests reference = {{"tables", 0x1234}, {"fingerprint", 0x42}};
  Ledger ledger;
  EXPECT_TRUE(ledger.record(reference, reference));
  Digests doctored = reference;
  doctored["tables"] ^= 1;
  EXPECT_FALSE(ledger.record(reference, doctored));
  EXPECT_TRUE(ledger.record(reference, reference));
  Digests missing = {{"tables", 0x1234}};
  EXPECT_FALSE(ledger.record(reference, missing));
  EXPECT_EQ(ledger.attempted(), 4u);
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_DOUBLE_EQ(ledger.fail_ratio(), 0.5);
  ASSERT_FALSE(ledger.mismatches().empty());
  EXPECT_EQ(ledger.mismatches().front(), "tables");
}

}  // namespace
}  // namespace perfbench
