// The §II-A reporting rules and the reorder boundary, driven through
// StreamingCollectionServer: raw agent streams go through the trusted
// path (report_id = index, arrival = time), delivered streams through
// the untrusted one.
#include "telemetry/collection.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "collection_replay.hpp"
#include "telemetry/streaming.hpp"
#include "telemetry/transport.hpp"

namespace longtail::telemetry {
namespace {

using model::DownloadEvent;
using model::DomainId;
using model::FileId;
using model::MachineId;
using model::UrlId;
using test::make_event;
using test::one_window;
using test::replay;
using test::trusted_feed;
using test::two_urls;

constexpr std::size_t kNumFiles = 50;

// The server under test for a raw agent stream: trusted, one window.
StreamingConfig raw_config(CollectionPolicy policy) {
  return one_window(std::move(policy), kNumFiles, /*trusted=*/true);
}

TEST(CollectionRules, AcceptsExecutedEvents) {
  const auto urls = two_urls();
  StreamingCollectionServer server(
      raw_config({.sigma = 20, .whitelisted_domains = {}}), urls);
  const std::vector<DownloadEvent> raw = {make_event(0, 0, 0, 10)};
  const auto out = replay(server, trusted_feed(raw));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(server.stats().accepted, 1u);
}

TEST(CollectionRules, DropsNonExecutedDownloads) {
  const auto urls = two_urls();
  StreamingCollectionServer server(
      raw_config({.sigma = 20, .whitelisted_domains = {}}), urls);
  const std::vector<DownloadEvent> raw = {
      make_event(0, 0, 0, 10, /*executed=*/false),
      make_event(0, 1, 0, 20, /*executed=*/true)};
  const auto out = replay(server, trusted_feed(raw));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(server.stats().dropped_not_executed, 1u);
}

TEST(CollectionRules, DropsWhitelistedDomains) {
  const auto urls = two_urls();
  StreamingCollectionServer server(
      raw_config({.sigma = 20, .whitelisted_domains = {DomainId{1}}}), urls);
  const std::vector<DownloadEvent> raw = {make_event(0, 0, 0, 10),
                                          make_event(1, 0, 1, 20)};
  const auto out = replay(server, trusted_feed(raw));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].url(), (UrlId{0}));
  EXPECT_EQ(server.stats().dropped_whitelisted_url, 1u);
}

TEST(CollectionRules, EnforcesPrevalenceCap) {
  const auto urls = two_urls();
  StreamingCollectionServer server(
      raw_config({.sigma = 3, .whitelisted_domains = {}}), urls);
  std::vector<DownloadEvent> raw;
  for (std::uint32_t m = 0; m < 10; ++m)
    raw.push_back(make_event(0, m, 0, 10 + m));
  const auto out = replay(server, trusted_feed(raw));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(server.stats().dropped_prevalence_cap, 7u);
  EXPECT_EQ(server.reported_prevalence(FileId{0}), 3u);
}

TEST(CollectionRules, RepeatMachineDoesNotCountTwiceTowardCap) {
  const auto urls = two_urls();
  StreamingCollectionServer server(
      raw_config({.sigma = 2, .whitelisted_domains = {}}), urls);
  // Machine 0 downloads the file twice; then machines 1 and 2 try.
  const std::vector<DownloadEvent> raw = {
      make_event(0, 0, 0, 1), make_event(0, 0, 0, 2), make_event(0, 1, 0, 3),
      make_event(0, 2, 0, 4)};
  const auto out = replay(server, trusted_feed(raw));
  // Events from machines {0,0,1} accepted; machine 2 pushed past sigma=2.
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(server.reported_prevalence(FileId{0}), 2u);
}

TEST(CollectionRules, SigmaTwentyMatchesPaperSetting) {
  const auto urls = two_urls();
  StreamingCollectionServer server(
      raw_config({.sigma = 20, .whitelisted_domains = {}}), urls);
  std::vector<DownloadEvent> raw;
  for (std::uint32_t m = 0; m < 100; ++m)
    raw.push_back(make_event(0, m, 0, m));
  EXPECT_EQ(replay(server, trusted_feed(raw)).size(), 20u);
}

TEST(CollectionRules, CapIsPerFile) {
  const auto urls = two_urls();
  StreamingCollectionServer server(
      raw_config({.sigma = 1, .whitelisted_domains = {}}), urls);
  const std::vector<DownloadEvent> raw = {
      make_event(0, 0, 0, 1), make_event(1, 1, 0, 2), make_event(2, 2, 0, 3)};
  EXPECT_EQ(replay(server, trusted_feed(raw)).size(), 3u);
}

TEST(CollectionRules, StatsTotalSeen) {
  const auto urls = two_urls();
  StreamingCollectionServer server(
      raw_config({.sigma = 1, .whitelisted_domains = {DomainId{1}}}), urls);
  const std::vector<DownloadEvent> raw = {
      make_event(0, 0, 0, 1, false), make_event(0, 1, 1, 2),
      make_event(0, 2, 0, 3), make_event(0, 3, 0, 4)};
  (void)replay(server, trusted_feed(raw));
  EXPECT_EQ(server.stats().total_seen(), 4u);
  EXPECT_EQ(server.stats().accepted, 1u);
}

TEST(PrevalenceTracker, StoresAtMostSigmaMachinesPerFile) {
  PrevalenceTracker tracker(3);
  EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{0}));
  EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{1}));
  EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{2}));
  // The cap is reached: new machines are refused, but repeat downloads
  // from an already-admitted machine stay reportable.
  EXPECT_FALSE(tracker.admit(FileId{0}, MachineId{3}));
  EXPECT_TRUE(tracker.admit(FileId{0}, MachineId{1}));
  EXPECT_EQ(tracker.prevalence(FileId{0}), 3u);
  EXPECT_TRUE(tracker.saturated(FileId{0}));
  EXPECT_FALSE(tracker.saturated(FileId{1}));
  EXPECT_EQ(tracker.prevalence(FileId{1}), 0u);
}

TEST(ReorderBoundary, EventExactlyAtHorizonIsAdmitted) {
  // The stale rule is strict: an event reported exactly at the released
  // watermark is still admitted; one second earlier is stale.
  const auto urls = two_urls();
  const CollectionPolicy policy{.sigma = 20,
                                .whitelisted_domains = {},
                                .reorder_horizon_s = 100.0};
  StreamingCollectionServer server(one_window(policy, kNumFiles), urls);
  const std::vector<DeliveredReport> delivered = {
      {make_event(0, 0, 0, 1000), 0, 1100, 0, false},
      {make_event(1, 1, 0, 999), 1, 1100, 0, false},
  };
  const auto out = replay(server, delivered);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].file(), (FileId{0}));
  EXPECT_EQ(server.stats().dropped_stale, 1u);
  EXPECT_EQ(server.stats().total_seen(), delivered.size());
}

TEST(ReorderBoundary, EqualTimestampsReleaseInReportIdOrder) {
  // Same reported second, arrival order 5, 9, 3: the (time, report_id)
  // buffer key must release 3, 5, 9.
  const auto urls = two_urls();
  const CollectionPolicy policy{.sigma = 20,
                                .whitelisted_domains = {},
                                .reorder_horizon_s = 1'000'000.0};
  StreamingCollectionServer server(one_window(policy, kNumFiles), urls);
  const std::vector<DeliveredReport> delivered = {
      {make_event(5, 0, 0, 500), 5, 600, 0, false},
      {make_event(9, 1, 0, 500), 9, 610, 0, false},
      {make_event(3, 2, 0, 500), 3, 620, 0, false},
  };
  const auto out = replay(server, delivered);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].file(), (FileId{3}));
  EXPECT_EQ(out[1].file(), (FileId{5}));
  EXPECT_EQ(out[2].file(), (FileId{9}));
}

TEST(StreamingWindows, WatermarkAdvanceClosesEmptyWindows) {
  StreamingConfig cfg;
  cfg.policy = {.sigma = 20, .whitelisted_domains = {}};
  cfg.window_s = 100;
  cfg.num_files = 50;
  cfg.period_end = 500;
  const auto urls = two_urls();
  StreamingCollectionServer server(std::move(cfg), urls);

  std::vector<EventWindow> closed;
  const std::vector<DeliveredReport> chunk = {
      {make_event(0, 0, 0, 50), 0, 50, 0, false},
      {make_event(1, 1, 0, 450), 1, 450, 0, false},
  };
  server.ingest(chunk, closed);
  // The watermark jumped to 450: windows 0-3 are final — including the
  // empty middle ones — while the second event waits in the open window.
  ASSERT_EQ(closed.size(), 4u);
  EXPECT_EQ(closed[0].events.size(), 1u);
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_EQ(closed[k].events.size(), 0u);
    EXPECT_EQ(closed[k].begin, static_cast<model::Timestamp>(k) * 100);
    EXPECT_EQ(closed[k].end, static_cast<model::Timestamp>(k + 1) * 100);
  }
  EXPECT_EQ(server.watermark(), 450);
  EXPECT_EQ(server.pending(), 1u);
  EXPECT_TRUE(server.conserved());

  server.finish(closed);
  ASSERT_EQ(closed.size(), 5u);
  EXPECT_EQ(closed[4].events.size(), 1u);
  EXPECT_EQ(closed[4].end, 500);
  EXPECT_EQ(server.pending(), 0u);
  EXPECT_TRUE(server.conserved());
  EXPECT_EQ(server.stats().accepted, 2u);
}

}  // namespace
}  // namespace longtail::telemetry
