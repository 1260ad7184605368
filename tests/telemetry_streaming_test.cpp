// Streaming ingest invariants: for every window width and every chunking
// of the delivered stream, the concatenation of the closed windows is
// identical to a one-window, one-chunk replay — same events, same order,
// same CollectionStats — and the §II-A conservation law holds at every
// watermark, not just at end-of-stream. The trusted fast path must be
// indistinguishable from the untrusted path on a fault-free stream, and
// still quarantine and drop what breaks the trusted-channel contract.
#include "telemetry/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "collection_replay.hpp"
#include "synth/feed.hpp"
#include "telemetry/collection.hpp"
#include "telemetry/transport.hpp"

namespace longtail::telemetry {
namespace {

using model::FileId;
using model::Timestamp;
using model::UrlMeta;
using test::make_event;
using test::two_urls;

constexpr Timestamp kPeriodEnd = 20'000;
constexpr std::size_t kNumFiles = 37;

// A deterministic mildly hostile stream: out-of-order reported times,
// duplicate copies, and a few malformed payloads, sorted by arrival as
// FaultyTransport::deliver would emit it.
std::vector<DeliveredReport> hostile_stream() {
  std::vector<DeliveredReport> out;
  for (std::uint32_t i = 0; i < 400; ++i) {
    const auto t = static_cast<Timestamp>((i * 53) % (kPeriodEnd - 1));
    DeliveredReport r{
        make_event(i % kNumFiles, i % 11, i % 2, t, (i % 5) != 0), i,
        t + static_cast<Timestamp>((i * 7) % 200), 0, false};
    if (i % 97 == 0) r.event.file = FileId{1'000};  // malformed: id OOB
    out.push_back(r);
    if (i % 13 == 0) {  // retransmitted copy, later arrival
      DeliveredReport dup = r;
      dup.copy = 1;
      dup.arrival += 37;
      out.push_back(dup);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const DeliveredReport& a, const DeliveredReport& b) {
                     return a.arrival < b.arrival;
                   });
  return out;
}

// A fault-free stream honoring the trusted-channel contract: exactly
// once, reported-time order, arrival == time.
std::vector<DeliveredReport> clean_stream() {
  std::vector<DeliveredReport> out;
  for (std::uint32_t i = 0; i < 400; ++i) {
    const auto t = static_cast<Timestamp>((i * 53) % (kPeriodEnd - 1));
    out.push_back(DeliveredReport{
        make_event(i % kNumFiles, i % 11, i % 2, t, (i % 5) != 0), i, t, 0,
        false});
  }
  std::sort(out.begin(), out.end(),
            [](const DeliveredReport& a, const DeliveredReport& b) {
              return a.event.time != b.event.time
                         ? a.event.time < b.event.time
                         : a.report_id < b.report_id;
            });
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].report_id = i;  // post-sort sequence numbers
    out[i].arrival = out[i].event.time;
  }
  return out;
}

CollectionPolicy test_policy() {
  return {.sigma = 3, .whitelisted_domains = {}, .reorder_horizon_s = 100.0};
}

void expect_same_stats(const CollectionStats& a, const CollectionStats& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.dropped_not_executed, b.dropped_not_executed);
  EXPECT_EQ(a.dropped_prevalence_cap, b.dropped_prevalence_cap);
  EXPECT_EQ(a.dropped_whitelisted_url, b.dropped_whitelisted_url);
  EXPECT_EQ(a.dropped_duplicate, b.dropped_duplicate);
  EXPECT_EQ(a.dropped_stale, b.dropped_stale);
  EXPECT_EQ(a.quarantined_malformed, b.quarantined_malformed);
  EXPECT_EQ(a.total_seen(), b.total_seen());
}

void expect_same_events(const EventStore& a, const EventStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].file(), b[i].file()) << "at " << i;
    EXPECT_EQ(a[i].machine(), b[i].machine()) << "at " << i;
    EXPECT_EQ(a[i].process(), b[i].process()) << "at " << i;
    EXPECT_EQ(a[i].url(), b[i].url()) << "at " << i;
    EXPECT_EQ(a[i].time(), b[i].time()) << "at " << i;
    EXPECT_EQ(a[i].executed(), b[i].executed()) << "at " << i;
  }
}

// Runs the stream through a StreamingCollectionServer in `chunk`-sized
// pieces and returns (concatenated events, closed windows), checking the
// conservation law after every chunk.
struct StreamResult {
  EventStore events;
  std::vector<EventWindow> windows;
  CollectionStats stats;
};

StreamResult stream_through(const std::vector<DeliveredReport>& delivered,
                            Timestamp window_s, std::size_t chunk,
                            bool trusted,
                            const std::vector<UrlMeta>& urls) {
  StreamingConfig cfg;
  cfg.policy = test_policy();
  cfg.window_s = window_s;
  cfg.num_files = kNumFiles;
  cfg.period_end = kPeriodEnd;
  cfg.trusted = trusted;
  StreamingCollectionServer server(std::move(cfg), urls);

  StreamResult out;
  for (std::size_t begin = 0; begin < delivered.size(); begin += chunk) {
    const std::size_t end = std::min(delivered.size(), begin + chunk);
    server.ingest({delivered.data() + begin, end - begin}, out.windows);
    EXPECT_TRUE(server.conserved());
  }
  server.finish(out.windows);
  EXPECT_TRUE(server.conserved());
  EXPECT_EQ(server.pending(), 0u);
  for (const auto& w : out.windows) {
    EXPECT_EQ(w.begin, static_cast<Timestamp>(w.index) *
                           (window_s > 0 ? window_s : kPeriodEnd));
    EXPECT_LE(w.end, kPeriodEnd);
    for (std::size_t i = 0; i < w.events.size(); ++i) {
      EXPECT_GE(w.events[i].time(), w.begin);
      EXPECT_LT(w.events[i].time(), w.end);
      out.events.push_back(w.events[i]);
    }
  }
  out.stats = server.stats();
  return out;
}

TEST(StreamingIngest, ConcatenationMatchesBatchForEveryWidthAndChunk) {
  const auto delivered = hostile_stream();
  const auto urls = two_urls();

  // The reference: one window over the default collection period, the
  // whole stream as one chunk.
  StreamingCollectionServer batch(test::one_window(test_policy(), kNumFiles),
                                  urls);
  const auto batch_out = test::replay(batch, delivered);
  ASSERT_GT(batch_out.size(), 0u);
  // The hostile stream must actually exercise every defense.
  EXPECT_GT(batch.stats().dropped_duplicate, 0u);
  EXPECT_GT(batch.stats().dropped_stale, 0u);
  EXPECT_GT(batch.stats().quarantined_malformed, 0u);
  EXPECT_GT(batch.stats().dropped_prevalence_cap, 0u);

  for (const Timestamp window_s : {Timestamp{0}, Timestamp{64},
                                   Timestamp{512}, Timestamp{7'919},
                                   Timestamp{1'000'000}}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{17},
                                    std::size_t{100'000}}) {
      SCOPED_TRACE(testing::Message()
                   << "window_s=" << window_s << " chunk=" << chunk);
      const auto streamed =
          stream_through(delivered, window_s, chunk, /*trusted=*/false, urls);
      expect_same_events(streamed.events, batch_out);
      expect_same_stats(streamed.stats, batch.stats());
    }
  }
}

TEST(StreamingIngest, TrustedPathMatchesUntrustedOnCleanStream) {
  const auto delivered = clean_stream();
  const auto urls = two_urls();
  for (const Timestamp window_s : {Timestamp{0}, Timestamp{512}}) {
    SCOPED_TRACE(testing::Message() << "window_s=" << window_s);
    const auto untrusted =
        stream_through(delivered, window_s, 17, /*trusted=*/false, urls);
    const auto trusted =
        stream_through(delivered, window_s, 17, /*trusted=*/true, urls);
    expect_same_events(trusted.events, untrusted.events);
    expect_same_stats(trusted.stats, untrusted.stats);
    ASSERT_EQ(trusted.windows.size(), untrusted.windows.size());
    for (std::size_t i = 0; i < trusted.windows.size(); ++i) {
      EXPECT_EQ(trusted.windows[i].begin, untrusted.windows[i].begin);
      EXPECT_EQ(trusted.windows[i].end, untrusted.windows[i].end);
      EXPECT_EQ(trusted.windows[i].events.size(),
                untrusted.windows[i].events.size());
    }
  }
}

TEST(StreamingIngest, FinishIsIdempotent) {
  const auto delivered = clean_stream();
  const auto urls = two_urls();
  StreamingConfig cfg;
  cfg.policy = test_policy();
  cfg.window_s = 512;
  cfg.num_files = kNumFiles;
  cfg.period_end = kPeriodEnd;
  StreamingCollectionServer server(std::move(cfg), urls);
  std::vector<EventWindow> windows;
  server.ingest(delivered, windows);
  server.finish(windows);
  const std::size_t n = windows.size();
  const auto accepted = server.stats().accepted;
  server.finish(windows);
  EXPECT_EQ(windows.size(), n);
  EXPECT_EQ(server.stats().accepted, accepted);
}

TEST(StreamingIngest, TrustedPathQuarantinesAndDropsContractBreaches) {
  // A trusted feed that breaks its contract twice: one corrupted payload
  // and one report older than the watermark. Both are counted, and every
  // other event meets the same fate as on the clean stream.
  const auto clean = clean_stream();
  auto delivered = clean;
  DeliveredReport malformed = delivered[100];
  malformed.event.file = FileId{1'000};
  malformed.report_id = delivered.size();
  DeliveredReport late = delivered[10];
  late.report_id = delivered.size() + 1;
  ASSERT_LT(late.event.time, delivered[249].event.time);
  delivered.insert(delivered.begin() + 250, late);
  delivered.insert(delivered.begin() + 100, malformed);

  const auto urls = two_urls();
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{17}}) {
    SCOPED_TRACE(testing::Message() << "chunk=" << chunk);
    const auto reference =
        stream_through(clean, 512, chunk, /*trusted=*/true, urls);
    const auto breached =
        stream_through(delivered, 512, chunk, /*trusted=*/true, urls);
    EXPECT_EQ(breached.stats.quarantined_malformed, 1u);
    EXPECT_EQ(breached.stats.dropped_stale, 1u);
    expect_same_events(breached.events, reference.events);
    CollectionStats expected = reference.stats;
    expected.quarantined_malformed += 1;
    expected.dropped_stale += 1;
    expect_same_stats(breached.stats, expected);
  }
}

// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1))
    ++n;
  return n;
}

TEST(StreamingEnv, WindowZeroIsOneWindowAndInvalidValuesWarnOnce) {
  constexpr Timestamp kWeek = 7 * model::kSecondsPerDay;
  {
    ScopedEnv env("LONGTAIL_STREAM_WINDOW", "0");
    EXPECT_EQ(StreamingConfig::window_from_env(), 0);
  }
  {
    ScopedEnv env("LONGTAIL_STREAM_WINDOW", "86400");
    EXPECT_EQ(StreamingConfig::window_from_env(), 86'400);
  }
  {
    ScopedEnv env("LONGTAIL_STREAM_WINDOW", "");
    EXPECT_EQ(StreamingConfig::window_from_env(), kWeek);
  }
  testing::internal::CaptureStderr();
  for (const char* bad : {"-5", "abc", "12x"}) {
    ScopedEnv env("LONGTAIL_STREAM_WINDOW", bad);
    EXPECT_EQ(StreamingConfig::window_from_env(), kWeek) << bad;
    EXPECT_EQ(StreamingConfig::window_from_env(), kWeek) << bad;
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(err, "warning"), 1u) << err;
  EXPECT_NE(err.find("LONGTAIL_STREAM_WINDOW='-5'"), std::string::npos)
      << err;
}

TEST(StreamingEnv, ChunkMustBePositiveAndInvalidValuesWarnOnce) {
  constexpr std::size_t kDefault = 64 * 1024;
  {
    ScopedEnv env("LONGTAIL_STREAM_CHUNK", "4096");
    EXPECT_EQ(synth::ChunkedFeed::chunk_from_env(), 4096u);
  }
  {
    ScopedEnv env("LONGTAIL_STREAM_CHUNK", "");
    EXPECT_EQ(synth::ChunkedFeed::chunk_from_env(), kDefault);
  }
  testing::internal::CaptureStderr();
  for (const char* bad : {"0", "-5", "abc"}) {
    ScopedEnv env("LONGTAIL_STREAM_CHUNK", bad);
    EXPECT_EQ(synth::ChunkedFeed::chunk_from_env(), kDefault) << bad;
    EXPECT_EQ(synth::ChunkedFeed::chunk_from_env(), kDefault) << bad;
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(err, "warning"), 1u) << err;
  EXPECT_NE(err.find("LONGTAIL_STREAM_CHUNK='0'"), std::string::npos) << err;
}

}  // namespace
}  // namespace longtail::telemetry
