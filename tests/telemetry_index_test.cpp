#include "telemetry/index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace longtail::telemetry {
namespace {

using model::DownloadEvent;
using model::FileId;
using model::MachineId;
using model::Month;
using model::ProcessId;
using model::UrlId;

Corpus tiny_corpus() {
  Corpus c;
  c.machine_count = 4;
  c.files.resize(3);
  c.processes.resize(1);
  c.urls.resize(1);
  c.urls[0].domain = model::DomainId{0};
  c.domains.resize(1);
  auto ev = [](std::uint32_t f, std::uint32_t m, model::Timestamp t) {
    return DownloadEvent{FileId{f}, MachineId{m}, ProcessId{0}, UrlId{0}, t};
  };
  // File 0: two machines; file 1: one machine twice; file 2: unseen.
  c.events = {
      ev(0, 0, 100),
      ev(1, 1, 200),
      ev(1, 1, model::month_begin(Month::kFebruary) + 50),
      ev(0, 2, model::month_begin(Month::kMarch) + 10),
  };
  return c;
}

TEST(CorpusIndex, PrevalenceCountsDistinctMachines) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  EXPECT_EQ(idx.prevalence(FileId{0}), 2u);
  EXPECT_EQ(idx.prevalence(FileId{1}), 1u);
  EXPECT_EQ(idx.prevalence(FileId{2}), 0u);
}

TEST(CorpusIndex, FirstLastSeen) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  EXPECT_EQ(idx.first_seen(FileId{0}), 100);
  EXPECT_EQ(idx.last_seen(FileId{0}),
            model::month_begin(Month::kMarch) + 10);
}

TEST(CorpusIndex, ObservedFilesExcludesUnseen) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  const auto& observed = idx.observed_files();
  EXPECT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], (FileId{0}));
  EXPECT_EQ(observed[1], (FileId{1}));
}

TEST(CorpusIndex, MachineEventsAreTimeSorted) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  const auto events = idx.machine_events(MachineId{1});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(c.events[events[0]].time(), c.events[events[1]].time());
}

TEST(CorpusIndex, MachineWithNoEvents) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  EXPECT_TRUE(idx.machine_events(MachineId{3}).empty());
  EXPECT_EQ(idx.num_active_machines(), 3u);
}

TEST(CorpusIndex, MonthRangesPartitionEvents) {
  const Corpus c = tiny_corpus();
  const CorpusIndex idx(c);
  const auto [jb, je] = idx.month_range(Month::kJanuary);
  EXPECT_EQ(je - jb, 2u);
  const auto [fb, fe] = idx.month_range(Month::kFebruary);
  EXPECT_EQ(fe - fb, 1u);
  const auto [mb, me] = idx.month_range(Month::kMarch);
  EXPECT_EQ(me - mb, 1u);
  const auto [ab, ae] = idx.month_range(Month::kAugust);
  EXPECT_EQ(ae - ab, 0u);
}

// A seeded corpus with repeated (file, machine) pairs interleaved with other
// machines' events, the same pair in different months, unseen files and idle
// machines, checked against a brute-force reference.
TEST(CorpusIndex, MatchesBruteForceReference) {
  constexpr std::uint32_t kFiles = 400;
  constexpr std::uint32_t kMachines = 300;
  Corpus c;
  c.machine_count = kMachines;
  c.files.resize(kFiles);
  c.processes.resize(1);
  c.urls.resize(1);
  c.urls[0].domain = model::DomainId{0};
  c.domains.resize(1);

  util::Rng rng(20140101);
  const model::Timestamp t0 = model::kMonthStart.front();
  const model::Timestamp t1 = model::kMonthStart.back();
  // Files 7k and 399 never appear; 398 is the largest file with events.
  auto draw_file = [&] {
    std::uint32_t f = 0;
    do f = static_cast<std::uint32_t>(rng.uniform(kFiles - 1));
    while (f % 7 == 0);
    return f;
  };
  // Machines 5k + 4 never download.
  auto draw_machine = [&] {
    std::uint32_t m = 0;
    do m = static_cast<std::uint32_t>(rng.uniform(kMachines));
    while (m % 5 == 4);
    return m;
  };
  auto draw_time = [&] {
    return static_cast<model::Timestamp>(rng.uniform_range(t0, t1 - 1));
  };
  std::vector<DownloadEvent> events;
  auto add = [&](std::uint32_t f, std::uint32_t m, model::Timestamp t) {
    events.push_back(
        DownloadEvent{FileId{f}, MachineId{m}, ProcessId{0}, UrlId{0}, t});
  };
  for (int i = 0; i < 3000; ++i) add(draw_file(), draw_machine(), draw_time());
  // Hot pairs: repeat r lands in month r, with other machines' events in
  // between.
  for (int p = 0; p < 100; ++p) {
    const std::uint32_t f = draw_file();
    const std::uint32_t m = draw_machine();
    const std::size_t repeats = 2 + rng.uniform(model::kNumCalendarMonths - 1);
    for (std::size_t r = 0; r < repeats; ++r) {
      const model::Timestamp begin = model::kMonthStart[r];
      const auto span = static_cast<std::uint64_t>(model::kMonthStart[r + 1] -
                                                   begin);
      add(f, m, begin + static_cast<model::Timestamp>(rng.uniform(span)));
    }
  }
  add(kFiles - 2, draw_machine(), draw_time());
  std::stable_sort(events.begin(), events.end(),
                   [](const DownloadEvent& a, const DownloadEvent& b) {
                     return a.time < b.time;
                   });
  for (const auto& e : events) c.events.push_back(e);

  // Reference.
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::map<std::uint32_t, std::pair<model::Timestamp, model::Timestamp>> seen;
  std::vector<std::vector<std::uint32_t>> per_machine(kMachines);
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    const auto f = events[i].file.raw();
    const auto m = events[i].machine.raw();
    const auto t = events[i].time;
    pairs.emplace(f, m);
    const auto it = seen.try_emplace(f, t, t).first;
    it->second.first = std::min(it->second.first, t);
    it->second.second = std::max(it->second.second, t);
    per_machine[m].push_back(i);
  }
  ASSERT_LT(pairs.size(), events.size());  // repeated pairs exist

  const CorpusIndex idx(c);
  std::vector<FileId> observed;
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    const auto n = static_cast<std::uint32_t>(std::count_if(
        pairs.begin(), pairs.end(),
        [f](const auto& fm) { return fm.first == f; }));
    EXPECT_EQ(idx.prevalence(FileId{f}), n) << "file " << f;
    const auto it = seen.find(f);
    if (it == seen.end()) {
      EXPECT_EQ(n, 0u);
      EXPECT_EQ(idx.first_seen(FileId{f}),
                std::numeric_limits<model::Timestamp>::max());
      EXPECT_EQ(idx.last_seen(FileId{f}),
                std::numeric_limits<model::Timestamp>::min());
      continue;
    }
    observed.push_back(FileId{f});
    EXPECT_EQ(idx.first_seen(FileId{f}), it->second.first) << "file " << f;
    EXPECT_EQ(idx.last_seen(FileId{f}), it->second.second) << "file " << f;
  }
  EXPECT_EQ(idx.observed_files(), observed);
  EXPECT_EQ(observed.back(), (FileId{kFiles - 2}));
  EXPECT_EQ(idx.prevalence(FileId{kFiles - 1}), 0u);

  std::uint32_t active = 0;
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    const auto got = idx.machine_events(MachineId{m});
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              per_machine[m])
        << "machine " << m;
    if (!per_machine[m].empty()) ++active;
  }
  EXPECT_EQ(idx.num_active_machines(), active);
  EXPECT_LT(active, kMachines);
}

}  // namespace
}  // namespace longtail::telemetry
