// Table I: monthly summary of the collected data — machines, events, and
// the verdict breakdown of the distinct processes, files, and URLs
// observed each month.
#pragma once

#include <array>
#include <cstdint>

#include "analysis/annotated.hpp"
#include "model/time.hpp"
#include "util/id_set.hpp"

namespace longtail::analysis {

struct MonthlyRow {
  std::uint64_t machines = 0;
  std::uint64_t events = 0;

  std::uint64_t processes = 0;
  double proc_benign = 0, proc_likely_benign = 0;
  double proc_malicious = 0, proc_likely_malicious = 0;

  std::uint64_t files = 0;
  double file_benign = 0, file_likely_benign = 0;
  double file_malicious = 0, file_likely_malicious = 0;

  std::uint64_t urls = 0;
  double url_benign = 0, url_malicious = 0;
};

struct MonthlySummary {
  std::array<MonthlyRow, model::kNumCollectionMonths> months{};
  MonthlyRow overall;  // distinct entities over the whole period
};

// Distinct-entity tally over one time slice — the shared accumulator of
// the batch month scans and the streaming absorb path
// (analysis/streaming.hpp). The four sets are util::IdSets over the
// corpus's dense ids, so a shard's tally stays small and merging shards is
// a bitwise OR. All consumers only read set sizes and verdict-bucketed
// sums, so results are independent of insertion order.
struct MonthlyTally {
  util::IdSet machines, processes, files, urls;

  void add(const telemetry::EventStore::EventRef& e) {
    machines.insert(e.machine().raw());
    processes.insert(e.process().raw());
    files.insert(e.file().raw());
    urls.insert(e.url().raw());
  }

  void merge(const MonthlyTally& other) {
    machines.merge(other.machines);
    processes.merge(other.processes);
    files.merge(other.files);
    urls.merge(other.urls);
  }
};

// Finishes one tally into a table row (verdict percentages are computed
// here, from order-free integer sums).
MonthlyRow summarize_tally(const AnnotatedCorpus& a, const MonthlyTally& t,
                           std::uint64_t events);

MonthlySummary monthly_summary(const AnnotatedCorpus& a);

}  // namespace longtail::analysis
