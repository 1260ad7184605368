// Downloading-process analysis (§V-A, §VI-A):
//   * Table X   — download behaviour of *known benign* processes, grouped
//                 into browsers / Windows / Java / Acrobat Reader / other;
//   * Table XI  — download behaviour per browser;
//   * Table XIV — process categories downloading unknown files.
#pragma once

#include <array>
#include <cstdint>

#include "analysis/annotated.hpp"
#include "util/id_set.hpp"

namespace longtail::analysis {

struct ProcessBehaviorRow {
  std::uint64_t processes = 0;  // distinct process hashes seen downloading
  std::uint64_t machines = 0;   // distinct machines with such a download
  std::uint64_t unknown_files = 0;
  std::uint64_t benign_files = 0;
  std::uint64_t malicious_files = 0;
  double infected_machines_pct = 0;  // machines with >= 1 malicious download
  std::array<double, model::kNumMalwareTypes> type_pct{};  // of malicious
};

namespace detail {

// One Table X/XI/XII row under construction, shared by the benign
// (processes.cpp) and malicious (malproc.cpp) process analyses. Distinct
// counts are util::IdSets; the per-type shares are counted from the
// malicious-file set when the row is finished, so every file counts once
// however the scan was sharded.
struct BehaviorAcc {
  util::IdSet processes, machines, infected;
  util::IdSet unknown_files, benign_files, malicious_files;

  void add(const AnnotatedCorpus& a,
           const telemetry::EventStore::EventRef& e);
  void merge(const BehaviorAcc& other);
  [[nodiscard]] ProcessBehaviorRow finish(const AnnotatedCorpus& a) const;
};

}  // namespace detail

// Table X. Only events whose process is labeled benign are counted, as in
// the paper (malware may masquerade as a browser; the whitelist check
// filters it).
std::array<ProcessBehaviorRow, model::kNumProcessCategories>
benign_process_behavior(const AnnotatedCorpus& a);

// Table XI: per-browser behaviour (benign browser processes only).
std::array<ProcessBehaviorRow, model::kNumBrowserKinds> browser_behavior(
    const AnnotatedCorpus& a);

// Table XIV: number of unknown-file downloads per benign process
// category, plus the total.
struct UnknownDownloads {
  std::array<std::uint64_t, model::kNumProcessCategories> by_category{};
  std::uint64_t total = 0;
};

UnknownDownloads unknown_downloads_by_category(const AnnotatedCorpus& a);

}  // namespace longtail::analysis
