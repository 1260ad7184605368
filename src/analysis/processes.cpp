#include "analysis/processes.hpp"

#include "telemetry/scan.hpp"
#include "util/stats.hpp"

namespace longtail::analysis {

using model::ProcessCategory;
using model::Verdict;

namespace detail {

void BehaviorAcc::add(const AnnotatedCorpus& a,
                      const telemetry::EventStore::EventRef& e) {
  processes.insert(e.process().raw());
  machines.insert(e.machine().raw());
  switch (a.verdict(e.file())) {
    case Verdict::kUnknown:
      unknown_files.insert(e.file().raw());
      break;
    case Verdict::kBenign:
      benign_files.insert(e.file().raw());
      break;
    case Verdict::kMalicious:
      malicious_files.insert(e.file().raw());
      infected.insert(e.machine().raw());
      break;
    default:
      break;
  }
}

void BehaviorAcc::merge(const BehaviorAcc& o) {
  processes.merge(o.processes);
  machines.merge(o.machines);
  infected.merge(o.infected);
  unknown_files.merge(o.unknown_files);
  benign_files.merge(o.benign_files);
  malicious_files.merge(o.malicious_files);
}

ProcessBehaviorRow BehaviorAcc::finish(const AnnotatedCorpus& a) const {
  ProcessBehaviorRow row;
  row.processes = processes.size();
  row.machines = machines.size();
  row.unknown_files = unknown_files.size();
  row.benign_files = benign_files.size();
  row.malicious_files = malicious_files.size();
  row.infected_machines_pct = util::percent(infected.size(), row.machines);
  std::array<std::uint64_t, model::kNumMalwareTypes> type_files{};
  malicious_files.for_each([&](std::uint32_t f) {
    ++type_files[static_cast<std::size_t>(a.type_of(model::FileId{f}))];
  });
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    row.type_pct[t] = util::percent(type_files[t], row.malicious_files);
  return row;
}

}  // namespace detail

namespace {

template <std::size_t N>
void merge_rows(std::array<detail::BehaviorAcc, N>& total,
                const std::array<detail::BehaviorAcc, N>& shard) {
  for (std::size_t i = 0; i < N; ++i) total[i].merge(shard[i]);
}

}  // namespace

std::array<ProcessBehaviorRow, model::kNumProcessCategories>
benign_process_behavior(const AnnotatedCorpus& a) {
  using Acc =
      std::array<detail::BehaviorAcc, model::kNumProcessCategories>;
  const Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        // Category from the on-disk executable name; restricted to
        // processes whose hash is known benign, exactly as §V-A does (a
        // masquerading chrome.exe fails the whitelist and never reaches
        // these rows).
        if (a.verdict(e.process()) != Verdict::kBenign) return;
        const auto cat = a.category(e.process()).category;
        s[static_cast<std::size_t>(cat)].add(a, e);
      },
      [](Acc& total, Acc&& shard) { merge_rows(total, shard); },
      "analysis.benign_process_behavior");
  std::array<ProcessBehaviorRow, model::kNumProcessCategories> out;
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = acc[c].finish(a);
  return out;
}

std::array<ProcessBehaviorRow, model::kNumBrowserKinds> browser_behavior(
    const AnnotatedCorpus& a) {
  using Acc = std::array<detail::BehaviorAcc, model::kNumBrowserKinds>;
  const Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        if (a.verdict(e.process()) != Verdict::kBenign) return;
        const auto named = a.category(e.process());
        if (named.category != ProcessCategory::kBrowser) return;
        s[static_cast<std::size_t>(named.browser)].add(a, e);
      },
      [](Acc& total, Acc&& shard) { merge_rows(total, shard); },
      "analysis.browser_behavior");
  std::array<ProcessBehaviorRow, model::kNumBrowserKinds> out;
  for (std::size_t b = 0; b < out.size(); ++b) out[b] = acc[b].finish(a);
  return out;
}

UnknownDownloads unknown_downloads_by_category(const AnnotatedCorpus& a) {
  using FileSets = std::array<util::IdSet, model::kNumProcessCategories>;
  const FileSets files = telemetry::scan_reduce(
      *a.corpus, [] { return FileSets{}; },
      [&](FileSets& s, const auto& e) {
        if (a.verdict(e.process()) != Verdict::kBenign) return;
        if (a.verdict(e.file()) != Verdict::kUnknown) return;
        const auto cat = a.category(e.process()).category;
        s[static_cast<std::size_t>(cat)].insert(e.file().raw());
      },
      [](FileSets& total, FileSets&& shard) {
        for (std::size_t c = 0; c < shard.size(); ++c)
          total[c].merge(shard[c]);
      },
      "analysis.unknown_downloads");
  UnknownDownloads out;
  for (std::size_t c = 0; c < files.size(); ++c) {
    out.by_category[c] = files[c].size();
    out.total += files[c].size();
  }
  return out;
}

}  // namespace longtail::analysis
