#include "analysis/streaming.hpp"

#include <algorithm>

#include "util/id_set.hpp"

namespace longtail::analysis {

StreamingAnalytics::StreamingAnalytics(const telemetry::Corpus& corpus)
    : monthly_(MonthlyState{}, &StreamingAnalytics::fold_monthly,
               "analysis.stream_monthly"),
      files_(FileStates{&corpus,
                        std::vector<FileState>(corpus.files.size())},
             &StreamingAnalytics::fold_files, "analysis.stream_files") {}

void StreamingAnalytics::fold_monthly(MonthlyState& s,
                                      telemetry::EventStore::EventRef e) {
  const auto m = static_cast<std::size_t>(model::month_of(e.time()));
  s.tallies[m].add(e);
  ++s.events[m];
}

void StreamingAnalytics::fold_files(FileStates& s,
                                    telemetry::EventStore::EventRef e) {
  FileState& f = s.files[e.file().raw()];
  const std::uint32_t m = e.machine().raw();
  const auto it = std::lower_bound(f.machines.begin(), f.machines.end(), m);
  if (it == f.machines.end() || *it != m) f.machines.insert(it, m);
  if (s.corpus->processes[e.process().raw()].category ==
      model::ProcessCategory::kBrowser)
    f.via_browser = true;
}

void StreamingAnalytics::absorb(const telemetry::EventWindow& w) {
  monthly_.absorb(w.events);
  files_.absorb(w.events);
  ++windows_;
}

std::uint64_t StreamingAnalytics::events_absorbed() const noexcept {
  std::uint64_t total = 0;
  for (const auto n : monthly_.state().events) total += n;
  return total;
}

MonthlySummary StreamingAnalytics::monthly(const AnnotatedCorpus& a) const {
  const MonthlyState& s = monthly_.state();
  MonthlySummary out;
  MonthlyTally overall;
  for (std::size_t m = 0; m < model::kNumCollectionMonths; ++m) {
    overall.merge(s.tallies[m]);
    out.months[m] = summarize_tally(a, s.tallies[m], s.events[m]);
  }
  // Include any spill past July in the overall row, as the batch path
  // does.
  overall.merge(s.tallies[static_cast<std::size_t>(model::Month::kAugust)]);
  out.overall = summarize_tally(a, overall, events_absorbed());
  return out;
}

PrevalenceDistributions StreamingAnalytics::prevalence(
    const AnnotatedCorpus& a, std::uint32_t sigma) const {
  detail::PrevalenceAcc acc;
  const auto& files = files_.state().files;
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (files[f].machines.empty()) continue;  // not observed yet
    detail::prevalence_fold(
        acc, a, model::FileId(static_cast<std::uint32_t>(f)),
        static_cast<std::uint32_t>(files[f].machines.size()), sigma);
  }
  return detail::prevalence_finish(std::move(acc));
}

SigningRates StreamingAnalytics::signing(const AnnotatedCorpus& a) const {
  detail::SigningAcc acc;
  const auto& files = files_.state().files;
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (files[f].machines.empty()) continue;
    detail::signing_fold(acc, a,
                         model::FileId(static_cast<std::uint32_t>(f)),
                         files[f].via_browser);
  }
  return detail::signing_finish(std::move(acc));
}

MachineCoverage StreamingAnalytics::coverage(const AnnotatedCorpus& a) const {
  std::array<util::IdSet, model::kNumVerdicts> sets;
  util::IdSet active;
  const auto& files = files_.state().files;
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (files[f].machines.empty()) continue;
    auto& set = sets[static_cast<std::size_t>(
        a.verdict(model::FileId(static_cast<std::uint32_t>(f))))];
    for (const auto m : files[f].machines) {
      set.insert(m);
      active.insert(m);
    }
  }
  MachineCoverage out;
  out.active_machines = active.size();
  for (std::size_t v = 0; v < model::kNumVerdicts; ++v)
    out.machines[v] = sets[v].size();
  return out;
}

}  // namespace longtail::analysis
