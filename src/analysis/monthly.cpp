#include "analysis/monthly.hpp"

#include "telemetry/scan.hpp"
#include "util/stats.hpp"

namespace longtail::analysis {

namespace {

using model::Verdict;

MonthlyTally tally_range(const AnnotatedCorpus& a, std::uint32_t begin,
                         std::uint32_t end) {
  return telemetry::scan_reduce(
      *a.corpus, begin, end, [] { return MonthlyTally{}; },
      [](MonthlyTally& acc, const auto& e) { acc.add(e); },
      [](MonthlyTally& total, MonthlyTally&& shard) { total.merge(shard); },
      "analysis.monthly");
}

}  // namespace

MonthlyRow summarize_tally(const AnnotatedCorpus& a, const MonthlyTally& t,
                           std::uint64_t events) {
  MonthlyRow row;
  row.machines = t.machines.size();
  row.events = events;

  row.processes = t.processes.size();
  std::uint64_t pb = 0, plb = 0, pm = 0, plm = 0;
  t.processes.for_each([&](std::uint32_t p) {
    switch (a.labels.process_verdicts[p]) {
      case Verdict::kBenign: ++pb; break;
      case Verdict::kLikelyBenign: ++plb; break;
      case Verdict::kMalicious: ++pm; break;
      case Verdict::kLikelyMalicious: ++plm; break;
      case Verdict::kUnknown: break;
    }
  });
  row.proc_benign = util::percent(pb, row.processes);
  row.proc_likely_benign = util::percent(plb, row.processes);
  row.proc_malicious = util::percent(pm, row.processes);
  row.proc_likely_malicious = util::percent(plm, row.processes);

  row.files = t.files.size();
  std::uint64_t fb = 0, flb = 0, fm = 0, flm = 0;
  t.files.for_each([&](std::uint32_t f) {
    switch (a.labels.file_verdicts[f]) {
      case Verdict::kBenign: ++fb; break;
      case Verdict::kLikelyBenign: ++flb; break;
      case Verdict::kMalicious: ++fm; break;
      case Verdict::kLikelyMalicious: ++flm; break;
      case Verdict::kUnknown: break;
    }
  });
  row.file_benign = util::percent(fb, row.files);
  row.file_likely_benign = util::percent(flb, row.files);
  row.file_malicious = util::percent(fm, row.files);
  row.file_likely_malicious = util::percent(flm, row.files);

  row.urls = t.urls.size();
  std::uint64_t ub = 0, um = 0;
  t.urls.for_each([&](std::uint32_t u) {
    switch (a.url_verdicts[u]) {
      case groundtruth::UrlVerdict::kBenign: ++ub; break;
      case groundtruth::UrlVerdict::kMalicious: ++um; break;
      case groundtruth::UrlVerdict::kUnknown: break;
    }
  });
  row.url_benign = util::percent(ub, row.urls);
  row.url_malicious = util::percent(um, row.urls);
  return row;
}

MonthlySummary monthly_summary(const AnnotatedCorpus& a) {
  MonthlySummary out;
  MonthlyTally overall;

  for (std::size_t m = 0; m < model::kNumCollectionMonths; ++m) {
    const auto [begin, end] =
        a.index.month_range(static_cast<model::Month>(m));
    const MonthlyTally month = tally_range(a, begin, end);
    overall.merge(month);
    out.months[m] = summarize_tally(a, month, end - begin);
  }
  // Include any spill past July in the overall row.
  const auto [aug_begin, aug_end] = a.index.month_range(model::Month::kAugust);
  overall.merge(tally_range(a, aug_begin, aug_end));

  out.overall = summarize_tally(a, overall, a.corpus->events.size());
  return out;
}

}  // namespace longtail::analysis
