#include "telemetry/index.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace longtail::telemetry {

CorpusIndex::CorpusIndex(const Corpus& corpus) : corpus_(&corpus) {
  // The index walks the raw columns directly: one pass touches only the
  // columns it needs (times for month offsets, machines for the counting
  // sort), which is the point of the SoA layout.
  const auto files = corpus.events.file_column();
  const auto machines = corpus.events.machine_column();
  const auto times = corpus.events.time_column();
  const std::size_t n = times.size();
  assert(std::is_sorted(times.begin(), times.end()));

  const std::size_t nf = corpus.files.size();
  prevalence_.assign(nf, 0);
  first_seen_.assign(nf, std::numeric_limits<model::Timestamp>::max());
  last_seen_.assign(nf, std::numeric_limits<model::Timestamp>::min());

  std::vector<std::uint32_t> machine_counts(corpus.machine_count + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = files[i].raw();
    first_seen_[f] = std::min(first_seen_[f], times[i]);
    last_seen_[f] = std::max(last_seen_[f], times[i]);
    ++machine_counts[machines[i].raw()];
  }

  // Per-machine event lists via counting sort: offsets then fill.
  machine_offsets_.assign(corpus.machine_count + 1, 0);
  for (std::uint32_t m = 0; m < corpus.machine_count; ++m)
    machine_offsets_[m + 1] = machine_offsets_[m] + machine_counts[m];
  machine_event_idx_.resize(n);
  {
    std::vector<std::size_t> cursor(machine_offsets_.begin(),
                                    machine_offsets_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto m = machines[i].raw();
      machine_event_idx_[cursor[m]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Prevalence: a machine's events are contiguous in machine_event_idx_, so
  // stamping each file with the last machine that counted it counts every
  // distinct (file, machine) pair once.
  std::vector<std::uint32_t> last_machine(nf, ~0u);
  for (std::uint32_t m = 0; m < corpus.machine_count; ++m) {
    const auto events = machine_events(model::MachineId{m});
    if (!events.empty()) ++active_machines_;
    for (const auto i : events) {
      const auto f = files[i].raw();
      if (last_machine[f] != m) {
        last_machine[f] = m;
        ++prevalence_[f];
      }
    }
  }
  for (std::uint32_t f = 0; f < nf; ++f)
    if (prevalence_[f] > 0) observed_files_.push_back(model::FileId{f});

  // Month offsets over the time-sorted event stream.
  month_offsets_.assign(model::kNumCalendarMonths + 1, 0);
  for (std::size_t m = 0; m <= model::kNumCalendarMonths; ++m) {
    const model::Timestamp boundary = model::kMonthStart[m];
    const auto it = std::lower_bound(times.begin(), times.end(), boundary);
    month_offsets_[m] = static_cast<std::uint32_t>(it - times.begin());
  }
}

}  // namespace longtail::telemetry
