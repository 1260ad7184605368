#include "analysis/coverage.hpp"

#include "telemetry/scan.hpp"
#include "util/id_set.hpp"

namespace longtail::analysis {

MachineCoverage machine_coverage(const AnnotatedCorpus& a) {
  using VerdictSets = std::array<util::IdSet, model::kNumVerdicts>;
  const VerdictSets sets = telemetry::scan_reduce(
      *a.corpus, [] { return VerdictSets{}; },
      [&](VerdictSets& acc, const auto& e) {
        acc[static_cast<std::size_t>(a.verdict(e.file()))].insert(
            e.machine().raw());
      },
      [](VerdictSets& total, VerdictSets&& shard) {
        for (std::size_t v = 0; v < model::kNumVerdicts; ++v)
          total[v].merge(shard[v]);
      },
      "analysis.machine_coverage");

  MachineCoverage out;
  out.active_machines = a.index.num_active_machines();
  for (std::size_t v = 0; v < model::kNumVerdicts; ++v)
    out.machines[v] = sets[v].size();
  return out;
}

}  // namespace longtail::analysis
