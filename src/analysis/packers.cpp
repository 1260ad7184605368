#include "analysis/packers.hpp"

#include <unordered_set>

#include "util/stats.hpp"

namespace longtail::analysis {

PackerStats packer_stats(const AnnotatedCorpus& a, std::size_t max_examples) {
  PackerStats out;
  std::uint64_t b = 0, b_packed = 0, m = 0, m_packed = 0, u = 0, u_packed = 0;
  // The example lists below come out in these sets' iteration order,
  // which the table_packers stdout and the pinned perfbench `tables`
  // digest fix; util::IdSet would list them by ascending id instead.
  std::unordered_set<std::uint32_t> benign_packers, malicious_packers;

  for (const auto f : a.index.observed_files()) {
    const auto& meta = a.corpus->files[f.raw()];
    switch (a.verdict(f)) {
      case model::Verdict::kBenign:
        ++b;
        if (meta.is_packed) {
          ++b_packed;
          benign_packers.insert(meta.packer.raw());
        }
        break;
      case model::Verdict::kMalicious:
        ++m;
        if (meta.is_packed) {
          ++m_packed;
          malicious_packers.insert(meta.packer.raw());
        }
        break;
      case model::Verdict::kUnknown:
        ++u;
        if (meta.is_packed) ++u_packed;
        break;
      default:
        break;
    }
  }
  out.benign_packed_pct = util::percent(b_packed, b);
  out.malicious_packed_pct = util::percent(m_packed, m);
  out.unknown_packed_pct = util::percent(u_packed, u);

  std::unordered_set<std::uint32_t> all = benign_packers;
  all.insert(malicious_packers.begin(), malicious_packers.end());
  out.distinct_packers = all.size();
  for (const auto p : all) {
    const bool in_b = benign_packers.contains(p);
    const bool in_m = malicious_packers.contains(p);
    const auto name = a.corpus->packer_names.at(p);
    if (in_b && in_m) {
      ++out.shared_packers;
      if (out.shared_examples.size() < max_examples)
        out.shared_examples.push_back(name);
    } else if (in_m) {
      if (out.malicious_only_examples.size() < max_examples)
        out.malicious_only_examples.push_back(name);
    } else if (out.benign_only_examples.size() < max_examples) {
      out.benign_only_examples.push_back(name);
    }
  }
  return out;
}

}  // namespace longtail::analysis
