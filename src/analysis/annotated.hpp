// AnnotatedCorpus: the corpus plus everything the measurement study
// derives from observable evidence — verdicts (§II-B), behaviour types
// (§II-C via AVType), families (AVclass), and URL verdicts. All analysis
// modules and the rule learner consume this view; none of them can see the
// generator's hidden truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/procname.hpp"
#include "avtype/avtype.hpp"
#include "groundtruth/labeler.hpp"
#include "groundtruth/urllabel.hpp"
#include "groundtruth/vt.hpp"
#include "groundtruth/whitelist.hpp"
#include "model/labels.hpp"
#include "telemetry/corpus.hpp"
#include "telemetry/index.hpp"
#include "util/interner.hpp"

namespace longtail::analysis {

struct AnnotatedCorpus {
  const telemetry::Corpus* corpus = nullptr;
  telemetry::CorpusIndex index;
  groundtruth::LabelSet labels;

  // Behaviour type per file/process; meaningful only where the verdict is
  // malicious (kUndefined otherwise).
  std::vector<model::MalwareType> file_types;
  std::vector<model::MalwareType> process_types;
  avtype::TypeStats file_type_stats;

  // AVclass-derived family per file; kNoFamily when unresolved.
  static constexpr std::uint32_t kNoFamily = ~0u;
  util::StringInterner derived_families;
  std::vector<std::uint32_t> file_families;

  std::vector<groundtruth::UrlVerdict> url_verdicts;

  // §V-A name category of every process, resolved once per distinct
  // executable name when the view is built (analysis/procname.hpp).
  std::vector<NameCategory> process_categories;

  explicit AnnotatedCorpus(const telemetry::Corpus& c);

  [[nodiscard]] model::Verdict verdict(model::FileId f) const {
    return labels.file_verdicts[f.raw()];
  }
  [[nodiscard]] model::Verdict verdict(model::ProcessId p) const {
    return labels.process_verdicts[p.raw()];
  }
  [[nodiscard]] model::MalwareType type_of(model::FileId f) const {
    return file_types[f.raw()];
  }
  [[nodiscard]] model::MalwareType type_of(model::ProcessId p) const {
    return process_types[p.raw()];
  }
  [[nodiscard]] NameCategory category(model::ProcessId p) const {
    return process_categories[p.raw()];
  }
  [[nodiscard]] bool is_malicious(model::FileId f) const {
    return verdict(f) == model::Verdict::kMalicious;
  }
  [[nodiscard]] bool is_benign(model::FileId f) const {
    return verdict(f) == model::Verdict::kBenign;
  }
  [[nodiscard]] bool is_unknown(model::FileId f) const {
    return verdict(f) == model::Verdict::kUnknown;
  }
};

// Runs the full §II labeling pipeline over a corpus. The optional
// `oracle` resolves the rare unresolvable type ties (the paper's 5%
// "manual analysis"); pass nullptr to fall back to a deterministic pick.
AnnotatedCorpus annotate(const telemetry::Corpus& corpus,
                         const groundtruth::Whitelist& whitelist,
                         const groundtruth::VtDatabase& vt,
                         avtype::ManualOracle oracle = nullptr);

}  // namespace longtail::analysis
