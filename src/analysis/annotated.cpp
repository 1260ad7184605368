#include "analysis/annotated.hpp"

#include "avclass/avclass.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace longtail::analysis {

namespace {

// Per-file annotation computed independently in parallel; the shared
// side effects (type stats, family interning) are applied serially in
// file order afterwards, so the result is identical for any thread count.
struct FileAnnotation {
  avtype::TypeResult type;
  avclass::FamilyResult family;
  bool annotated = false;
};

}  // namespace

AnnotatedCorpus::AnnotatedCorpus(const telemetry::Corpus& c)
    : corpus(&c), index(c) {
  std::vector<NameCategory> by_name(c.process_names.size());
  for (std::uint32_t n = 0; n < by_name.size(); ++n)
    by_name[n] = categorize_by_name(c.process_names.at(n));
  process_categories.reserve(c.processes.size());
  for (const auto& p : c.processes)
    process_categories.push_back(by_name[p.name]);
}

AnnotatedCorpus annotate(const telemetry::Corpus& corpus,
                         const groundtruth::Whitelist& whitelist,
                         const groundtruth::VtDatabase& vt,
                         avtype::ManualOracle oracle) {
  LONGTAIL_TRACE_SPAN("analysis.annotate");
  LONGTAIL_METRIC_TIMER("analysis.annotate_ms");
  AnnotatedCorpus a(corpus);

  const groundtruth::Labeler labeler;
  a.labels = labeler.label_all(corpus.files.size(), corpus.processes.size(),
                               whitelist, vt);

  const avtype::TypeExtractor type_extractor(std::move(oracle));
  const avclass::FamilyExtractor family_extractor;

  a.file_types.assign(corpus.files.size(), model::MalwareType::kUndefined);
  a.file_families.assign(corpus.files.size(), AnnotatedCorpus::kNoFamily);
  const auto annotations = util::parallel_map(
      corpus.files.size(),
      [&](std::size_t f) {
        FileAnnotation out;
        if (a.labels.file_verdicts[f] != model::Verdict::kMalicious)
          return out;
        const auto id = model::FileId{static_cast<std::uint32_t>(f)};
        const auto& report = vt.query(id);
        if (!report.has_value()) return out;
        out.type = type_extractor.derive(*report);
        out.family = family_extractor.derive(*report);
        out.annotated = true;
        return out;
      },
      /*grain=*/256);
  for (std::uint32_t f = 0; f < corpus.files.size(); ++f) {
    const auto& ann = annotations[f];
    if (!ann.annotated) continue;
    LONGTAIL_METRIC_COUNT("analysis.files_annotated", 1);
    a.file_types[f] = ann.type.type;
    a.file_type_stats.record(ann.type.resolution);
    if (ann.family.resolved())
      a.file_families[f] = a.derived_families.intern(ann.family.family);
  }

  a.process_types.assign(corpus.processes.size(),
                         model::MalwareType::kUndefined);
  util::parallel_for(
      corpus.processes.size(),
      [&](std::size_t p) {
        if (a.labels.process_verdicts[p] != model::Verdict::kMalicious) return;
        const auto& report =
            vt.query(model::ProcessId{static_cast<std::uint32_t>(p)});
        if (!report.has_value()) return;
        a.process_types[p] = type_extractor.derive(*report).type;
      },
      /*grain=*/256);

  const groundtruth::UrlLabeler url_labeler;
  a.url_verdicts = url_labeler.label_all(corpus.urls, corpus.domains);

  return a;
}

}  // namespace longtail::analysis
