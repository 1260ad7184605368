// reproduce: the full batch reproduction at scale 0.05 — generate, annotate,
// the table analyses, six consecutive-month rule experiments and the tau
// sweep. The only workload where generation, feature building, PART and
// the experiment fan-out carry the work.
#include <memory>
#include <utility>

#include "core/pipeline.hpp"
#include "digests.hpp"
#include "rules/classifier.hpp"
#include "rules/evaluation.hpp"
#include "synth/calibration.hpp"
#include "workload.hpp"

namespace perfbench {

namespace lt = longtail;

namespace {

constexpr double kScale = 0.05;
constexpr double kTaus[] = {0.0, 0.001};

// Reference digests for kDefaultSeed.
const Digests kPinned = {
    {"analysis_checksum", 0x7d9aabeebabf5ed7},
    {"dataset_fingerprint", 0x4f1ded07bf67bad9},
    {"eval_checksum", 0xd7cdc0476fec91e9},
};

std::vector<std::pair<lt::model::Month, lt::model::Month>> month_pairs() {
  std::vector<std::pair<lt::model::Month, lt::model::Month>> out;
  for (std::size_t m = 0; m + 1 < lt::model::kNumCollectionMonths; ++m)
    out.emplace_back(static_cast<lt::model::Month>(m),
                     static_cast<lt::model::Month>(m + 1));
  return out;
}

struct Pass {
  double seconds = 0;
  std::unique_ptr<lt::core::LongtailPipeline> pipeline;
  std::vector<lt::core::RuleExperiment> experiments;
  std::vector<std::vector<lt::core::TauEvaluation>> evals;
  Digests digests;
};

// One timed pass; the digests are taken after the clock stops.
Pass run_pass(const lt::synth::CalibrationProfile& profile, Recorder& rec) {
  Pass p;
  const auto windows = month_pairs();
  std::uint64_t tables = 0;
  p.seconds = time_s([&] {
    auto ds = rec.call("synth.generate",
                       [&] { return lt::synth::generate_dataset(profile); });
    p.pipeline = rec.call("analysis.annotate", [&] {
      return std::make_unique<lt::core::LongtailPipeline>(std::move(ds));
    });
    tables = run_table_analyses(p.pipeline->annotated(), rec);
    p.experiments = rec.call("core.rule_experiments", [&] {
      return p.pipeline->run_rule_experiments(windows);
    });
    for (const auto& e : p.experiments)
      p.evals.push_back(rec.call("core.evaluate_taus", [&] {
        return lt::core::LongtailPipeline::evaluate_taus(e, kTaus);
      }));
  });
  p.digests = {
      {"analysis_checksum", tables},
      {"dataset_fingerprint",
       lt::core::dataset_fingerprint(p.pipeline->dataset())},
      {"eval_checksum", eval_digest(p.experiments, p.evals)},
  };
  return p;
}

// Traced run only: redoes each experiment one layer at a time —
// features::build_window_dataset, then PartLearner::learn, then
// evaluate + expand_unknowns per tau — and checks that every result
// matches what the pipeline's fan-out produced. Adds the decided and
// matched classifications to the running totals.
bool run_layers(const Pass& p, Recorder& rec, double& decided,
                double& matched) {
  bool ok = true;
  double instances = 0, learned_rules = 0;
  for (std::size_t i = 0; i < p.experiments.size(); ++i) {
    const auto& e = p.experiments[i];
    lt::features::FeatureSpace space;
    const auto data = rec.call("features.build_window", [&] {
      return lt::features::build_window_dataset(
          p.pipeline->annotated(), space, e.train_month, e.test_month);
    });
    instances += static_cast<double>(data.train.size() + data.test.size() +
                                     data.unknowns.size());
    const auto learned = rec.call("rules.part_learn", [&] {
      return lt::rules::PartLearner().learn(data.train);
    });
    ok = ok && rules_digest(learned) == rules_digest(e.all_rules);
    learned_rules += static_cast<double>(learned.size());
    for (std::size_t t = 0; t < std::size(kTaus); ++t) {
      lt::core::TauEvaluation te;
      te.tau = kTaus[t];
      auto selected = lt::rules::select_rules(learned, te.tau);
      te.selected = lt::rules::rule_set_stats(selected);
      const lt::rules::RuleClassifier classifier(std::move(selected));
      rec.call("rules.classify", [&] {
        te.eval = lt::rules::evaluate(classifier, data.test);
        te.expansion = lt::rules::expand_unknowns(classifier, data.unknowns);
      });
      ok = ok && tau_digest(te) == tau_digest(p.evals[i][t]);
      const double d = static_cast<double>(
          te.eval.matched_malicious + te.eval.matched_benign +
          te.expansion.matched());
      decided += d;
      matched += d + static_cast<double>(te.eval.rejected +
                                         te.expansion.rejected);
    }
  }
  rec.add("features.instances", instances);
  rec.add("rules.rules_learned", learned_rules);
  return ok;
}

}  // namespace

Outcome run_reproduce(const Options& opt) {
  Outcome out;
  auto profile = lt::synth::paper_calibration(kScale);
  profile.seed = opt.seed;

  // Set-up generates the reference corpus whose fingerprint every pass
  // must reproduce; it is repeated so its time is a median.
  use_threads(opt.threads);
  std::vector<double> setup_s;
  std::uint64_t fingerprint = 0;
  for (int i = 0; i < 5; ++i) {
    lt::synth::Dataset ds;
    setup_s.push_back(
        time_s([&] { ds = lt::synth::generate_dataset(profile); }));
    const auto fp = lt::core::dataset_fingerprint(ds);
    if (i > 0) out.ledger.record(fp == fingerprint);
    fingerprint = fp;
  }

  Recorder warmup(false);
  const Digests reference = run_pass(profile, warmup).digests;
  out.ledger.record(reference.at("dataset_fingerprint") == fingerprint);
  check_pinned(opt, out.ledger, kPinned, reference);

  double decided = 0, matched = 0;
  run_batch_loop(
      opt, out, reference, setup_s,
      [&](Recorder& rec) { return run_pass(profile, rec); },
      [&](const Pass& t, Recorder& rec) {
        out.ledger.record(run_layers(t, rec, decided, matched));
      });
  if (opt.trace)
    out.metrics["rules.decided_ratio"] = matched > 0 ? decided / matched : 0;
  return out;
}

}  // namespace perfbench
