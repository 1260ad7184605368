// Asserts the seed-stability guarantee of the parallel execution layer:
// the full pipeline — corpus generation, §II labeling/annotation, and the
// §VI rule experiments — produces bit-identical output under
// LONGTAIL_THREADS = 1, 2, and 8.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/coverage.hpp"
#include "analysis/domains.hpp"
#include "analysis/malproc.hpp"
#include "analysis/monthly.hpp"
#include "analysis/packers.hpp"
#include "analysis/processes.hpp"
#include "analysis/signers.hpp"
#include "bench/table_render.hpp"
#include "core/pipeline.hpp"
#include "synth/dataset_io.hpp"
#include "telemetry/faults.hpp"
#include "telemetry/scan.hpp"
#include "util/hash.hpp"
#include "util/profile.hpp"
#include "util/thread_pool.hpp"

namespace longtail {
namespace {

constexpr double kScale = 0.02;

// Everything a run observes: the generated dataset fingerprint, Table I
// rows, and Table XVI/XVII numbers for one (train, test) window.
struct RunObservation {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> table1;
  std::uint64_t all_rules = 0;
  std::uint64_t selected = 0;
  std::uint64_t selected_benign = 0;
  std::uint64_t selected_malicious = 0;
  std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
  std::uint64_t rejected = 0, unmatched = 0;
  std::uint64_t fp_rules = 0;
  std::uint64_t exp_mal = 0, exp_ben = 0, exp_rejected = 0, exp_total = 0;

  bool operator==(const RunObservation&) const = default;
};

RunObservation observe(unsigned threads) {
  util::set_global_threads(threads);
  const auto pipeline = core::LongtailPipeline::generate(kScale);

  RunObservation obs;
  obs.fingerprint = core::dataset_fingerprint(pipeline.dataset());

  const auto summary = analysis::monthly_summary(pipeline.annotated());
  for (const auto& row : summary.months) {
    obs.table1.push_back(row.machines);
    obs.table1.push_back(row.events);
    obs.table1.push_back(row.processes);
    obs.table1.push_back(row.files);
    obs.table1.push_back(row.urls);
  }

  const auto exp = pipeline.run_rule_experiment(model::Month::kMarch,
                                                model::Month::kApril);
  obs.all_rules = exp.all_rules.size();
  const auto eval = core::LongtailPipeline::evaluate_tau(exp, 0.001);
  obs.selected = eval.selected.total;
  obs.selected_benign = eval.selected.benign_rules;
  obs.selected_malicious = eval.selected.malicious_rules;
  obs.tp = eval.eval.true_positives;
  obs.fp = eval.eval.false_positives;
  obs.fn = eval.eval.false_negatives;
  obs.tn = eval.eval.true_negatives;
  obs.rejected = eval.eval.rejected;
  obs.unmatched = eval.eval.unmatched;
  obs.fp_rules = eval.eval.fp_rules.size();
  obs.exp_mal = eval.expansion.labeled_malicious;
  obs.exp_ben = eval.expansion.labeled_benign;
  obs.exp_rejected = eval.expansion.rejected;
  obs.exp_total = eval.expansion.total_unknowns;
  return obs;
}

class PipelineDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_global_threads(util::ThreadPool::default_threads());
  }
};

TEST_F(PipelineDeterminismTest, IdenticalAcross1And2And8Threads) {
  const auto serial = observe(1);
  ASSERT_NE(serial.fingerprint, 0u);
  ASSERT_GT(serial.all_rules, 0u);

  const auto two = observe(2);
  EXPECT_EQ(two, serial) << "2-thread run diverged from serial";

  const auto eight = observe(8);
  EXPECT_EQ(eight, serial) << "8-thread run diverged from serial";
}

TEST_F(PipelineDeterminismTest, RerunIsIdentical) {
  // Same seed, same thread count, fresh pipeline objects: nothing in
  // the process (allocator addresses, pool scheduling, metric state)
  // may leak into the output.
  const auto first = observe(4);
  const auto second = observe(4);
  EXPECT_EQ(second, first) << "rerun diverged under identical settings";
}

TEST_F(PipelineDeterminismTest, FaultedPipelineIsThreadCountInvariant) {
  // The degraded-transport path exercises the same parallel resolution
  // phases plus the lossy delivery layer; it must be just as
  // thread-count-invariant as the clean path.
  auto profile = synth::paper_calibration(kScale);
  const auto moderate = telemetry::named_fault_profile("moderate");
  ASSERT_TRUE(moderate.has_value());
  profile.faults = *moderate;

  std::uint64_t baseline = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::set_global_threads(threads);
    const core::LongtailPipeline pipeline(profile);
    const auto fp = core::dataset_fingerprint(pipeline.dataset());
    ASSERT_NE(fp, 0u);
    if (baseline == 0)
      baseline = fp;
    else
      EXPECT_EQ(fp, baseline) << "threads=" << threads;
  }
}

TEST_F(PipelineDeterminismTest, ParallelExperimentFanOutMatchesSerialCalls) {
  util::set_global_threads(4);
  const auto pipeline = core::LongtailPipeline::generate(kScale);
  const std::vector<std::pair<model::Month, model::Month>> windows = {
      {model::Month::kJanuary, model::Month::kFebruary},
      {model::Month::kFebruary, model::Month::kMarch},
      {model::Month::kMarch, model::Month::kApril},
  };
  const auto fanout = pipeline.run_rule_experiments(windows);
  ASSERT_EQ(fanout.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto serial =
        pipeline.run_rule_experiment(windows[i].first, windows[i].second);
    EXPECT_EQ(fanout[i].train_month, windows[i].first);
    ASSERT_EQ(fanout[i].all_rules.size(), serial.all_rules.size()) << i;
    EXPECT_EQ(fanout[i].data.train.size(), serial.data.train.size()) << i;
    EXPECT_EQ(fanout[i].data.test.size(), serial.data.test.size()) << i;
    EXPECT_EQ(fanout[i].data.unknowns.size(), serial.data.unknowns.size())
        << i;
    for (std::size_t r = 0; r < serial.all_rules.size(); ++r) {
      EXPECT_EQ(fanout[i].all_rules[r].predict_malicious,
                serial.all_rules[r].predict_malicious);
      EXPECT_EQ(fanout[i].all_rules[r].conditions.size(),
                serial.all_rules[r].conditions.size());
    }
  }
}

TEST_F(PipelineDeterminismTest, ProfilingDoesNotPerturbOutput) {
  // The profiler reads clocks and /proc only; with it on, every observed
  // number must stay bit-identical to the unprofiled run at every
  // canonical thread count. (CI additionally diffs whole table stdout
  // with LONGTAIL_PROFILE=1 against the unprofiled reference.)
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::profile::set_enabled(false);
    const auto plain = observe(threads);
    util::profile::set_enabled(true);
    const auto profiled = observe(threads);
    util::profile::set_enabled(false);
    EXPECT_EQ(profiled, plain)
        << "LONGTAIL_PROFILE changed pipeline output at threads=" << threads;
  }
}

TEST_F(PipelineDeterminismTest, TauSweepMatchesPointEvaluations) {
  util::set_global_threads(4);
  const auto pipeline = core::LongtailPipeline::generate(kScale);
  const auto exp = pipeline.run_rule_experiment(model::Month::kMarch,
                                                model::Month::kApril);
  const std::vector<double> taus = {0.0, 0.001, 0.005, 0.01};
  const auto sweep = core::LongtailPipeline::evaluate_taus(exp, taus);
  ASSERT_EQ(sweep.size(), taus.size());
  for (std::size_t i = 0; i < taus.size(); ++i) {
    const auto point = core::LongtailPipeline::evaluate_tau(exp, taus[i]);
    EXPECT_EQ(sweep[i].selected.total, point.selected.total) << taus[i];
    EXPECT_EQ(sweep[i].eval.true_positives, point.eval.true_positives);
    EXPECT_EQ(sweep[i].eval.false_positives, point.eval.false_positives);
    EXPECT_EQ(sweep[i].expansion.labeled_malicious,
              point.expansion.labeled_malicious);
  }
}

// ---------------------------------------------------------------------
// Migration-equivalence gate. The four constants below were captured
// from the build immediately BEFORE the std::unordered_map ->
// util::FlatMap/FlatSet migration of the hot lookup paths (prevalence
// tracking, retransmit dedup, whitelist/reputation, interner, chain
// fixup): the scale-0.02 dataset fingerprint (clean and under
// LONGTAIL_FAULTS=moderate) and the FNV-1a hashes of the Table I /
// Table VI bodies (bench/table_render.hpp — the exact bytes
// table01_monthly / table06_signed print). Any container change that
// perturbs output — iteration order leaking into a result, a dropped or
// duplicated key — trips one of these pins. Update them only with a
// paired capture from the commit being replaced, never to "make the
// test pass".
constexpr std::uint64_t kPinnedCleanFingerprint = 0x6E0683FF56A1395CULL;
constexpr std::uint64_t kPinnedModerateFingerprint = 0x3C41B26DEE91C5E0ULL;
constexpr std::uint64_t kPinnedTable01BodyHash = 0x0841637FB99B63F5ULL;
constexpr std::uint64_t kPinnedTable06BodyHash = 0xD8804855D807AD04ULL;

void expect_pinned_tables(const core::LongtailPipeline& pipeline,
                          const char* which) {
  const std::string t01 =
      bench::render_table01(analysis::monthly_summary(pipeline.annotated()));
  const std::string t06 =
      bench::render_table06(analysis::signing_rates(pipeline.annotated()));
  EXPECT_EQ(util::fnv1a64(t01), kPinnedTable01BodyHash) << which;
  EXPECT_EQ(util::fnv1a64(t06), kPinnedTable06BodyHash) << which;
}

TEST_F(PipelineDeterminismTest, MigrationGateFreshRunMatchesPreMigration) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    util::set_global_threads(threads);
    const auto pipeline = core::LongtailPipeline::generate(kScale);
    EXPECT_EQ(core::dataset_fingerprint(pipeline.dataset()),
              kPinnedCleanFingerprint);
    expect_pinned_tables(pipeline, "fresh");
  }
}

TEST_F(PipelineDeterminismTest, MigrationGateCachedLoadsMatchPreMigration) {
  // The corpus-cache load paths re-annotate a deserialized dataset, so a
  // container regression on either the owned or the zero-copy mapped
  // path would surface here as a pin mismatch.
  util::set_global_threads(2);
  const std::string path =
      ::testing::TempDir() + "flat_table_migration_gate.ltds";
  {
    const auto pipeline = core::LongtailPipeline::generate(kScale);
    synth::save_dataset_binary(pipeline.dataset(), path);
  }
  {
    const core::LongtailPipeline owned(synth::load_dataset_binary(path));
    EXPECT_EQ(core::dataset_fingerprint(owned.dataset()),
              kPinnedCleanFingerprint);
    expect_pinned_tables(owned, "owned load");
  }
  {
    const core::LongtailPipeline mapped(synth::load_dataset_mapped(path));
    EXPECT_EQ(core::dataset_fingerprint(mapped.dataset()),
              kPinnedCleanFingerprint);
    expect_pinned_tables(mapped, "mapped load");
  }
  std::remove(path.c_str());
}

TEST_F(PipelineDeterminismTest, MigrationGateFaultedRunMatchesPreMigration) {
  // LONGTAIL_FAULTS=moderate exercises the hardened ingest (dedup set,
  // reorder buffer, prevalence tracker) far harder than the clean feed.
  auto profile = synth::paper_calibration(kScale);
  const auto moderate = telemetry::named_fault_profile("moderate");
  ASSERT_TRUE(moderate.has_value());
  profile.faults = *moderate;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    util::set_global_threads(threads);
    const core::LongtailPipeline pipeline(profile);
    EXPECT_EQ(core::dataset_fingerprint(pipeline.dataset()),
              kPinnedModerateFingerprint);
  }
}

// ---------------------------------------------------------------------
// Migration-equivalence gate for the distinct-count analyses. The
// constants below were captured from the build immediately BEFORE the
// std::unordered_set -> util::IdSet migration of src/analysis/: one
// digest per result struct of Tables III, IV, V, VII, VIII, X, XI, XII
// and XIV, the Fig. 3/6 Alexa distributions, machine coverage and the
// packer statistics, at scale 0.02 (two scan shards). The same rule as
// above applies: update them only with a paired capture from the commit
// being replaced, never to "make the test pass".
namespace digest {

using util::FnvMixer;

void mix(FnvMixer& m, std::uint64_t v) { m(v); }
void mix(FnvMixer& m, double v) { m(std::bit_cast<std::uint64_t>(v)); }
void mix(FnvMixer& m, std::string_view s) { m(util::fnv1a64(s)); }
template <typename A, typename B>
void mix(FnvMixer& m, const std::pair<A, B>& p);
template <typename T, std::size_t N>
void mix(FnvMixer& m, const std::array<T, N>& a);
template <typename T>
void mix(FnvMixer& m, const std::vector<T>& v);

void mix(FnvMixer& m, const util::EmpiricalCdf& c) {
  m(c.size());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
    mix(m, c.quantile(q));
}
void mix(FnvMixer& m, const analysis::DomainPopularity& d) {
  mix(m, d.overall);
  mix(m, d.benign);
  mix(m, d.malicious);
}
void mix(FnvMixer& m, const analysis::DomainFileCounts& d) {
  mix(m, d.benign);
  mix(m, d.malicious);
  m(d.overlap_in_top);
}
void mix(FnvMixer& m, const analysis::AlexaDistribution& d) {
  mix(m, d.ranks);
  mix(m, d.unranked_fraction);
  m(d.domains);
}
void mix(FnvMixer& m, const analysis::SignerOverlapRow& r) {
  m(r.signers);
  m(r.common_with_benign);
}
void mix(FnvMixer& m, const analysis::SignerOverlap& s) {
  mix(m, s.per_type);
  mix(m, s.total);
}
void mix(FnvMixer& m, const analysis::TopSigners::Row& r) {
  mix(m, r.top);
  mix(m, r.top_common);
  mix(m, r.top_exclusive);
}
void mix(FnvMixer& m, const analysis::TopSigners& s) {
  mix(m, s.per_type);
  mix(m, s.malicious_total);
  mix(m, s.top_benign_exclusive);
  mix(m, s.top_malicious_exclusive);
}
void mix(FnvMixer& m, const analysis::ProcessBehaviorRow& r) {
  for (const std::uint64_t v : {r.processes, r.machines, r.unknown_files,
                                r.benign_files, r.malicious_files})
    m(v);
  mix(m, r.infected_machines_pct);
  mix(m, r.type_pct);
}
void mix(FnvMixer& m, const analysis::MalProcBehavior& b) {
  mix(m, b.per_type);
  mix(m, b.overall);
}
void mix(FnvMixer& m, const analysis::UnknownDownloads& u) {
  mix(m, u.by_category);
  m(u.total);
}
void mix(FnvMixer& m, const analysis::MachineCoverage& c) {
  mix(m, c.machines);
  m(c.active_machines);
}
void mix(FnvMixer& m, const analysis::PackerStats& p) {
  mix(m, p.benign_packed_pct);
  mix(m, p.malicious_packed_pct);
  mix(m, p.unknown_packed_pct);
  m(p.distinct_packers);
  m(p.shared_packers);
  mix(m, p.shared_examples);
  mix(m, p.malicious_only_examples);
  mix(m, p.benign_only_examples);
}
template <typename A, typename B>
void mix(FnvMixer& m, const std::pair<A, B>& p) {
  mix(m, p.first);
  mix(m, p.second);
}
template <typename T, std::size_t N>
void mix(FnvMixer& m, const std::array<T, N>& a) {
  for (const auto& x : a) mix(m, x);
}
template <typename T>
void mix(FnvMixer& m, const std::vector<T>& v) {
  m(v.size());
  for (const auto& x : v) mix(m, x);
}

template <typename T>
std::uint64_t of(const T& result) {
  FnvMixer m;
  mix(m, result);
  return m.value();
}

}  // namespace digest

struct PinnedAnalysis {
  const char* name;
  std::uint64_t digest;
};

constexpr std::array<PinnedAnalysis, 14> kPinnedAnalyses = {{
    {"table03_domain_popularity", 0x5179EFD100D3092AULL},
    {"table04_files_per_domain", 0x7BAB8183A8A0D633ULL},
    {"table05_domains_per_type", 0x2A17F29F44AC4220ULL},
    {"table07_signer_overlap", 0x714A972AA083834CULL},
    {"table08_top_signers", 0x8FAA1E711F408822ULL},
    {"table10_benign_process_behavior", 0x6FE301C3EBF4579BULL},
    {"table11_browser_behavior", 0x49433F4C05484F39ULL},
    {"table12_malicious_process_behavior", 0x42609B1FDC1784E2ULL},
    {"table14_unknown_downloads_by_category", 0xD0BC18437FE71C83ULL},
    {"alexa_benign", 0x80F64F4B03CB4BFBULL},
    {"alexa_malicious", 0xB5D2E15C4CBC7325ULL},
    {"alexa_unknown", 0xFD5AB424FC9C79ACULL},
    {"machine_coverage", 0xE30E5B88E1B11356ULL},
    {"packer_stats", 0x7E36309290DC7152ULL},
}};

std::array<std::uint64_t, kPinnedAnalyses.size()> analysis_digests(
    const analysis::AnnotatedCorpus& a) {
  using model::Verdict;
  return {
      digest::of(analysis::domain_popularity(a)),
      digest::of(analysis::files_per_domain(a)),
      digest::of(analysis::domains_per_type(a)),
      digest::of(analysis::signer_overlap(a)),
      digest::of(analysis::top_signers(a)),
      digest::of(analysis::benign_process_behavior(a)),
      digest::of(analysis::browser_behavior(a)),
      digest::of(analysis::malicious_process_behavior(a)),
      digest::of(analysis::unknown_downloads_by_category(a)),
      digest::of(analysis::alexa_of_domains_hosting(a, Verdict::kBenign)),
      digest::of(analysis::alexa_of_domains_hosting(a, Verdict::kMalicious)),
      digest::of(analysis::alexa_of_domains_hosting(a, Verdict::kUnknown)),
      digest::of(analysis::machine_coverage(a)),
      digest::of(analysis::packer_stats(a)),
  };
}

TEST_F(PipelineDeterminismTest, MigrationGateAnalysesMatchPreMigration) {
  const auto pipeline = core::LongtailPipeline::generate(kScale);
  const auto& events = pipeline.dataset().corpus.events;
  ASSERT_EQ(telemetry::scan_shard_count(events.size()), 2u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    util::set_global_threads(threads);
    const auto digests = analysis_digests(pipeline.annotated());
    for (std::size_t i = 0; i < kPinnedAnalyses.size(); ++i) {
      char actual[32];
      std::snprintf(actual, sizeof(actual), "0x%016llX",
                    static_cast<unsigned long long>(digests[i]));
      EXPECT_EQ(digests[i], kPinnedAnalyses[i].digest)
          << kPinnedAnalyses[i].name << " digest " << actual;
    }
  }
}

}  // namespace
}  // namespace longtail
