#include "digests.hpp"

#include <bit>
#include <string_view>
#include <utility>

#include "analysis/domains.hpp"
#include "analysis/malproc.hpp"
#include "analysis/packers.hpp"
#include "analysis/processes.hpp"
#include "analysis/transitions.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace la = longtail::analysis;
using longtail::util::FnvMixer;

namespace {

// Overloads that fold each result type into one mixer.
void mix(FnvMixer& m, std::uint64_t v) { m(v); }
void mix(FnvMixer& m, double v) { m(std::bit_cast<std::uint64_t>(v)); }
void mix(FnvMixer& m, std::string_view s) { m(longtail::util::fnv1a64(s)); }
template <typename A, typename B>
void mix(FnvMixer& m, const std::pair<A, B>& p);
template <typename T, std::size_t N>
void mix(FnvMixer& m, const std::array<T, N>& a);
template <typename T>
void mix(FnvMixer& m, const std::vector<T>& v);

void mix(FnvMixer& m, const longtail::util::EmpiricalCdf& c) {
  m(c.size());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
    mix(m, c.quantile(q));
}

void mix(FnvMixer& m, const la::MonthlyRow& r) {
  for (const std::uint64_t v : {r.machines, r.events, r.processes, r.files,
                                r.urls})
    m(v);
  for (const double v :
       {r.proc_benign, r.proc_likely_benign, r.proc_malicious,
        r.proc_likely_malicious, r.file_benign, r.file_likely_benign,
        r.file_malicious, r.file_likely_malicious, r.url_benign,
        r.url_malicious})
    mix(m, v);
}

void mix(FnvMixer& m, const la::MonthlySummary& s) {
  mix(m, s.months);
  mix(m, s.overall);
}

void mix(FnvMixer& m, const la::SignedRateRow& r) {
  m(r.files);
  mix(m, r.signed_pct);
  m(r.browser_files);
  mix(m, r.browser_signed_pct);
}

void mix(FnvMixer& m, const la::SigningRates& s) {
  mix(m, s.per_type);
  mix(m, s.benign);
  mix(m, s.unknown);
  mix(m, s.malicious);
}

void mix(FnvMixer& m, const la::SignerOverlapRow& r) {
  m(r.signers);
  m(r.common_with_benign);
}

void mix(FnvMixer& m, const la::SignerOverlap& s) {
  mix(m, s.per_type);
  mix(m, s.total);
}

void mix(FnvMixer& m, const la::TopSigners::Row& r) {
  mix(m, r.top);
  mix(m, r.top_common);
  mix(m, r.top_exclusive);
}

void mix(FnvMixer& m, const la::TopSigners& s) {
  mix(m, s.per_type);
  mix(m, s.malicious_total);
  mix(m, s.top_benign_exclusive);
  mix(m, s.top_malicious_exclusive);
}

void mix(FnvMixer& m, const la::CommonSignerPoint& p) {
  mix(m, p.signer);
  m(p.benign_files);
  m(p.malicious_files);
}

void mix(FnvMixer& m, const la::PrevalenceDistributions& p) {
  mix(m, p.all);
  mix(m, p.benign);
  mix(m, p.malicious);
  mix(m, p.unknown);
  mix(m, p.prevalence_one_fraction);
  mix(m, p.at_cap_fraction);
}

void mix(FnvMixer& m, const la::FamilyDistribution& f) {
  for (const auto& [name, n] : f.top) {
    mix(m, std::string_view(name));
    m(n);
  }
  m(f.total_malicious);
  m(f.with_family);
  m(f.distinct_families);
}

void mix(FnvMixer& m, const la::DomainPopularity& d) {
  mix(m, d.overall);
  mix(m, d.benign);
  mix(m, d.malicious);
}

void mix(FnvMixer& m, const la::DomainFileCounts& d) {
  mix(m, d.benign);
  mix(m, d.malicious);
  m(d.overlap_in_top);
}

void mix(FnvMixer& m, const la::AlexaDistribution& d) {
  mix(m, d.ranks);
  mix(m, d.unranked_fraction);
  m(d.domains);
}

void mix(FnvMixer& m, const la::TransitionCurve& c) {
  mix(m, c.cdf_by_day);
  m(c.initiator_machines);
  m(c.transitioned);
}

void mix(FnvMixer& m, const la::TransitionAnalysis& t) {
  mix(m, t.benign);
  mix(m, t.adware);
  mix(m, t.pup);
  mix(m, t.dropper);
}

void mix(FnvMixer& m, const la::ProcessBehaviorRow& r) {
  for (const std::uint64_t v : {r.processes, r.machines, r.unknown_files,
                                r.benign_files, r.malicious_files})
    m(v);
  mix(m, r.infected_machines_pct);
  mix(m, r.type_pct);
}

void mix(FnvMixer& m, const la::MalProcBehavior& b) {
  mix(m, b.per_type);
  mix(m, b.overall);
}

void mix(FnvMixer& m, const la::UnknownDownloads& u) {
  mix(m, u.by_category);
  m(u.total);
}

void mix(FnvMixer& m, const la::PackerStats& p) {
  mix(m, p.benign_packed_pct);
  mix(m, p.malicious_packed_pct);
  mix(m, p.unknown_packed_pct);
  m(p.distinct_packers);
  m(p.shared_packers);
  mix(m, p.shared_examples);
  mix(m, p.malicious_only_examples);
  mix(m, p.benign_only_examples);
}

void mix(FnvMixer& m, const la::MachineCoverage& c) {
  mix(m, c.machines);
  m(c.active_machines);
}

void mix(FnvMixer& m, const longtail::rules::Rule& r) {
  m(r.conditions.size());
  for (const auto& c : r.conditions) {
    m(static_cast<std::uint64_t>(c.feature));
    m(c.value);
  }
  m(r.predict_malicious ? 1 : 0);
  m(r.coverage);
  m(r.errors);
}

void mix(FnvMixer& m, const longtail::core::TauEvaluation& t) {
  mix(m, t.tau);
  m(t.selected.total);
  m(t.selected.benign_rules);
  m(t.selected.malicious_rules);
  const auto& e = t.eval;
  for (const std::uint64_t v :
       {e.matched_malicious, e.matched_benign, e.rejected, e.unmatched,
        e.true_positives, e.false_negatives, e.false_positives,
        e.true_negatives})
    m(v);
  for (const std::uint32_t r : e.fp_rules) m(r);
  const auto& x = t.expansion;
  for (const std::uint64_t v : {x.total_unknowns, x.labeled_malicious,
                                x.labeled_benign, x.rejected})
    m(v);
}

void mix(FnvMixer& m, const longtail::deploy::MonthlyDeployStats& s) {
  for (const std::uint64_t v :
       {s.events, s.decided_malicious, s.decided_benign, s.rejected,
        s.unmatched, s.true_positives, s.false_positives,
        s.final_malicious_decided, s.final_benign_decided})
    m(v);
  m(s.rules_active);
  m(s.training_instances);
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

// Times `f` as a call into `layer` and folds its result into `m`.
template <typename F>
void timed(FnvMixer& m, Recorder& rec, const char* layer, F&& f) {
  mix(m, rec.call(layer, std::forward<F>(f)));
}

}  // namespace

std::uint64_t run_table_analyses(const la::AnnotatedCorpus& a,
                                 Recorder& rec) {
  FnvMixer m;
  using V = longtail::model::Verdict;
  timed(m, rec, "analysis.monthly", [&] { return la::monthly_summary(a); });
  timed(m, rec, "analysis.prevalence", [&] { return la::type_breakdown(a); });
  timed(m, rec, "analysis.domains", [&] { return la::domain_popularity(a); });
  timed(m, rec, "analysis.domains", [&] { return la::files_per_domain(a); });
  timed(m, rec, "analysis.domains", [&] { return la::domains_per_type(a); });
  timed(m, rec, "analysis.signers", [&] { return la::signing_rates(a); });
  timed(m, rec, "analysis.signers", [&] { return la::signer_overlap(a); });
  timed(m, rec, "analysis.signers", [&] { return la::top_signers(a); });
  timed(m, rec, "analysis.processes",
        [&] { return la::benign_process_behavior(a); });
  timed(m, rec, "analysis.processes", [&] { return la::browser_behavior(a); });
  timed(m, rec, "analysis.malproc",
        [&] { return la::malicious_process_behavior(a); });
  timed(m, rec, "analysis.domains", [&] { return la::top_unknown_domains(a); });
  timed(m, rec, "analysis.processes",
        [&] { return la::unknown_downloads_by_category(a); });
  timed(m, rec, "analysis.prevalence",
        [&] { return la::family_distribution(a); });
  timed(m, rec, "analysis.prevalence",
        [&] { return la::prevalence_distributions(a); });
  timed(m, rec, "analysis.prevalence",
        [&] { return la::prevalence_by_type(a); });
  for (const V v : {V::kBenign, V::kMalicious, V::kUnknown})
    timed(m, rec, "analysis.domains",
          [&] { return la::alexa_of_domains_hosting(a, v); });
  timed(m, rec, "analysis.signers", [&] { return la::common_signers(a); });
  timed(m, rec, "analysis.transitions",
        [&] { return la::transition_analysis(a); });
  timed(m, rec, "analysis.packers", [&] { return la::packer_stats(a); });
  timed(m, rec, "analysis.coverage", [&] { return la::machine_coverage(a); });
  return m.value();
}

std::uint64_t rules_digest(std::span<const longtail::rules::Rule> rules) {
  FnvMixer m;
  m(rules.size());
  for (const auto& r : rules) mix(m, r);
  return m.value();
}

std::uint64_t tau_digest(const longtail::core::TauEvaluation& t) {
  FnvMixer m;
  mix(m, t);
  return m.value();
}

std::uint64_t eval_digest(
    std::span<const longtail::core::RuleExperiment> experiments,
    std::span<const std::vector<longtail::core::TauEvaluation>> evals) {
  FnvMixer m;
  for (const auto& e : experiments) m(rules_digest(e.all_rules));
  for (const auto& per_tau : evals) mix(m, per_tau);
  return m.value();
}

std::uint64_t snapshot_digest(const la::MonthlySummary& monthly,
                              const la::PrevalenceDistributions& prevalence,
                              const la::SigningRates& signing,
                              const la::MachineCoverage& coverage) {
  FnvMixer m;
  mix(m, monthly);
  mix(m, prevalence);
  mix(m, signing);
  mix(m, coverage);
  return m.value();
}

std::uint64_t freshness_digest(const longtail::deploy::OnlineLabeler& l) {
  FnvMixer m;
  const auto& f = l.freshness();
  m(f.files_reported);
  m(f.files_labeled);
  m(f.files_pending);
  for (const double v : {f.p50_s, f.p90_s, f.p99_s, f.max_s, f.mean_s})
    mix(m, v);
  mix(m, l.monthly());
  m(l.events_served());
  return m.value();
}

std::uint64_t chain(std::uint64_t digest, std::uint64_t v) {
  FnvMixer m;
  m(digest);
  m(v);
  return m.value();
}

}  // namespace perfbench
