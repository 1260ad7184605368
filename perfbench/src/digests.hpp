// Digests of the library's outputs, so every timed operation can be
// checked against a reference run, and the table analyses the table and
// figure binaries call, run as timed calls into the analysis layer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/annotated.hpp"
#include "analysis/coverage.hpp"
#include "analysis/monthly.hpp"
#include "analysis/prevalence.hpp"
#include "analysis/signers.hpp"
#include "core/pipeline.hpp"
#include "deploy/online.hpp"
#include "recorder.hpp"
#include "rules/rule.hpp"

namespace perfbench {

// Runs every §IV/§V analysis that the table and figure binaries call
// (Tables I-XIV, the packer and coverage headlines, Figs. 1-6), each
// timed as a call into its analysis.* layer, and returns the digest of
// all their results.
std::uint64_t run_table_analyses(const longtail::analysis::AnnotatedCorpus& a,
                                 Recorder& rec);

// PART output of one window, in rule order.
std::uint64_t rules_digest(std::span<const longtail::rules::Rule> rules);

// One tau evaluation: selected-rule counts, test scores, expansion.
std::uint64_t tau_digest(const longtail::core::TauEvaluation& t);

// Rules of every experiment plus every tau evaluation (Tables XVI-XVII).
std::uint64_t eval_digest(
    std::span<const longtail::core::RuleExperiment> experiments,
    std::span<const std::vector<longtail::core::TauEvaluation>> evals);

// The four streaming snapshots (Table I, Fig. 2, Table VI, coverage).
std::uint64_t snapshot_digest(
    const longtail::analysis::MonthlySummary& monthly,
    const longtail::analysis::PrevalenceDistributions& prevalence,
    const longtail::analysis::SigningRates& signing,
    const longtail::analysis::MachineCoverage& coverage);

// Freshness accounting and per-month deployment results of a finished
// serving loop.
std::uint64_t freshness_digest(const longtail::deploy::OnlineLabeler& labeler);

// Mixes `v` into a running digest.
std::uint64_t chain(std::uint64_t digest, std::uint64_t v);

}  // namespace perfbench
