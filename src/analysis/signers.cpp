#include "analysis/signers.hpp"

#include "telemetry/scan.hpp"
#include "util/id_set.hpp"
#include "util/stats.hpp"

namespace longtail::analysis {

namespace {

using model::ProcessCategory;
using model::Verdict;

// Files with at least one browser-initiated download event.
std::vector<bool> browser_downloaded(const AnnotatedCorpus& a) {
  return telemetry::scan_reduce(
      *a.corpus,
      [&] { return std::vector<bool>(a.corpus->files.size(), false); },
      [&](std::vector<bool>& acc, const auto& e) {
        if (a.corpus->processes[e.process().raw()].category ==
            ProcessCategory::kBrowser)
          acc[e.file().raw()] = true;
      },
      [](std::vector<bool>& total, std::vector<bool>&& shard) {
        for (std::size_t f = 0; f < shard.size(); ++f)
          if (shard[f]) total[f] = true;
      },
      "analysis.browser_downloaded");
}

void accumulate(SignedRateRow& row, bool is_signed, bool via_browser,
                std::uint64_t& signed_total, std::uint64_t& browser_signed) {
  ++row.files;
  if (is_signed) ++signed_total;
  if (via_browser) {
    ++row.browser_files;
    if (is_signed) ++browser_signed;
  }
}

}  // namespace

namespace detail {

void signing_fold(SigningAcc& s, const AnnotatedCorpus& a, model::FileId f,
                  bool via_browser) {
  const auto& meta = a.corpus->files[f.raw()];
  switch (a.verdict(f)) {
    case Verdict::kBenign:
      accumulate(s.rates.benign, meta.is_signed, via_browser, s.b_signed,
                 s.b_browser_signed);
      break;
    case Verdict::kUnknown:
      accumulate(s.rates.unknown, meta.is_signed, via_browser, s.u_signed,
                 s.u_browser_signed);
      break;
    case Verdict::kMalicious: {
      const auto t = static_cast<std::size_t>(a.type_of(f));
      accumulate(s.rates.per_type[t], meta.is_signed, via_browser,
                 s.type_signed[t], s.type_browser_signed[t]);
      accumulate(s.rates.malicious, meta.is_signed, via_browser, s.m_signed,
                 s.m_browser_signed);
      break;
    }
    default:
      break;
  }
}

SigningRates signing_finish(SigningAcc&& acc) {
  SigningRates out = std::move(acc.rates);
  auto finish = [](SignedRateRow& row, std::uint64_t signed_total,
                   std::uint64_t browser_signed) {
    row.signed_pct = util::percent(signed_total, row.files);
    row.browser_signed_pct = util::percent(browser_signed, row.browser_files);
  };
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    finish(out.per_type[t], acc.type_signed[t], acc.type_browser_signed[t]);
  finish(out.benign, acc.b_signed, acc.b_browser_signed);
  finish(out.unknown, acc.u_signed, acc.u_browser_signed);
  finish(out.malicious, acc.m_signed, acc.m_browser_signed);
  return out;
}

}  // namespace detail

SigningRates signing_rates(const AnnotatedCorpus& a) {
  using detail::SigningAcc;
  const auto via_browser = browser_downloaded(a);

  const auto& observed = a.index.observed_files();
  SigningAcc acc = telemetry::scan_reduce_indexed(
      observed.size(), [] { return SigningAcc{}; },
      [&](SigningAcc& s, std::size_t i) {
        const auto f = observed[i];
        detail::signing_fold(s, a, f, via_browser[f.raw()]);
      },
      [](SigningAcc& total, SigningAcc&& shard) {
        auto add_row = [](SignedRateRow& row, const SignedRateRow& o) {
          row.files += o.files;
          row.browser_files += o.browser_files;
        };
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
          add_row(total.rates.per_type[t], shard.rates.per_type[t]);
          total.type_signed[t] += shard.type_signed[t];
          total.type_browser_signed[t] += shard.type_browser_signed[t];
        }
        add_row(total.rates.benign, shard.rates.benign);
        add_row(total.rates.unknown, shard.rates.unknown);
        add_row(total.rates.malicious, shard.rates.malicious);
        total.b_signed += shard.b_signed;
        total.b_browser_signed += shard.b_browser_signed;
        total.u_signed += shard.u_signed;
        total.u_browser_signed += shard.u_browser_signed;
        total.m_signed += shard.m_signed;
        total.m_browser_signed += shard.m_browser_signed;
      },
      "analysis.signing_rates");

  return detail::signing_finish(std::move(acc));
}

namespace {

struct SignerSets {
  util::IdSet benign_signers;
  std::array<util::IdSet, model::kNumMalwareTypes> type_signers;
  util::IdSet malicious_signers;
  // Per-signer file counts.
  util::TopK<std::uint32_t> benign_counts, malicious_counts;
  std::array<util::TopK<std::uint32_t>, model::kNumMalwareTypes> type_counts;
};

SignerSets collect_signers(const AnnotatedCorpus& a) {
  const auto& observed = a.index.observed_files();
  return telemetry::scan_reduce_indexed(
      observed.size(), [] { return SignerSets{}; },
      [&](SignerSets& s, std::size_t i) {
        const auto f = observed[i];
        const auto& meta = a.corpus->files[f.raw()];
        if (!meta.is_signed) return;
        const auto signer = meta.signer.raw();
        switch (a.verdict(f)) {
          case Verdict::kBenign:
            s.benign_signers.insert(signer);
            s.benign_counts.add(signer);
            break;
          case Verdict::kMalicious: {
            const auto t = static_cast<std::size_t>(a.type_of(f));
            s.type_signers[t].insert(signer);
            s.malicious_signers.insert(signer);
            s.malicious_counts.add(signer);
            s.type_counts[t].add(signer);
            break;
          }
          default:
            break;
        }
      },
      [](SignerSets& total, SignerSets&& shard) {
        total.benign_signers.merge(shard.benign_signers);
        total.malicious_signers.merge(shard.malicious_signers);
        total.benign_counts.merge(shard.benign_counts);
        total.malicious_counts.merge(shard.malicious_counts);
        for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
          total.type_signers[t].merge(shard.type_signers[t]);
          total.type_counts[t].merge(shard.type_counts[t]);
        }
      },
      "analysis.collect_signers");
}

}  // namespace

SignerOverlap signer_overlap(const AnnotatedCorpus& a) {
  const SignerSets s = collect_signers(a);
  SignerOverlap out;
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t) {
    out.per_type[t].signers = s.type_signers[t].size();
    s.type_signers[t].for_each([&](std::uint32_t signer) {
      if (s.benign_signers.contains(signer))
        ++out.per_type[t].common_with_benign;
    });
  }
  out.total.signers = s.malicious_signers.size();
  s.malicious_signers.for_each([&](std::uint32_t signer) {
    if (s.benign_signers.contains(signer)) ++out.total.common_with_benign;
  });
  return out;
}

TopSigners top_signers(const AnnotatedCorpus& a, std::size_t top_k,
                       std::size_t table9_k) {
  const SignerSets s = collect_signers(a);
  TopSigners out;

  auto split_top = [&](const util::TopK<std::uint32_t>& counts,
                       TopSigners::Row& row) {
    std::size_t want = std::max<std::size_t>(top_k * 8, 24);
    for (const auto& [signer, count] : counts.top(want)) {
      const auto name = a.corpus->signer_names.at(signer);
      if (row.top.size() < top_k) row.top.emplace_back(name, count);
      if (s.benign_signers.contains(signer)) {
        if (row.top_common.size() < top_k)
          row.top_common.emplace_back(name, count);
      } else if (row.top_exclusive.size() < top_k) {
        row.top_exclusive.emplace_back(name, count);
      }
    }
  };
  for (std::size_t t = 0; t < model::kNumMalwareTypes; ++t)
    split_top(s.type_counts[t], out.per_type[t]);
  split_top(s.malicious_counts, out.malicious_total);

  for (const auto& [signer, count] :
       s.benign_counts.top(s.benign_counts.distinct())) {
    if (out.top_benign_exclusive.size() >= table9_k) break;
    if (!s.malicious_signers.contains(signer))
      out.top_benign_exclusive.emplace_back(a.corpus->signer_names.at(signer),
                                            count);
  }
  for (const auto& [signer, count] :
       s.malicious_counts.top(s.malicious_counts.distinct())) {
    if (out.top_malicious_exclusive.size() >= table9_k) break;
    if (!s.benign_signers.contains(signer))
      out.top_malicious_exclusive.emplace_back(
          a.corpus->signer_names.at(signer), count);
  }
  return out;
}

std::vector<CommonSignerPoint> common_signers(const AnnotatedCorpus& a,
                                              std::size_t top_k) {
  const SignerSets s = collect_signers(a);
  util::TopK<std::uint32_t> total;
  s.malicious_signers.for_each([&](std::uint32_t signer) {
    if (!s.benign_signers.contains(signer)) return;
    total.add(signer, s.benign_counts.count(signer) +
                          s.malicious_counts.count(signer));
  });
  std::vector<CommonSignerPoint> out;
  for (const auto& [signer, count] : total.top(top_k))
    out.push_back({a.corpus->signer_names.at(signer),
                   s.benign_counts.count(signer),
                   s.malicious_counts.count(signer)});
  return out;
}

}  // namespace longtail::analysis
