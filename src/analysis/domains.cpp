#include "analysis/domains.hpp"

#include <algorithm>
#include <unordered_set>

#include "telemetry/scan.hpp"
#include "util/id_set.hpp"
#include "util/thread_pool.hpp"

namespace longtail::analysis {

namespace {

using model::Verdict;
// Distinct (domain, member) pairs, members being machines or files
// depending on the table, packed as (domain << 32 | member). Shards append
// one key per event and the combine concatenates; top_named() sorts and
// deduplicates the keys and counts each domain's run, so no result
// depends on shard order.
using DomainMembers = std::vector<std::uint64_t>;

void add_member(DomainMembers& keys, std::uint32_t domain,
                std::uint32_t member) {
  keys.push_back(std::uint64_t{domain} << 32 | member);
}

template <std::size_t N>
void merge_keys(std::array<DomainMembers, N>& total,
                const std::array<DomainMembers, N>& shard) {
  for (std::size_t i = 0; i < N; ++i)
    total[i].insert(total[i].end(), shard[i].begin(), shard[i].end());
}

std::uint32_t domain_of(const AnnotatedCorpus& a, model::UrlId url) {
  return a.corpus->urls[url.raw()].domain.raw();
}

std::vector<DomainCount> top_named(const AnnotatedCorpus& a,
                                   DomainMembers& keys, std::size_t top_k) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  util::TopK<std::uint32_t> counter;
  for (std::size_t i = 0; i < keys.size();) {
    const auto domain = static_cast<std::uint32_t>(keys[i] >> 32);
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] >> 32 == domain) ++j;
    counter.add(domain, j - i);
    i = j;
  }
  std::vector<DomainCount> out;
  for (const auto& [domain, count] : counter.top(top_k))
    out.emplace_back(a.corpus->domain_names.at(domain), count);
  return out;
}

// top_named() of each key list, the lists sorted in parallel.
template <std::size_t N>
std::array<std::vector<DomainCount>, N> top_named_each(
    const AnnotatedCorpus& a, std::array<DomainMembers, N>& lists,
    std::size_t top_k) {
  std::array<std::vector<DomainCount>, N> out;
  util::parallel_for(
      N, [&](std::size_t i) { out[i] = top_named(a, lists[i], top_k); });
  return out;
}

}  // namespace

DomainPopularity domain_popularity(const AnnotatedCorpus& a,
                                   std::size_t top_k) {
  // (domain, machine) keys of all, benign and malicious downloads.
  using Acc = std::array<DomainMembers, 3>;
  Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        const auto domain = domain_of(a, e.url());
        const auto machine = e.machine().raw();
        add_member(s[0], domain, machine);
        switch (a.verdict(e.file())) {
          case Verdict::kBenign:
            add_member(s[1], domain, machine);
            break;
          case Verdict::kMalicious:
            add_member(s[2], domain, machine);
            break;
          default:
            break;
        }
      },
      [](Acc& total, Acc&& shard) { merge_keys(total, shard); },
      "analysis.domain_popularity");
  auto [overall, benign, malicious] = top_named_each(a, acc, top_k);
  return DomainPopularity{std::move(overall), std::move(benign),
                          std::move(malicious)};
}

DomainFileCounts files_per_domain(const AnnotatedCorpus& a,
                                  std::size_t top_k) {
  // (domain, file) keys of benign and malicious downloads.
  using Acc = std::array<DomainMembers, 2>;
  Acc acc = telemetry::scan_reduce(
      *a.corpus, [] { return Acc{}; },
      [&](Acc& s, const auto& e) {
        switch (a.verdict(e.file())) {
          case Verdict::kBenign:
            add_member(s[0], domain_of(a, e.url()), e.file().raw());
            break;
          case Verdict::kMalicious:
            add_member(s[1], domain_of(a, e.url()), e.file().raw());
            break;
          default:
            break;
        }
      },
      [](Acc& total, Acc&& shard) { merge_keys(total, shard); },
      "analysis.files_per_domain");
  auto [benign, malicious] = top_named_each(a, acc, top_k);
  DomainFileCounts out{std::move(benign), std::move(malicious), 0};
  std::unordered_set<std::string_view> benign_top;
  for (const auto& [name, count] : out.benign) benign_top.insert(name);
  for (const auto& [name, count] : out.malicious)
    if (benign_top.contains(name)) ++out.overlap_in_top;
  return out;
}

std::array<std::vector<DomainCount>, model::kNumMalwareTypes>
domains_per_type(const AnnotatedCorpus& a, std::size_t top_k) {
  using TypeSets = std::array<DomainMembers, model::kNumMalwareTypes>;
  TypeSets sets = telemetry::scan_reduce(
      *a.corpus, [] { return TypeSets{}; },
      [&](TypeSets& s, const auto& e) {
        if (a.verdict(e.file()) != Verdict::kMalicious) return;
        const auto type = static_cast<std::size_t>(a.type_of(e.file()));
        add_member(s[type], domain_of(a, e.url()), e.file().raw());
      },
      [](TypeSets& total, TypeSets&& shard) { merge_keys(total, shard); },
      "analysis.domains_per_type");
  return top_named_each(a, sets, top_k);
}

std::vector<DomainCount> top_unknown_domains(const AnnotatedCorpus& a,
                                             std::size_t top_k) {
  const util::TopK<std::uint32_t> downloads = telemetry::scan_reduce(
      *a.corpus, [] { return util::TopK<std::uint32_t>{}; },
      [&](util::TopK<std::uint32_t>& acc, const auto& e) {
        if (a.verdict(e.file()) == Verdict::kUnknown)
          acc.add(domain_of(a, e.url()));
      },
      [](util::TopK<std::uint32_t>& total,
         util::TopK<std::uint32_t>&& shard) { total.merge(shard); },
      "analysis.top_unknown_domains");
  std::vector<DomainCount> out;
  for (const auto& [domain, count] : downloads.top(top_k))
    out.emplace_back(a.corpus->domain_names.at(domain), count);
  return out;
}

AlexaDistribution alexa_of_domains_hosting(const AnnotatedCorpus& a,
                                           Verdict target) {
  const util::IdSet domains = telemetry::scan_reduce(
      *a.corpus, [] { return util::IdSet{}; },
      [&](util::IdSet& acc, const auto& e) {
        if (a.verdict(e.file()) == target) acc.insert(domain_of(a, e.url()));
      },
      [](util::IdSet& total, util::IdSet&& shard) { total.merge(shard); },
      "analysis.alexa_of_domains");

  AlexaDistribution out;
  out.domains = domains.size();
  std::uint64_t unranked = 0;
  domains.for_each([&](std::uint32_t d) {
    const auto rank = a.corpus->domains[d].alexa_rank;
    if (rank == 0)
      ++unranked;
    else
      out.ranks.add(static_cast<double>(rank));
  });
  out.ranks.finalize();
  if (out.domains != 0)
    out.unranked_fraction =
        static_cast<double>(unranked) / static_cast<double>(out.domains);
  return out;
}

}  // namespace longtail::analysis
