#include "workload.hpp"

#include <cstdio>

#include "util/profile.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

void use_threads(unsigned threads) {
  longtail::util::set_global_threads(threads >= 2 ? threads - 1 : 0);
}

void check_pinned(const Options& opt, Ledger& ledger, const Digests& pinned,
                  const Digests& reference) {
  if (opt.seed != kDefaultSeed) return;
  if (!ledger.record(pinned, reference)) {
    for (const auto& [key, value] : reference)
      std::fprintf(stderr, "perfbench: %s reference %s = 0x%016llx\n",
                   opt.workload.c_str(), key.c_str(),
                   static_cast<unsigned long long>(value));
  }
}

void finish_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                       const std::vector<double>& pass_s,
                       const std::vector<double>& pass_1t_s,
                       std::vector<double> window_ms) {
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["pass_s"] = median(pass_s);
  out.metrics["pass_1t_s"] = median(pass_1t_s);
  out.metrics["window_ms_p50"] = median(window_ms);
  const TailPercentile tail = tail_percentile(std::move(window_ms));
  out.metrics["window_ms_p99"] = tail.value;
  out.metrics["peak_rss_mb"] = longtail::util::profile::peak_rss_mb();
  out.metrics["ok_ratio"] = 1.0 - out.ledger.fail_ratio();
  out.info.emplace_back("passes", static_cast<double>(pass_s.size()));
  out.info.emplace_back("passes_1t", static_cast<double>(pass_1t_s.size()));
  out.info.emplace_back("setups", static_cast<double>(setup_s.size()));
  out.info.emplace_back("window_samples", static_cast<double>(tail.samples));
  out.info.emplace_back("window_tail_percentile", tail.percentile);
}

void finish_layers(const Options& opt, Outcome& out, const Recorder& traced,
                   const std::vector<double>& untraced_pass_s,
                   const std::vector<double>& traced_pass_s) {
  for (const auto& key : traced.layer_keys())
    out.metrics[key] = traced.layer_median(key);
  const double untraced = median(untraced_pass_s);
  out.metrics["trace.overhead_ratio"] =
      untraced > 0 ? median(traced_pass_s) / untraced : 0.0;
  out.info.emplace_back("passes", static_cast<double>(untraced_pass_s.size()));
  out.info.emplace_back("traced_passes",
                        static_cast<double>(traced_pass_s.size()));
  out.info.emplace_back(
      "trace_written",
      traced.write_chrome_trace(opt.scratch_dir + "/trace-" + opt.workload +
                                ".json"));
}

}  // namespace perfbench
