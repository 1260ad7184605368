// Bench-trajectory gate: compares two BENCH_pipeline.json files and fails
// (exit 1) when the current run regresses more than the threshold on any
// gated metric. CI runs this against the committed baseline
// (bench/baselines/BENCH_pipeline.baseline.json) so a perf regression
// breaks the build instead of rotting silently; refresh instructions live
// next to the baseline file.
//
//   bench_compare <baseline.json> <current.json>
//                 [--threshold 0.15] [--hist-threshold 0.50] [--no-metrics]
//
// Wall-clock gate (best across runs, direction per metric):
//   events_per_sec     — higher is better
//   resolve_events_ms  — best (min) across runs, lower is better
//   analysis_ms        — best (min) across runs, lower is better
//
// Metrics-drift gate (over the embedded "metrics" snapshot, skipped with
// --no-metrics or when either file lacks the snapshot):
//   counters           — the perf workload is deterministic, so every
//                        counter present in both files must match EXACTLY;
//                        a drifted count means the work itself changed
//                        (shards lost, events skipped), which wall time
//                        alone can hide.
//   histograms         — sample count must match exactly (same reasoning);
//                        sum_ms may not regress by more than the histogram
//                        threshold (sums under 1 ms are skipped as noise).
//
// Both files are read with util/json, so any formatting gates the same. A
// wall-clock metric is every numeric value stored under its exact key, at
// any depth. A gated metric present in the baseline but missing from the
// current file fails the gate; one missing from the baseline is reported
// and skipped (a new metric has nothing to regress against). A file that
// is not valid JSON exits 2, naming the file and the byte offset.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace {

struct Metric {
  const char* key;
  bool higher_is_better;
};

constexpr Metric kGatedMetrics[] = {
    {"events_per_sec", true},
    {"resolve_events_ms", false},
    {"analysis_ms", false},
    // Streaming section: sustained untrusted-ingest throughput. The key
    // is distinct from "events_per_sec" on purpose — the exact-key lookup
    // must not conflate the two.
    {"ingest_events_per_sec", true},
};

// Histogram sums below this many milliseconds are too noisy to gate.
constexpr double kHistSumFloorMs = 1.0;

namespace json = longtail::util::json;

json::Value read_json(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return json::parse(ss.str());
  } catch (const json::JsonError& e) {
    std::fprintf(stderr, "bench_compare: %s: invalid %s\n", path, e.what());
    std::exit(2);
  }
}

// Calls `fn` with every value stored under `key` (exact member name, so
// "resolve_events_ms" never matches "synth.resolve_events_ms"), at any
// depth, in document order.
template <typename Fn>
void for_each_under(const json::Value& v, std::string_view key, Fn&& fn) {
  for (const auto& [k, child] : v.obj) {
    if (k == key) fn(child);
    for_each_under(child, key, fn);
  }
  for (const json::Value& child : v.arr) for_each_under(child, key, fn);
}

std::vector<double> values_of(const json::Value& doc, const char* key) {
  std::vector<double> out;
  for_each_under(doc, key, [&](const json::Value& v) {
    if (v.kind == json::Value::kNum) out.push_back(v.num);
  });
  return out;
}

// A run set's representative value: the best across runs (max for
// throughput, min for wall time), so thread-count fan-out and machine
// noise both shrink instead of amplifying.
double best_of(const std::vector<double>& vals, bool higher_is_better) {
  return higher_is_better ? *std::max_element(vals.begin(), vals.end())
                          : *std::min_element(vals.begin(), vals.end());
}

// The first object stored under `key` anywhere in the document; nullptr
// when there is none.
const json::Value* object_of(const json::Value& doc, const char* key) {
  const json::Value* found = nullptr;
  for_each_under(doc, key, [&](const json::Value& v) {
    if (found == nullptr && v.kind == json::Value::kObj) found = &v;
  });
  return found;
}

// Member `key` of `obj` if it is an object; otherwise a null value, which
// has no members either.
const json::Value& section(const json::Value& obj, const char* key) {
  static const json::Value kNone;
  const json::Value* v = obj.find(key);
  return v != nullptr && v->kind == json::Value::kObj ? *v : kNone;
}

// Exact-counter and histogram-drift comparison. Returns the number of
// drifted metrics; keys missing from either side are skipped so schema
// evolution in either direction stays green.
int gate_metrics(const json::Value& baseline, const json::Value& current,
                 double hist_threshold) {
  const json::Value* base_m = object_of(baseline, "metrics");
  const json::Value* cur_m = object_of(current, "metrics");
  if (base_m == nullptr || cur_m == nullptr) {
    std::printf("  metrics            skipped (missing from %s)\n",
                base_m == nullptr ? "baseline" : "current");
    return 0;
  }

  int drifted = 0;
  const json::Value& cur_counters = section(*cur_m, "counters");
  std::size_t counters_checked = 0;
  for (const auto& [name, base_v] : section(*base_m, "counters").obj) {
    // profile.* metrics describe how the machine scheduled the run (e.g.
    // how many pool helpers were actually submitted), not the workload;
    // they are legitimately timing-dependent and exempt from gating.
    if (name.rfind("profile.", 0) == 0) continue;
    const json::Value* cur_v = cur_counters.find(name);
    if (cur_v == nullptr) continue;
    ++counters_checked;
    // Compared as integers parsed from the source text, so counts beyond
    // a double's 53-bit mantissa still gate exactly.
    const auto base_n = std::strtoull(base_v.str.c_str(), nullptr, 10);
    const auto cur_n = std::strtoull(cur_v->str.c_str(), nullptr, 10);
    if (base_n != cur_n) {
      std::printf("  counter %-32s baseline %llu  current %llu  DRIFTED\n",
                  name.c_str(), static_cast<unsigned long long>(base_n),
                  static_cast<unsigned long long>(cur_n));
      ++drifted;
    }
  }

  const json::Value& cur_hists = section(*cur_m, "histograms");
  std::size_t hists_checked = 0;
  for (const auto& [name, base_h] : section(*base_m, "histograms").obj) {
    if (name.rfind("profile.", 0) == 0) continue;  // same exemption
    const json::Value* cur_h = cur_hists.find(name);
    if (cur_h == nullptr) continue;
    ++hists_checked;
    const auto field = [](const json::Value& h, const char* key) {
      const json::Value* v = h.find(key);
      return v != nullptr ? v->num_or(-1) : -1;
    };
    const double base_count = field(base_h, "count");
    const double cur_count = field(*cur_h, "count");
    if (base_count >= 0 && cur_count >= 0 && base_count != cur_count) {
      std::printf(
          "  histogram %-30s baseline count %.0f  current count %.0f  "
          "DRIFTED\n",
          name.c_str(), base_count, cur_count);
      ++drifted;
      continue;
    }
    const double base_sum = field(base_h, "sum_ms");
    const double cur_sum = field(*cur_h, "sum_ms");
    if (base_sum < kHistSumFloorMs || cur_sum < 0) continue;
    const double delta = (cur_sum - base_sum) / base_sum;
    if (delta > hist_threshold) {
      std::printf(
          "  histogram %-30s baseline sum %.2fms  current sum %.2fms  "
          "%+.0f%%  REGRESSED\n",
          name.c_str(), base_sum, cur_sum, delta * 100.0);
      ++drifted;
    }
  }
  std::printf(
      "  metrics            %zu counters exact, %zu histograms gated: "
      "%d drifted\n",
      counters_checked, hists_checked, drifted);
  return drifted;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.15;
  double hist_threshold = 0.50;
  bool gate_metrics_drift = true;
  const char* paths[2] = {nullptr, nullptr};
  int n_paths = 0;
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else if (arg == "--hist-threshold" && i + 1 < argc) {
      hist_threshold = std::strtod(argv[++i], nullptr);
    } else if (arg == "--no-metrics") {
      gate_metrics_drift = false;
    } else if (!arg.empty() && arg[0] == '-') {
      bad = true;
    } else if (n_paths < 2) {
      paths[n_paths++] = argv[i];
    } else {
      bad = true;
    }
  }
  if (bad || n_paths != 2 || threshold <= 0.0 || hist_threshold <= 0.0) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.json> <current.json> "
                 "[--threshold 0.15] [--hist-threshold 0.50] "
                 "[--no-metrics]\n");
    return 2;
  }
  const json::Value baseline = read_json(paths[0]);
  const json::Value current = read_json(paths[1]);

  std::printf("bench gate: %s vs %s (threshold %.0f%%, histograms %.0f%%)\n",
              paths[1], paths[0], threshold * 100.0, hist_threshold * 100.0);
  int regressions = 0;
  for (const Metric& m : kGatedMetrics) {
    const auto base_vals = values_of(baseline, m.key);
    const auto cur_vals = values_of(current, m.key);
    if (base_vals.empty()) {
      std::printf("  %-18s skipped (missing from baseline)\n", m.key);
      continue;
    }
    if (cur_vals.empty()) {
      std::printf("  %-18s MISSING from current\n", m.key);
      ++regressions;
      continue;
    }
    const double base = best_of(base_vals, m.higher_is_better);
    const double cur = best_of(cur_vals, m.higher_is_better);
    if (base <= 0.0) {
      std::printf("  %-18s skipped (baseline %.1f is not positive)\n", m.key,
                  base);
      continue;
    }
    // Positive delta = worse, regardless of the metric's direction.
    const double delta =
        m.higher_is_better ? (base - cur) / base : (cur - base) / base;
    const bool regressed = delta > threshold;
    std::printf("  %-18s baseline %12.1f  current %12.1f  %+6.1f%%  %s\n",
                m.key, base, cur, -delta * 100.0,
                regressed ? "REGRESSED" : "ok");
    if (regressed) ++regressions;
  }
  if (gate_metrics_drift)
    regressions += gate_metrics(baseline, current, hist_threshold);
  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench_compare: %d metric(s) regressed more than the "
                 "threshold or went missing\n",
                 regressions);
    return 1;
  }
  return 0;
}
