// perfbench: runs one workload of the long-tail pipeline benchmark and
// prints its metrics.
//
//   perfbench --workload <reproduce|stream_serve|tables_from_cache>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// The second-to-last stdout line records the run (seed, threads, nproc,
// sample counts); the last is the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "workload.hpp"

extern char** environ;

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"pass_s", "s"},
    {"pass_1t_s", "s"},        {"window_ms_p50", "ms"},
    {"window_ms_p99", "ms"},   {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
};

// A layer a workload bypasses reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"synth.generate_ms", "ms"},
    {"synth.load_dataset_mapped_ms", "ms"},
    {"telemetry.ingest_ms", "ms"},
    {"telemetry.reports_in", "count"},
    {"telemetry.duplicates_dropped", "count"},
    {"telemetry.quarantined", "count"},
    {"telemetry.accept_ratio", "ratio"},
    {"stream.queue_wait_ms", "ms"},
    {"stream.generator_lag_ms_max", "ms"},
    {"stream.backlog_max_reports", "count"},
    {"analysis.annotate_ms", "ms"},
    {"analysis.monthly_ms", "ms"},
    {"analysis.signers_ms", "ms"},
    {"analysis.prevalence_ms", "ms"},
    {"analysis.domains_ms", "ms"},
    {"analysis.transitions_ms", "ms"},
    {"analysis.malproc_ms", "ms"},
    {"analysis.processes_ms", "ms"},
    {"analysis.packers_ms", "ms"},
    {"analysis.coverage_ms", "ms"},
    {"analysis.absorb_ms", "ms"},
    {"analysis.snapshot_ms", "ms"},
    {"features.build_window_ms", "ms"},
    {"features.instances", "count"},
    {"rules.part_learn_ms", "ms"},
    {"rules.rules_learned", "count"},
    {"rules.classify_ms", "ms"},
    {"rules.decided_ratio", "ratio"},
    {"core.rule_experiments_ms", "ms"},
    {"core.evaluate_taus_ms", "ms"},
    {"deploy.serve_ms", "ms"},
    {"deploy.serve_retrain_ms", "ms"},
    {"deploy.events_served", "count"},
    {"deploy.files_labeled", "count"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<reproduce|stream_serve|tables_from_cache> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir>\n",
               why);
  std::exit(2);
}

// Inputs come only from the arguments: every LONGTAIL_* variable
// (threads, faults, scenario, scale, stream knobs, trace, metrics,
// profile) is removed before the library reads any of them.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.starts_with("LONGTAIL_"))
      names.emplace_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& name : names) ::unsetenv(name.c_str());
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool seen[5] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      seen[0] = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') usage("bad --seed");
      seen[1] = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage("bad --seconds");
      seen[2] = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("bad --trace");
      opt.trace = *value == '1';
      seen[3] = true;
    } else if (arg == "--scratch") {
      opt.scratch_dir = value;
      seen[4] = true;
    } else {
      usage("unknown argument");
    }
  }
  if (!std::all_of(std::begin(seen), std::end(seen), [](bool b) { return b; }))
    usage("missing argument");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  scrub_environment();
  Options opt = parse(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = std::min(nproc, 4u);

  Outcome out;
  try {
    if (opt.workload == "reproduce") {
      out = run_reproduce(opt);
    } else if (opt.workload == "stream_serve") {
      out = run_stream_serve(opt);
    } else if (opt.workload == "tables_from_cache") {
      out = run_tables_from_cache(opt);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& key : out.ledger.mismatches())
    std::fprintf(stderr, "perfbench: digest mismatch: %s\n", key.c_str());

  std::string run = "{\"run\": {\"workload\": \"" + opt.workload +
                    "\", \"seed\": " + std::to_string(opt.seed) +
                    ", \"threads\": " + std::to_string(opt.threads) +
                    ", \"nproc\": " + std::to_string(nproc) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") +
                    ", \"seconds\": " + number(opt.seconds) +
                    ", \"fail_ratio\": " + number(out.ledger.fail_ratio());
  for (const auto& [key, value] : out.info)
    run += ", \"" + key + "\": " + number(value);
  std::printf("%s}}\n", run.c_str());

  std::string metrics;
  auto emit = [&](const MetricSpec& m) {
    const auto it = out.metrics.find(m.name);
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  if (opt.trace) {
    for (const auto& m : kPerLayer) emit(m);
  } else {
    for (const auto& m : kEndToEnd) emit(m);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.ledger.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(out.ledger.attempted()),
      static_cast<unsigned long long>(out.ledger.failed()), metrics.c_str());
  return 0;
}
