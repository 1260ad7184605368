// The three workloads and what they share: options, the outcome they
// report, thread control and the timed loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "recorder.hpp"
#include "stats.hpp"

namespace perfbench {

// The calibration seed of the paper profile. Runs at this seed are also
// checked against the pinned reference digests of each workload.
inline constexpr std::uint64_t kDefaultSeed = 20140101;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir = ".";  // files the workload writes live here
  unsigned threads = 1;           // execution lanes of the parallel passes
};

struct Outcome {
  Ledger ledger;
  std::map<std::string, double> metrics;  // by name; units live in main
  std::vector<std::pair<std::string, double>> info;  // run-line extras
};

// Sizes the library's global pool so a parallel section runs on at most
// `threads` lanes: the calling thread plus threads - 1 workers. The
// library treats a one-worker pool as serial, so two lanes run serially.
void use_threads(unsigned threads);

// Calls `step` until `seconds` have passed (at least once).
template <typename F>
void for_duration(double seconds, F&& step) {
  const auto start = Clock::now();
  do {
    step();
  } while (seconds_between(start, Clock::now()) < seconds);
}

// Times `f` in seconds.
template <typename F>
double time_s(F&& f) {
  const auto start = Clock::now();
  f();
  return seconds_between(start, Clock::now());
}

// Checks a reference run at the default seed against its pinned digests.
void check_pinned(const Options& opt, Ledger& ledger, const Digests& pinned,
                  const Digests& reference);

// A batch workload delivers all its results at the end of a pass, so each
// pass is one window and its latency is the pass time.
inline std::vector<double> batch_windows_ms(const std::vector<double>& pass_s) {
  std::vector<double> ms;
  for (const double s : pass_s) ms.push_back(1e3 * s);
  return ms;
}

// Fills the end-to-end metrics every workload reports the same way:
// setup_s, pass_s, pass_1t_s, window_ms_p50/p99, peak_rss_mb, ok_ratio.
void finish_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                       const std::vector<double>& pass_s,
                       const std::vector<double>& pass_1t_s,
                       std::vector<double> window_ms);

// Sets trace.overhead_ratio and the per-layer values every workload
// derives from its traced recorder, and writes the recorder's spans to
// <scratch_dir>/trace-<workload>.json.
void finish_layers(const Options& opt, Outcome& out, const Recorder& traced,
                   const std::vector<double>& untraced_pass_s,
                   const std::vector<double>& traced_pass_s);

// The timed loop of a batch workload. `run_pass(rec)` runs one pass and
// returns its `seconds` and `digests`; every pass is checked against
// `reference`. Untraced, a pass on opt.threads lanes alternates with the
// same pass on one lane, and the end-to-end metrics are filled. Traced,
// an untraced pass alternates with a traced one, `after_traced(pass, rec)`
// adds its layer-by-layer calls, and the per-layer metrics are filled.
template <typename RunPass, typename AfterTraced>
void run_batch_loop(const Options& opt, Outcome& out,
                    const Digests& reference,
                    const std::vector<double>& setup_s, RunPass&& run_pass,
                    AfterTraced&& after_traced) {
  Recorder plain(false);
  std::vector<double> pass_s, other_s;
  if (!opt.trace) {
    for_duration(opt.seconds, [&] {
      use_threads(opt.threads);
      const auto p = run_pass(plain);
      out.ledger.record(reference, p.digests);
      pass_s.push_back(p.seconds);
      use_threads(1);
      const auto p1 = run_pass(plain);
      out.ledger.record(reference, p1.digests);  // threads=1 == threads=N
      other_s.push_back(p1.seconds);
    });
    finish_end_to_end(out, setup_s, pass_s, other_s, batch_windows_ms(pass_s));
    return;
  }
  Recorder traced(true);
  use_threads(opt.threads);
  for_duration(opt.seconds, [&] {
    const auto p = run_pass(plain);
    out.ledger.record(reference, p.digests);
    pass_s.push_back(p.seconds);
    traced.begin_pass("pass");
    const auto t = run_pass(traced);
    out.ledger.record(reference, t.digests);
    other_s.push_back(t.seconds);
    after_traced(t, traced);
    traced.end_pass();
  });
  finish_layers(opt, out, traced, pass_s, other_s);
}

Outcome run_reproduce(const Options& opt);
Outcome run_stream_serve(const Options& opt);
Outcome run_tables_from_cache(const Options& opt);

}  // namespace perfbench
