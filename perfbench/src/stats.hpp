// The benchmark's own statistics: medians, the tail-percentile rule, the
// open-loop chunk schedule, and the per-operation correctness ledger.
// Header-only and free of library dependencies so tests/stats_test.cpp
// can drive every rule with synthetic inputs and a fake clock.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for even sizes); 0 when
// empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

// A tail percentile and the sample it was read from.
struct TailPercentile {
  int percentile = 0;  // whole percent, 0 when there were no samples
  double value = 0.0;
  std::size_t samples = 0;
};

// Nearest-rank value at whole percentile `p` of sorted `s`.
inline double nearest_rank(const std::vector<double>& s, int p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(p) * static_cast<double>(s.size()) / 100));
  return s[std::max<std::size_t>(rank, 1) - 1];
}

// The highest whole percentile, at most `cap`, that leaves at least
// `min_beyond` samples above its nearest rank. Falls back to the median
// (p50) when the sample is too small for any percentile above it.
inline TailPercentile tail_percentile(std::vector<double> samples,
                                      int cap = 99,
                                      std::size_t min_beyond = 10) {
  TailPercentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  out.percentile = 50;
  for (int p = cap; p > 50; --p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p * n / 100));
    if (samples.size() - rank >= min_beyond) {
      out.percentile = p;
      break;
    }
  }
  out.value = nearest_rank(samples, out.percentile);
  return out;
}

// Open-loop schedule: chunk i of `chunk` reports is due at
// i * chunk / rate seconds after the start, whatever happened to the
// chunks before it. A late sender never slides the schedule; it sends the
// next overdue chunk at once, and the lateness is charged to that chunk.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double reports_per_s, std::size_t chunk,
                   std::size_t total_reports)
      : rate_(reports_per_s), chunk_(chunk), total_(total_reports) {}

  [[nodiscard]] std::size_t chunks() const {
    return (total_ + chunk_ - 1) / chunk_;
  }
  [[nodiscard]] double due_s(std::size_t i) const {
    return static_cast<double>(i * chunk_) / rate_;
  }

  // Records that chunk i was handed to the server at `now_s`. The
  // backlog is the reports of the chunks already due that are still
  // waiting behind this one.
  void on_send(std::size_t i, double now_s) {
    const double wait = std::max(0.0, now_s - due_s(i));
    queue_wait_s.push_back(wait);
    max_lag_s = std::max(max_lag_s, wait);
    const auto due_chunks = std::min(
        chunks(),
        static_cast<std::size_t>(std::floor(now_s * rate_ /
                                            static_cast<double>(chunk_))) +
            1);
    const std::size_t due_reports = std::min(total_, due_chunks * chunk_);
    const std::size_t sent = std::min(total_, (i + 1) * chunk_);
    if (due_reports > sent)
      max_backlog_reports = std::max<std::uint64_t>(max_backlog_reports,
                                                    due_reports - sent);
  }

  std::vector<double> queue_wait_s;  // per chunk: due -> start of ingest
  double max_lag_s = 0.0;
  std::uint64_t max_backlog_reports = 0;

 private:
  double rate_;
  std::size_t chunk_;
  std::size_t total_;
};

// Drives every chunk of `schedule` through `send(i, due_s)` on the
// schedule, reading time from `clock.now()` (seconds since the start) and
// waiting with `clock.wait_until(t)`. `send` does the work of chunk i and
// measures its own results against `due_s`.
template <typename Clock, typename Send>
void run_open_loop(OpenLoopSchedule& schedule, Clock& clock, Send&& send) {
  for (std::size_t i = 0; i < schedule.chunks(); ++i) {
    const double due = schedule.due_s(i);
    if (clock.now() < due) clock.wait_until(due);
    schedule.on_send(i, clock.now());
    send(i, due);
  }
}

// Named 64-bit digests of one operation's outputs.
using Digests = std::map<std::string, std::uint64_t>;

// Counts operations and those that failed a correctness check.
class Ledger {
 public:
  // One operation: passes when `got` equals `want` key for key. The first
  // few mismatches are kept for the error report.
  bool record(const Digests& want, const Digests& got) {
    bool ok = want.size() == got.size();
    for (const auto& [key, value] : want) {
      const auto it = got.find(key);
      if (it == got.end() || it->second != value) {
        ok = false;
        if (mismatches_.size() < 8) mismatches_.push_back(key);
      }
    }
    return record(ok);
  }
  bool record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
    return ok;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double fail_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  [[nodiscard]] const std::vector<std::string>& mismatches() const {
    return mismatches_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> mismatches_;
};

}  // namespace perfbench
