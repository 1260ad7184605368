// Benchmark-side timing of calls into the library's layers.
//
// Every call perfbench makes into a layer goes through `Recorder::call`,
// which times it with the steady clock. When tracing is on, the recorder
// also keeps a span per call (name, start, end, parent) and per-layer
// totals for the pass in progress; spans stay in memory and are written
// out once, as Chrome trace-event JSON, when the run ends. No tracing
// happens inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing) {}

  [[nodiscard]] bool tracing() const { return tracing_; }

  // Runs f() as one call into `layer` and returns its result.
  template <typename F>
  decltype(auto) call(const char* layer, F&& f) {
    Scope scope(*this, layer);
    return f();
  }

  // Opens a pass: per-layer totals restart, and a span named `name`
  // parents the pass's calls.
  void begin_pass(const char* name);
  // Closes the pass and files its per-layer totals (ms) and counts.
  void end_pass();

  // Adds to a per-layer total or count of the open pass (tracing only).
  void add(const std::string& key, double value);

  // Duration (ms) of the most recently completed call.
  [[nodiscard]] double last_ms() const { return last_ms_; }

  // Per-layer value over the traced passes: the median of the per-pass
  // totals. Keys never recorded read 0.
  [[nodiscard]] double layer_median(const std::string& key) const;
  // Every key a traced pass recorded, sorted.
  [[nodiscard]] std::vector<std::string> layer_keys() const;

  // Writes the spans as Chrome trace-event JSON; false if unwritable.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t parent;  // index into spans_, -1 for top level
    Clock::time_point start, end;
  };

  class Scope {
   public:
    Scope(Recorder& r, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& r_;
    const char* name_;
    Clock::time_point start_;
    std::int64_t span_ = -1;
  };

  bool tracing_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // span stack (tracing only)
  std::int64_t pass_span_ = -1;
  double last_ms_ = 0.0;
  std::map<std::string, double> pass_totals_;
  std::map<std::string, std::vector<double>> per_pass_;
};

}  // namespace perfbench
