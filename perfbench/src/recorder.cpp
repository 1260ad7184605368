#include "recorder.hpp"

#include <cstdio>

#include "stats.hpp"

namespace perfbench {

Recorder::Scope::Scope(Recorder& r, const char* name)
    : r_(r), name_(name), start_(Clock::now()) {
  if (r_.tracing_) {
    r_.spans_.push_back(Span{name, r_.open_.empty() ? -1 : r_.open_.back(),
                             start_, start_});
    span_ = static_cast<std::int64_t>(r_.spans_.size()) - 1;
    r_.open_.push_back(span_);
  }
}

Recorder::Scope::~Scope() {
  const auto end = Clock::now();
  const double ms = 1e3 * seconds_between(start_, end);
  r_.last_ms_ = ms;
  if (span_ >= 0) {
    r_.spans_[static_cast<std::size_t>(span_)].end = end;
    r_.open_.pop_back();
    r_.pass_totals_[std::string(name_) + "_ms"] += ms;
  }
}

void Recorder::begin_pass(const char* name) {
  pass_totals_.clear();
  if (!tracing_) return;
  const auto now = Clock::now();
  spans_.push_back(Span{name, -1, now, now});
  pass_span_ = static_cast<std::int64_t>(spans_.size()) - 1;
  open_.push_back(pass_span_);
}

void Recorder::end_pass() {
  if (!tracing_) return;
  spans_[static_cast<std::size_t>(pass_span_)].end = Clock::now();
  open_.pop_back();
  for (const auto& [key, value] : pass_totals_)
    per_pass_[key].push_back(value);
  pass_totals_.clear();
}

void Recorder::add(const std::string& key, double value) {
  if (tracing_) pass_totals_[key] += value;
}

std::vector<std::string> Recorder::layer_keys() const {
  std::vector<std::string> keys;
  for (const auto& entry : per_pass_) keys.push_back(entry.first);
  return keys;
}

double Recorder::layer_median(const std::string& key) const {
  const auto it = per_pass_.find(key);
  return it == per_pass_.end() ? 0.0 : median(it->second);
}

bool Recorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld}}",
                 i == 0 ? "" : ",", s.name,
                 1e6 * seconds_between(origin_, s.start),
                 1e6 * seconds_between(s.start, s.end), i + 1,
                 static_cast<long long>(s.parent + 1));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
