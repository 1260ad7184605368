// Shared "k=v,k=v" spec-string parsing for the perturbation-profile
// parsers (telemetry::parse_fault_profile, synth::parse_scenario_profile),
// and the integer environment reader of the streaming knobs.
//
// Both profiles are configured from environment variables holding a
// comma-separated rate spec; both must reject malformed input with a
// diagnostic that names the offending fragment so the warn-and-fallback
// path (faults_from_env / scenario_from_env) can tell the operator *what*
// was wrong, not just that something was. Centralizing the fragment walk
// and the bounded-number parse keeps the two parsers' diagnostics
// identical in shape.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace longtail::util {

// Walks `text` as a comma-separated list of key=value fragments, invoking
// fn(key, value) for each. Empty fragments ("a=1,,b=2") are skipped.
// Throws std::runtime_error — prefixed with `what` (e.g. "fault spec") and
// quoting the fragment — when a fragment has no '='.
template <typename Fn>
void for_each_spec_kv(std::string_view what, std::string_view text, Fn&& fn) {
  std::string_view rest = text;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string_view::npos)
      throw std::runtime_error(std::string(what) +
                               ": expected key=value, got '" +
                               std::string(item) + "'");
    fn(item.substr(0, eq), item.substr(eq + 1));
  }
}

// Parses `value` as a finite double in [lo, hi]. The error message names
// the spec (`what`), the key, the offending value, and the legal range.
inline double parse_spec_number(std::string_view what, std::string_view key,
                                std::string_view value, double lo, double hi) {
  const std::string v(value);
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || !std::isfinite(x) || x < lo ||
      x > hi) {
    char range[64];
    std::snprintf(range, sizeof(range), " (expected a number in [%g, %g])",
                  lo, hi);
    throw std::runtime_error(std::string(what) + ": bad value for '" +
                             std::string(key) + "': '" + v + "'" + range);
  }
  return x;
}

// Raises the canonical unknown-key error, listing the keys the spec does
// accept so a typo'd knob is a one-glance fix.
[[noreturn]] inline void unknown_spec_key(std::string_view what,
                                          std::string_view key,
                                          std::string_view valid_keys) {
  throw std::runtime_error(std::string(what) + ": unknown key '" +
                           std::string(key) + "' (valid keys: " +
                           std::string(valid_keys) + ")");
}

// Reads the base-10 integer environment variable `name`. Unset or empty
// yields `fallback`. A value that is not an integer, or is below `min`,
// also yields `fallback`, after a warning on stderr naming the variable
// and the value; `warned` prints that warning once per process.
inline long long env_integer(const char* name, long long min,
                             long long fallback, std::once_flag& warned) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end != env && *end == '\0' && v >= min) return v;
  std::call_once(warned, [&] {
    std::fprintf(stderr,
                 "[longtail] warning: invalid %s='%s' (expected an integer "
                 ">= %lld); using %lld\n",
                 name, env, min, fallback);
  });
  return fallback;
}

}  // namespace longtail::util
