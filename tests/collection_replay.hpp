// One-shot replay through the §II-A collection server for tests.
//
// The rule, quarantine and reorder tests assert on the whole accepted
// stream of a small input. `replay` gives them that from
// `telemetry::StreamingCollectionServer`: ingest everything as one
// chunk, finish, and concatenate the closed windows — the windows
// partition the release order, so the concatenation is the accepted
// stream for every window width. `trusted_feed` wraps a raw, time-sorted
// agent stream the way the fault-free feed does (report_id = index,
// arrival = reported time), for tests of the rules alone.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "model/event.hpp"
#include "telemetry/collection.hpp"
#include "telemetry/event_store.hpp"
#include "telemetry/streaming.hpp"
#include "telemetry/transport.hpp"

namespace longtail::test {

inline model::DownloadEvent make_event(std::uint32_t file,
                                       std::uint32_t machine,
                                       std::uint32_t url, model::Timestamp t,
                                       bool executed = true) {
  return model::DownloadEvent{model::FileId{file}, model::MachineId{machine},
                              model::ProcessId{0}, model::UrlId{url}, t,
                              executed};
}

// Two URLs, on domains 0 and 1.
inline std::vector<model::UrlMeta> two_urls() {
  return {model::UrlMeta{model::DomainId{0}, 0},
          model::UrlMeta{model::DomainId{1}, 0}};
}

// A single-window server configuration over the default collection
// period; `num_files` bounds the valid FileIds.
inline telemetry::StreamingConfig one_window(telemetry::CollectionPolicy policy,
                                             std::size_t num_files,
                                             bool trusted = false) {
  telemetry::StreamingConfig cfg;
  cfg.policy = std::move(policy);
  cfg.num_files = num_files;
  cfg.trusted = trusted;
  return cfg;
}

inline std::vector<telemetry::DeliveredReport> trusted_feed(
    std::span<const model::DownloadEvent> raw) {
  std::vector<telemetry::DeliveredReport> out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    out.push_back(telemetry::DeliveredReport{
        raw[i], static_cast<std::uint64_t>(i), raw[i].time, 0, false});
  return out;
}

inline telemetry::EventStore replay(
    telemetry::StreamingCollectionServer& server,
    std::span<const telemetry::DeliveredReport> delivered) {
  std::vector<telemetry::EventWindow> windows;
  server.ingest(delivered, windows);
  server.finish(windows);
  telemetry::EventStore out;
  for (const auto& w : windows)
    for (std::size_t i = 0; i < w.events.size(); ++i)
      out.push_back(w.events[i]);
  return out;
}

}  // namespace longtail::test
