#include "synth/feed.hpp"

#include <algorithm>
#include <mutex>
#include <string>

#include "util/metrics.hpp"
#include "util/spec.hpp"
#include "util/trace.hpp"

namespace longtail::synth {

std::size_t ChunkedFeed::chunk_from_env() {
  static std::once_flag warned;
  return static_cast<std::size_t>(util::env_integer(
      "LONGTAIL_STREAM_CHUNK", /*min=*/1, /*fallback=*/64 * 1024, warned));
}

ChunkedFeed::ChunkedFeed(std::span<const model::DownloadEvent> raw,
                         const telemetry::FaultProfile& faults,
                         std::uint64_t seed, std::size_t chunk_size)
    : raw_(raw),
      faulted_(faults.transport_active()),
      chunk_(std::max<std::size_t>(chunk_size, 1)),
      total_(raw.size()) {
  if (faulted_) {
    telemetry::FaultyTransport transport(faults, seed);
    delivered_ = transport.deliver(raw_);
    transport_stats_ = transport.stats();
    total_ = delivered_.size();
  }
}

bool ChunkedFeed::step(telemetry::StreamingCollectionServer& server,
                       std::vector<telemetry::EventWindow>& closed) {
  if (done()) return false;
  const std::size_t end = std::min(pos_ + chunk_, total_);
  LONGTAIL_TRACE_SPAN_DETAIL("synth.feed_chunk",
                             "reports=" + std::to_string(end - pos_));
  if (faulted_) {
    server.ingest({delivered_.data() + pos_, end - pos_}, closed);
  } else {
    buffer_.clear();
    buffer_.reserve(end - pos_);
    for (std::size_t i = pos_; i < end; ++i)
      buffer_.push_back(telemetry::DeliveredReport{
          raw_[i], static_cast<std::uint64_t>(i), raw_[i].time, 0, false});
    server.ingest(buffer_, closed);
  }
  pos_ = end;
  ++chunks_;
  LONGTAIL_METRIC_COUNT("synth.feed.chunks", 1);
  return !done();
}

}  // namespace longtail::synth
