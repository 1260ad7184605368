// stream_serve: the incremental path. A scale-0.05 corpus is generated and
// sent through the faulty transport (moderate preset's transport faults:
// drops, duplicates, jitter, clock skew, corrupt copies) during set-up.
// Each replay feeds the delivered reports in fixed chunks to an untrusted
// StreamingCollectionServer with daily windows, absorbs every closed
// window into StreamingAnalytics (snapshot at each month end) and serves
// it through OnlineLabeler. Generation and batch analysis stay out of the
// timed part.
#include <algorithm>
#include <limits>
#include <memory>

#include "analysis/streaming.hpp"
#include "digests.hpp"
#include "synth/calibration.hpp"
#include "telemetry/faults.hpp"
#include "telemetry/streaming.hpp"
#include "telemetry/transport.hpp"
#include "workload.hpp"

namespace perfbench {

namespace lt = longtail;

namespace {

constexpr double kScale = 0.05;
constexpr lt::model::Timestamp kWindowS = 86'400;  // daily: 243 per replay
constexpr std::size_t kChunk = 512;                // reports per chunk
// Offered rate of the open-loop replays: about a quarter of what a
// closed-loop replay sustains on a 4-core host (~150k reports/s). A daily
// window is then ~18 ms of offered reports, so the month-end snapshot and
// retraining stalls queue the few windows behind them (the tail) while
// most windows do not wait (the median). A constant of the workload: a
// faster server shows as lower latency, not as more load.
constexpr double kOfferedReportsPerS = 35'000;

const Digests kPinned = {
    {"conservation", 0xe95e7794555a73c5},
    {"freshness", 0xf0a1cf053243678b},
    {"snapshots", 0x650d5baf663b9dc9},
};

struct Inputs {
  lt::synth::Dataset ds;
  std::unique_ptr<lt::analysis::AnnotatedCorpus> annotated;
  lt::telemetry::FaultProfile faults;
  std::vector<lt::telemetry::DeliveredReport> delivered;
};

lt::telemetry::FaultProfile transport_faults() {
  auto p = *lt::telemetry::named_fault_profile("moderate");
  p.vt_loss_rate = 0;
  p.label_delay_mean_days = 0;
  return p;
}

std::unique_ptr<Inputs> make_inputs(
    const lt::synth::CalibrationProfile& profile) {
  auto in = std::make_unique<Inputs>();
  in->ds = lt::synth::generate_dataset(profile);
  in->annotated = std::make_unique<lt::analysis::AnnotatedCorpus>(
      lt::analysis::annotate(in->ds.corpus, in->ds.whitelist, in->ds.vt));
  in->faults = transport_faults();
  const auto& events = in->ds.corpus.events;
  std::vector<lt::model::DownloadEvent> raw(events.begin(), events.end());
  lt::telemetry::FaultyTransport transport(in->faults, profile.seed);
  in->delivered = transport.deliver(raw);
  return in;
}

bool is_month_start(lt::model::Timestamp t) {
  const auto& s = lt::model::kMonthStart;
  return t > 0 && std::find(s.begin(), s.end(), t) != s.end();
}

// The batch side of the snapshot check: the analyses over the events
// absorbed so far, with the full corpus's labels and entity tables.
struct BatchCheck {
  explicit BatchCheck(const Inputs& in) : in(in), prefix(in.ds.corpus) {
    prefix.events.clear();
  }
  std::uint64_t digest() const {
    lt::analysis::AnnotatedCorpus pa(prefix);
    const auto& a = *in.annotated;
    pa.labels = a.labels;
    pa.file_types = a.file_types;
    pa.process_types = a.process_types;
    pa.url_verdicts = a.url_verdicts;
    return snapshot_digest(lt::analysis::monthly_summary(pa),
                           lt::analysis::prevalence_distributions(pa),
                           lt::analysis::signing_rates(pa),
                           lt::analysis::machine_coverage(pa));
  }
  const Inputs& in;
  lt::telemetry::Corpus prefix;
  bool ok = true;
};

// Latency samples and schedule statistics of the open-loop replays.
struct OpenLoopStats {
  std::vector<double> window_ms;
  std::vector<double> queue_wait_ms;
  double max_lag_ms = 0;
  double max_backlog_reports = 0;
};

// The open loop's clock. It spins instead of sleeping until a chunk is
// due: waking from a sleep costs a scheduler round trip and a cold core,
// which would add noise to every window's latency.
class WallClock {
 public:
  explicit WallClock(Clock::time_point origin) : origin_(origin) {}
  double now() const { return seconds_between(origin_, Clock::now()); }
  void wait_until(double t) const {
    while (now() < t) {
    }
  }

 private:
  Clock::time_point origin_;
};

struct Replay {
  double seconds = 0;
  bool conserved = false;
  Digests digests;
};

// One replay. Closed loop (open == nullptr): each chunk is sent as soon
// as the previous one is done. Open loop: chunks go out on the schedule
// of kOfferedReportsPerS, and each window's latency runs from the due
// time of the chunk that closed it to the return of serve().
Replay replay(const Inputs& in, Recorder& rec, OpenLoopStats* open,
              BatchCheck* check) {
  namespace tm = lt::telemetry;
  const auto& a = *in.annotated;
  tm::StreamingConfig cfg;
  cfg.policy.sigma = std::numeric_limits<std::uint32_t>::max();
  cfg.policy.reorder_horizon_s = in.faults.reorder_horizon_s();
  cfg.window_s = kWindowS;
  cfg.num_files = in.ds.corpus.files.size();
  cfg.trusted = false;

  Replay r;
  rec.begin_pass("stream_serve.replay");
  const auto start = Clock::now();
  tm::StreamingCollectionServer server(std::move(cfg), in.ds.corpus.urls);
  lt::analysis::StreamingAnalytics analytics(in.ds.corpus);
  lt::deploy::OnlineLabeler labeler(in.ds, a, {});
  std::vector<tm::EventWindow> closed;
  std::uint64_t snapshots = 0;
  bool conserved = true;
  std::vector<double> serve_ms, retrain_ms;
  WallClock clock(start);

  auto serve_closed = [&](double due_s) {
    for (const auto& w : closed) {
      rec.call("analysis.absorb", [&] { analytics.absorb(w); });
      if (check != nullptr)
        for (std::size_t j = 0; j < w.events.size(); ++j)
          check->prefix.events.push_back(w.events[j]);
      if (is_month_start(w.end)) {
        const auto snap = rec.call("analysis.snapshot", [&] {
          return snapshot_digest(analytics.monthly(a), analytics.prevalence(a),
                                 analytics.signing(a), analytics.coverage(a));
        });
        snapshots = chain(snapshots, snap);
        if (check != nullptr)
          check->ok = check->ok && check->digest() == snap;
      }
      // The first window of a month makes the labeler retrain.
      const bool retrain = is_month_start(w.begin);
      rec.call(retrain ? "deploy.serve_retrain" : "deploy.serve",
               [&] { labeler.serve(w); });
      (retrain ? retrain_ms : serve_ms).push_back(rec.last_ms());
      if (open != nullptr)
        open->window_ms.push_back(1e3 * (clock.now() - due_s));
    }
    closed.clear();
  };
  auto send = [&](std::size_t i, double due_s) {
    const std::size_t begin = i * kChunk;
    const std::size_t n = std::min(kChunk, in.delivered.size() - begin);
    rec.call("telemetry.ingest", [&] {
      server.ingest({in.delivered.data() + begin, n}, closed);
    });
    conserved = conserved && server.conserved();
    serve_closed(due_s);
  };

  OpenLoopSchedule schedule(kOfferedReportsPerS, kChunk,
                            in.delivered.size());
  if (open != nullptr) {
    run_open_loop(schedule, clock, send);
  } else {
    for (std::size_t i = 0; i < schedule.chunks(); ++i) send(i, 0);
  }
  rec.call("telemetry.ingest", [&] { server.finish(closed); });
  serve_closed(schedule.due_s(schedule.chunks() - 1));
  rec.call("deploy.finish", [&] { labeler.finish(); });
  r.seconds = seconds_between(start, Clock::now());

  const auto& st = server.stats();
  const std::uint64_t absorbed = analytics.events_absorbed();
  conserved = conserved && server.conserved() && server.pending() == 0 &&
              server.consumed() == in.delivered.size() &&
              absorbed == st.accepted &&
              labeler.events_served() == st.accepted;
  r.conserved = conserved;
  std::uint64_t conservation = conserved ? 1 : 0;
  for (const std::uint64_t v :
       {st.accepted, st.dropped_not_executed, st.dropped_prevalence_cap,
        st.dropped_whitelisted_url, st.dropped_duplicate,
        st.quarantined_malformed, st.dropped_stale,
        static_cast<std::uint64_t>(server.windows_closed())})
    conservation = chain(conservation, v);
  r.digests = {{"conservation", conservation},
               {"freshness", freshness_digest(labeler)},
               {"snapshots", snapshots}};

  if (open != nullptr) {
    for (const double s : schedule.queue_wait_s)
      open->queue_wait_ms.push_back(1e3 * s);
    open->max_lag_ms = std::max(open->max_lag_ms, 1e3 * schedule.max_lag_s);
    open->max_backlog_reports =
        std::max(open->max_backlog_reports,
                 static_cast<double>(schedule.max_backlog_reports));
  }
  if (rec.tracing()) {
    rec.add("deploy.serve_window_ms", median(serve_ms));
    rec.add("deploy.serve_retrain_window_ms", median(retrain_ms));
    rec.add("deploy.events_served",
            static_cast<double>(labeler.events_served()));
    rec.add("deploy.files_labeled",
            static_cast<double>(labeler.freshness().files_labeled));
    rec.add("telemetry.reports_in", static_cast<double>(in.delivered.size()));
    rec.add("telemetry.duplicates_dropped",
            static_cast<double>(st.dropped_duplicate));
    rec.add("telemetry.quarantined",
            static_cast<double>(st.quarantined_malformed));
    rec.add("telemetry.accepted", static_cast<double>(st.accepted));
  }
  rec.end_pass();
  return r;
}

}  // namespace

Outcome run_stream_serve(const Options& opt) {
  Outcome out;
  auto profile = lt::synth::paper_calibration(kScale);
  profile.seed = opt.seed;

  use_threads(opt.threads);
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> in;
  for (int i = 0; i < 5; ++i) {
    in.reset();
    setup_s.push_back(time_s([&] { in = make_inputs(profile); }));
  }

  // Warm-up replay: the reference, checked snapshot by snapshot against
  // the batch analyses over the same absorbed events.
  Recorder plain(false);
  BatchCheck check(*in);
  const Replay warm = replay(*in, plain, nullptr, &check);
  const Digests& reference = warm.digests;
  out.ledger.record(check.ok && warm.conserved);
  check_pinned(opt, out.ledger, kPinned, reference);
  check.prefix = {};

  std::vector<double> pass_s, pass_1t_s;
  OpenLoopStats open;
  if (!opt.trace) {
    for_duration(opt.seconds, [&] {
      use_threads(opt.threads);
      Replay r = replay(*in, plain, nullptr, nullptr);
      out.ledger.record(reference, r.digests);
      pass_s.push_back(r.seconds);
      r = replay(*in, plain, &open, nullptr);
      out.ledger.record(reference, r.digests);
      use_threads(1);
      r = replay(*in, plain, nullptr, nullptr);
      out.ledger.record(reference, r.digests);  // threads=1 == threads=N
      pass_1t_s.push_back(r.seconds);
    });
    finish_end_to_end(out, setup_s, pass_s, pass_1t_s, open.window_ms);
    out.info.emplace_back("generator_lag_ms_max", open.max_lag_ms);
    out.info.emplace_back("backlog_max_reports", open.max_backlog_reports);
    out.info.emplace_back("offered_reports_per_s", kOfferedReportsPerS);
    out.info.emplace_back("reports_per_replay",
                          static_cast<double>(in->delivered.size()));
    return out;
  }

  Recorder traced(true);
  std::vector<double> traced_s;
  use_threads(opt.threads);
  for_duration(opt.seconds, [&] {
    Replay r = replay(*in, plain, nullptr, nullptr);
    out.ledger.record(reference, r.digests);
    pass_s.push_back(r.seconds);
    r = replay(*in, traced, nullptr, nullptr);
    out.ledger.record(reference, r.digests);
    traced_s.push_back(r.seconds);
    r = replay(*in, plain, &open, nullptr);
    out.ledger.record(reference, r.digests);
  });
  finish_layers(opt, out, traced, pass_s, traced_s);
  // Per-window serve times, not per-replay totals.
  out.metrics["deploy.serve_ms"] =
      traced.layer_median("deploy.serve_window_ms");
  out.metrics["deploy.serve_retrain_ms"] =
      traced.layer_median("deploy.serve_retrain_window_ms");
  out.metrics["telemetry.accept_ratio"] =
      traced.layer_median("telemetry.accepted") /
      traced.layer_median("telemetry.reports_in");
  out.metrics["stream.queue_wait_ms"] =
      tail_percentile(open.queue_wait_ms).value;
  out.metrics["stream.generator_lag_ms_max"] = open.max_lag_ms;
  out.metrics["stream.backlog_max_reports"] = open.max_backlog_reports;
  return out;
}

}  // namespace perfbench
