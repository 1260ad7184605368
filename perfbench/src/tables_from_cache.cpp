// tables_from_cache: the path every table binary takes under
// LONGTAIL_CORPUS_CACHE. A v3 dataset at scale 0.1 is saved once during
// set-up; each pass maps it (synth::load_dataset_mapped), annotates it and
// runs every table analysis. Read-only, with 2x the events of reproduce,
// and it never calls generation, features or rules — so a change to those
// layers must leave it unchanged, while a loader or analysis change shows
// here in isolation.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/pipeline.hpp"
#include "digests.hpp"
#include "synth/calibration.hpp"
#include "synth/dataset_io.hpp"
#include "workload.hpp"

namespace perfbench {

namespace lt = longtail;

namespace {

// At scale 0.2 a pass's working set (~320 MB) is as large as the 300 MB
// L3 a cloud VM shares with its host's other tenants, so pass times swing
// with how much of that cache the neighbours hold. Scale 0.1 (~160 MB) stays clear of that
// edge and still holds twice the events of reproduce.
constexpr double kScale = 0.1;

const Digests kPinned = {
    {"dataset_fingerprint", 0x908176148dddb021},
    {"tables", 0x4520dc27b2b29300},
};

// Runs f() in a forked child and waits for it; throws if it failed.
template <typename F>
void run_in_child(F&& f) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      f();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up child failed");
}

struct Pass {
  double seconds = 0;
  Digests digests;
};

Pass run_pass(const std::string& path, Recorder& rec) {
  Pass p;
  lt::synth::Dataset ds;
  std::uint64_t tables = 0;
  p.seconds = time_s([&] {
    ds = rec.call("synth.load_dataset_mapped",
                  [&] { return lt::synth::load_dataset_mapped(path); });
    const auto a = rec.call("analysis.annotate", [&] {
      return lt::analysis::annotate(ds.corpus, ds.whitelist, ds.vt);
    });
    tables = run_table_analyses(a, rec);
  });
  p.digests = {{"dataset_fingerprint", lt::core::dataset_fingerprint(ds)},
               {"tables", tables}};
  return p;
}

}  // namespace

Outcome run_tables_from_cache(const Options& opt) {
  Outcome out;
  auto profile = lt::synth::paper_calibration(kScale);
  profile.seed = opt.seed;
  const std::string path = opt.scratch_dir + "/tables_from_cache-" +
                           std::to_string(opt.seed) + ".ltds";

  // Set-up runs in a child process, so the peak resident memory of this
  // process covers only what a table binary does on a cache hit: load,
  // annotate, analyse. The parent starts no threads before the last fork.
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i)
    setup_s.push_back(time_s([&] {
      run_in_child([&] {
        use_threads(opt.threads);
        const auto ds = lt::synth::generate_dataset(profile);
        lt::synth::save_dataset_binary(ds, path);
      });
    }));
  use_threads(opt.threads);

  // The warm-up pass's outputs are the reference; its mapped load must
  // equal the owned load of the same file.
  const std::uint64_t owned_fingerprint =
      lt::core::dataset_fingerprint(lt::synth::load_dataset_binary(path));
  Recorder warmup(false);
  const Digests reference = run_pass(path, warmup).digests;
  out.ledger.record(reference.at("dataset_fingerprint") == owned_fingerprint);
  check_pinned(opt, out.ledger, kPinned, reference);

  run_batch_loop(
      opt, out, reference, setup_s,
      [&](Recorder& rec) { return run_pass(path, rec); },
      [](const Pass&, Recorder&) {});
  std::remove(path.c_str());
  return out;
}

}  // namespace perfbench
