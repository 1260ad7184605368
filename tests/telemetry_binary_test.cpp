#include "telemetry/binary.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/annotated.hpp"
#include "core/pipeline.hpp"
#include "scratch_dir.hpp"
#include "synth/dataset_io.hpp"
#include "synth/generator.hpp"
#include "telemetry/io.hpp"

namespace longtail::telemetry {
namespace {

const synth::Dataset& small_dataset() {
  static const synth::Dataset ds = synth::generate_dataset(0.01);
  return ds;
}

TEST(CorpusBinary, RoundTripPreservesEverything) {
  const auto& ds = small_dataset();
  const test::ScratchDir scratch;
  const auto path = scratch.file("corpus.bin");
  save_binary(ds.corpus, path);
  const Corpus loaded = load_binary(path);

  EXPECT_EQ(loaded.events, ds.corpus.events);
  EXPECT_EQ(loaded.machine_count, ds.corpus.machine_count);
  EXPECT_EQ(loaded.files.size(), ds.corpus.files.size());
  EXPECT_EQ(loaded.processes.size(), ds.corpus.processes.size());
  EXPECT_EQ(loaded.urls.size(), ds.corpus.urls.size());
  EXPECT_EQ(loaded.domains.size(), ds.corpus.domains.size());
  EXPECT_EQ(corpus_fingerprint(loaded), corpus_fingerprint(ds.corpus));
}

TEST(CorpusBinary, TsvRoundTripPreservesFingerprint) {
  const auto& ds = small_dataset();
  const test::ScratchDir scratch;
  const auto dir = scratch.file("tsv");
  export_corpus(ds.corpus, dir);
  const Corpus loaded = import_corpus(dir);
  EXPECT_EQ(corpus_fingerprint(loaded), corpus_fingerprint(ds.corpus));
}

TEST(CorpusBinary, MissingFileThrows) {
  EXPECT_THROW(load_binary("/nonexistent/longtail_corpus.bin"),
               std::runtime_error);
}

TEST(CorpusBinary, TruncatedFileThrows) {
  const auto& ds = small_dataset();
  const test::ScratchDir scratch;
  const auto path = scratch.file("truncated.bin");
  save_binary(ds.corpus, path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW(load_binary(path), std::runtime_error);
}

TEST(CorpusBinary, CorruptedPayloadFailsFingerprintCheck) {
  const auto& ds = small_dataset();
  const test::ScratchDir scratch;
  const auto path = scratch.file("corrupt.bin");
  save_binary(ds.corpus, path);
  {
    // Flip one byte past the 16-byte header (magic, version, section
    // count, reserved) and the 16-byte META section: it lands in the
    // event file column, whose section checksum must reject the load.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char b = 0;
    f.read(&b, 1);
    f.seekp(64);
    b = static_cast<char>(b ^ 0x5A);
    f.write(&b, 1);
  }
  EXPECT_THROW(load_binary(path), std::runtime_error);
}

TEST(CorpusBinary, BadMagicThrows) {
  const test::ScratchDir scratch;
  const auto path = scratch.file("bad_magic.bin");
  std::ofstream out(path, std::ios::binary);
  const std::uint32_t junk[4] = {0xDEADBEEF, 1, 0, 0};
  out.write(reinterpret_cast<const char*>(junk), sizeof(junk));
  out.close();
  EXPECT_THROW(load_binary(path), std::runtime_error);
}

// One format version is read: a file with a valid magic but any other
// version is rejected by every loader with an error that names it.
TEST(CorpusBinary, OtherVersionsRejectedByEveryLoader) {
  const auto& ds = small_dataset();
  const test::ScratchDir scratch;
  const auto corpus_path = scratch.file("corpus.bin");
  const auto dataset_path = scratch.file("dataset.bin");
  save_binary(ds.corpus, corpus_path);
  synth::save_dataset_binary(ds, dataset_path);

  // The version is the u32 after the magic.
  const auto set_version = [](const std::string& path, std::uint32_t v) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  const auto expect_rejected = [](auto load, const std::string& path,
                                  std::uint32_t v) {
    try {
      (void)load(path);
      ADD_FAILURE() << "version " << v << " loaded: " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version " + std::to_string(v)),
                std::string::npos)
          << e.what();
    }
  };
  for (const std::uint32_t v : {2u, 4u}) {
    set_version(corpus_path, v);
    set_version(dataset_path, v);
    expect_rejected(load_binary, corpus_path, v);
    expect_rejected(synth::load_dataset_binary, dataset_path, v);
    expect_rejected(synth::load_dataset_mapped, dataset_path, v);
  }
}

TEST(DatasetBinary, RoundTripPreservesDatasetFingerprint) {
  const auto& ds = small_dataset();
  const test::ScratchDir scratch;
  const auto path = scratch.file("dataset.bin");
  synth::save_dataset_binary(ds, path);
  const synth::Dataset loaded = synth::load_dataset_binary(path);

  EXPECT_EQ(core::dataset_fingerprint(loaded), core::dataset_fingerprint(ds));
  EXPECT_EQ(loaded.corpus.events, ds.corpus.events);
  EXPECT_EQ(loaded.profile.scale, ds.profile.scale);
  EXPECT_EQ(loaded.profile.seed, ds.profile.seed);
  EXPECT_EQ(loaded.profile.sigma, ds.profile.sigma);
  EXPECT_EQ(loaded.truth.file_intended, ds.truth.file_intended);
  EXPECT_EQ(loaded.whitelist.files().size(), ds.whitelist.files().size());
  EXPECT_EQ(loaded.vt.file_report_count(), ds.vt.file_report_count());
  EXPECT_EQ(loaded.collection_stats.accepted, ds.collection_stats.accepted);
}

TEST(DatasetBinary, ReloadedDatasetAnnotatesIdentically) {
  const auto& ds = small_dataset();
  const test::ScratchDir scratch;
  const auto path = scratch.file("dataset_annotate.bin");
  synth::save_dataset_binary(ds, path);
  const synth::Dataset loaded = synth::load_dataset_binary(path);

  const auto a1 = analysis::annotate(ds.corpus, ds.whitelist, ds.vt);
  const auto a2 =
      analysis::annotate(loaded.corpus, loaded.whitelist, loaded.vt);
  EXPECT_EQ(a1.labels.file_verdicts, a2.labels.file_verdicts);
  EXPECT_EQ(a1.labels.process_verdicts, a2.labels.process_verdicts);
  EXPECT_EQ(a1.file_types, a2.file_types);
}

}  // namespace
}  // namespace longtail::telemetry
