// Sectioned binary corpus layout and the memory-mapped zero-copy load
// path.
//
// The LTCP/LTDS formats store a file as independently checksummed
// sections behind a table of contents, so a loader can (a) verify
// integrity per section instead of hashing the whole file, and (b) serve
// the big fixed-width sections — the six columnar event arrays — directly
// out of a read-only file mapping with no copy and no page faulted in
// before it is actually scanned.
//
// `MappedCorpus` is that loader for LTCP files: the event columns become
// `EventStore` views into the mapping (the mapping is pinned by a shared
// keepalive, so views outlive the loader safely), the entity tables and
// name pools materialize lazily on first access, and `verify_all()`
// checks every section checksum on demand. The same section codec backs
// the owned loaders in telemetry/binary.cpp and synth/dataset_io.cpp and
// the mapped dataset load (`synth::load_dataset_mapped`) behind the bench
// corpus cache.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "telemetry/corpus.hpp"
#include "util/mmap.hpp"

namespace longtail::util {
class BinaryWriter;
class SectionWriter;
}  // namespace longtail::util

namespace longtail::telemetry {

// Section kinds shared by LTCP and LTDS (docs/corpus-format.md).
enum class SectionKind : std::uint32_t {
  kMeta = 1,  // corpus fingerprint + machine_count
  kEventFile = 2,
  kEventMachine = 3,
  kEventProcess = 4,
  kEventUrl = 5,
  kEventTime = 6,
  kEventExecuted = 7,
  kFiles = 8,
  kProcesses = 9,
  kUrls = 10,
  kDomains = 11,
  kStrDomain = 12,
  kStrSigner = 13,
  kStrCa = 14,
  kStrPacker = 15,
  kStrFamily = 16,
  kStrProcName = 17,
  // Dataset-only sections (LTDS).
  kProfile = 18,
  kTruth = 19,
  kWhitelist = 20,
  kVtFiles = 21,
  kVtProcesses = 22,
  kStats = 23,
};

// Hard cap on the section count a reader will accept: both formats write
// ~two dozen sections, so anything larger is a corrupt or hostile header
// and must fail before any table-sized allocation.
inline constexpr std::uint32_t kMaxSections = 64;

// One parsed table-of-contents entry (util::SectionWriter wrote it).
struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;    // payload start, 8-aligned
  std::uint64_t count = 0;     // element count (0 for opaque streams)
  std::uint64_t length = 0;    // payload bytes, excluding padding
  std::uint64_t checksum = 0;  // FNV-1a over the padded extent
};

// The parsed and integrity-checked table of contents of a sectioned file.
// The constructor validates the header (magic/version — a wrong version
// is a typed error that names it), the table checksum (which covers the
// 16-byte header plus the table bytes), and every entry's bounds; it does
// NOT hash section payloads — that is what verify_section /
// verify_all_sections are for, per section, on demand.
class SectionTable {
 public:
  SectionTable(std::span<const std::uint8_t> image, std::uint32_t magic,
               std::uint32_t version, const std::string& path);

  [[nodiscard]] const SectionEntry& require(SectionKind kind) const;
  [[nodiscard]] const SectionEntry* find(SectionKind kind) const noexcept;
  [[nodiscard]] const std::vector<SectionEntry>& entries() const noexcept {
    return entries_;
  }

  // Recomputes one section's FNV-1a over its padded extent and throws a
  // typed error on mismatch.
  void verify_section(std::span<const std::uint8_t> image,
                      const SectionEntry& e) const;
  // Verifies every section (the owned load path; faults every page in).
  // `release` (optional) is called with each verified+parsed extent so
  // callers can drop transient image pages as they go.
  void verify_all_sections(std::span<const std::uint8_t> image) const;

  [[nodiscard]] std::span<const std::uint8_t> payload(
      std::span<const std::uint8_t> image, const SectionEntry& e) const {
    return image.subspan(e.offset, e.length);
  }

 private:
  std::vector<SectionEntry> entries_;
  std::string path_;
};

// ---- shared corpus section codec -------------------------------------------

// Writes the 17 corpus sections (meta, six event columns, four entity
// tables, six name pools) through an open SectionWriter. Used by both the
// LTCP writer and the LTDS writer.
void write_corpus_sections(util::SectionWriter& sections,
                           util::BinaryWriter& out, const Corpus& corpus);
inline constexpr std::uint32_t kCorpusSectionCount = 17;

// Per-section parsers (validate counts/lengths; throw on malformed data).
struct CorpusMeta {
  std::uint64_t fingerprint = 0;
  std::uint32_t machine_count = 0;
};
[[nodiscard]] CorpusMeta parse_meta(std::span<const std::uint8_t> payload);
[[nodiscard]] std::vector<model::FileMeta> parse_files(
    std::span<const std::uint8_t> payload, std::uint64_t count);
[[nodiscard]] std::vector<model::ProcessMeta> parse_processes(
    std::span<const std::uint8_t> payload, std::uint64_t count);
[[nodiscard]] std::vector<model::UrlMeta> parse_urls(
    std::span<const std::uint8_t> payload, std::uint64_t count);
[[nodiscard]] std::vector<model::DomainMeta> parse_domains(
    std::span<const std::uint8_t> payload, std::uint64_t count);
void parse_interner(std::span<const std::uint8_t> payload,
                    std::uint64_t count, util::StringInterner& interner);

// The six event columns as spans into the image (zero-copy). Lengths are
// cross-checked; alignment is guaranteed by the writer.
struct ColumnSlices {
  std::span<const model::FileId> file;
  std::span<const model::MachineId> machine;
  std::span<const model::ProcessId> process;
  std::span<const model::UrlId> url;
  std::span<const model::Timestamp> time;
  std::span<const std::uint8_t> executed;
};
[[nodiscard]] ColumnSlices column_slices(std::span<const std::uint8_t> image,
                                         const SectionTable& table);

// Parses a complete Corpus out of a sectioned image. With
// `zero_copy_events` the event columns stay views pinned by `keepalive`;
// otherwise they are copied into an owning EventStore. Verifies the
// checksum of every section it touches. `release` (may be empty) is
// invoked with each consumed extent so streaming loaders can bound
// transient residency.
using ReleaseFn = std::function<void(std::size_t offset, std::size_t len)>;
[[nodiscard]] Corpus parse_corpus_sections(
    std::span<const std::uint8_t> image, const SectionTable& table,
    bool zero_copy_events, std::shared_ptr<const void> keepalive,
    const ReleaseFn& release = {});

// ---- the zero-copy corpus handle --------------------------------------

// A memory-mapped LTCP corpus. Opening verifies only the header and
// section table (a few hundred bytes); event columns are served zero-copy
// and entity tables / name pools parse lazily on first access, so memory
// high-water tracks what the workload actually touches instead of the
// file size. Copyable: copies share the mapping.
class MappedCorpus {
 public:
  // Maps `path` and validates its table of contents. Throws
  // std::runtime_error on any structural problem.
  static MappedCorpus open(const std::string& path);

  [[nodiscard]] const EventStore& events() const noexcept;
  [[nodiscard]] std::uint64_t stored_fingerprint() const noexcept;
  [[nodiscard]] std::uint32_t machine_count() const noexcept;
  [[nodiscard]] std::size_t file_bytes() const noexcept;

  // Lazily parsed entity tables and name pools (verified on first use).
  [[nodiscard]] const std::vector<model::FileMeta>& files() const;
  [[nodiscard]] const std::vector<model::ProcessMeta>& processes() const;
  [[nodiscard]] const std::vector<model::UrlMeta>& urls() const;
  [[nodiscard]] const std::vector<model::DomainMeta>& domains() const;
  [[nodiscard]] const util::StringInterner& domain_names() const;
  [[nodiscard]] const util::StringInterner& signer_names() const;
  [[nodiscard]] const util::StringInterner& ca_names() const;
  [[nodiscard]] const util::StringInterner& packer_names() const;
  [[nodiscard]] const util::StringInterner& family_names() const;
  [[nodiscard]] const util::StringInterner& process_names() const;

  // A full Corpus whose metadata is owned but whose event columns remain
  // zero-copy views into the mapping (pinned by the shared keepalive, so
  // the returned value is safe past this handle's lifetime).
  [[nodiscard]] Corpus materialize() const;

  // Recomputes every section checksum, including the event columns the
  // open path deliberately skipped. Faults all pages in; the fuzz suite
  // and LONGTAIL_MMAP_VERIFY=full use this.
  void verify_all() const;

  // Drops resident mapped pages of the event columns for event indexes
  // < `event_index` (page-aligned inward, best effort) — lets a streaming
  // full-corpus pass keep the mapped path's RSS high-water bounded.
  void release_events_before(std::size_t event_index) const noexcept;

 private:
  struct Impl;
  explicit MappedCorpus(std::shared_ptr<Impl> impl)
      : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

}  // namespace longtail::telemetry
