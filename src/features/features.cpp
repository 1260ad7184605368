#include "features/features.hpp"

namespace longtail::features {

namespace {

using model::ProcessCategory;
using model::Verdict;

std::string_view process_type_value(const analysis::AnnotatedCorpus& a,
                                    model::ProcessId p) {
  // The paper's rules reference both the benign category ("downloading
  // process is Acrobat Reader") and the process's standing ("downloading
  // process is benign"); encoding the category for known-benign processes
  // and coarse labels otherwise supports both kinds of test.
  switch (a.verdict(p)) {
    case Verdict::kBenign:
      switch (a.category(p).category) {
        case ProcessCategory::kBrowser: return "browser";
        case ProcessCategory::kWindows: return "windows-process";
        case ProcessCategory::kJava: return "java";
        case ProcessCategory::kAcrobatReader: return "acrobat-reader";
        case ProcessCategory::kOther: return "other-benign";
      }
      return "other-benign";
    case Verdict::kLikelyBenign: return "likely-benign-process";
    case Verdict::kMalicious: return "malicious-process";
    case Verdict::kLikelyMalicious: return "likely-malicious-process";
    case Verdict::kUnknown: return "unknown-process";
  }
  return "unknown-process";
}

}  // namespace

std::string_view alexa_bucket(std::uint32_t rank) {
  if (rank == 0) return "unranked";
  if (rank <= 1'000) return "top-1k";
  if (rank <= 10'000) return "1k-10k";
  if (rank <= 100'000) return "10k-100k";
  if (rank <= 1'000'000) return "100k-1M";
  return "beyond-1M";
}

FeatureVector extract_features(const analysis::AnnotatedCorpus& a,
                               const model::DownloadEvent& e,
                               FeatureSpace& space) {
  const auto& file = a.corpus->files[e.file.raw()];
  const auto& proc = a.corpus->processes[e.process.raw()];
  const auto& url = a.corpus->urls[e.url.raw()];

  auto signer_name = [&](bool is_signed, model::SignerId signer) {
    return is_signed ? a.corpus->signer_names.at(signer.raw())
                     : std::string_view("not-signed");
  };
  auto ca_name = [&](bool is_signed, model::CaId ca) {
    return is_signed ? a.corpus->ca_names.at(ca.raw())
                     : std::string_view("no-ca");
  };
  auto packer_name = [&](bool is_packed, model::PackerId packer) {
    return is_packed ? a.corpus->packer_names.at(packer.raw())
                     : std::string_view("not-packed");
  };

  FeatureVector x;
  auto set = [&](Feature f, std::string_view value) {
    x.values[static_cast<std::size_t>(f)] = space.intern(f, value);
  };
  set(Feature::kFileSigner, signer_name(file.is_signed, file.signer));
  set(Feature::kFileCa, ca_name(file.is_signed, file.ca));
  set(Feature::kFilePacker, packer_name(file.is_packed, file.packer));
  set(Feature::kProcessSigner, signer_name(proc.is_signed, proc.signer));
  set(Feature::kProcessCa, ca_name(proc.is_signed, proc.ca));
  set(Feature::kProcessPacker, packer_name(proc.is_packed, proc.packer));
  set(Feature::kProcessType, process_type_value(a, e.process));
  set(Feature::kAlexaBucket, alexa_bucket(url.alexa_rank));
  return x;
}

}  // namespace longtail::features
