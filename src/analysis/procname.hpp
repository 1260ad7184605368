// Process categorization by executable name (§V-A).
//
// The paper labels downloading processes by the on-disk file name from
// which the process was launched ("any process with the name firefox.exe
// is labeled as the Firefox web browser") using a compiled list of names
// observed in the wild — and then, because malware masquerades as
// legitimate process names, restricts the §V measurements to processes
// whose *hash* matches the benign whitelist.
//
// `categorize_by_name` implements the name list. It runs once per
// distinct executable name, when an AnnotatedCorpus is built, and every
// consumer reads the result as `AnnotatedCorpus::category(ProcessId)`.
// The analysis modules combine that category (instead of trusting
// generator metadata) with the verdict check, so a malicious process
// named chrome.exe is classified "Browser" by name but never pollutes the
// known-benign tables.
#pragma once

#include <string_view>

#include "model/labels.hpp"

namespace longtail::analysis {

struct NameCategory {
  model::ProcessCategory category = model::ProcessCategory::kOther;
  model::BrowserKind browser = model::BrowserKind::kNotABrowser;
};

// Categorizes a process by its executable file name (case-insensitive,
// e.g. "firefox.exe", "SVCHOST.EXE"). Unrecognized names map to kOther.
NameCategory categorize_by_name(std::string_view executable_name);

}  // namespace longtail::analysis
