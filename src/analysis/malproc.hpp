// Table XII (§V-B): download behaviour of malicious processes, grouped by
// the behaviour type of the downloading process. Reuses the row shape and
// the row accumulator of Table X (analysis/processes.hpp).
#pragma once

#include <array>

#include "analysis/annotated.hpp"
#include "analysis/processes.hpp"

namespace longtail::analysis {

struct MalProcBehavior {
  std::array<ProcessBehaviorRow, model::kNumMalwareTypes> per_type{};
  ProcessBehaviorRow overall;
};

MalProcBehavior malicious_process_behavior(const AnnotatedCorpus& a);

}  // namespace longtail::analysis
