#include "analysis/procname.hpp"

#include "analysis/processes.hpp"

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "dataset_fixture.hpp"

namespace longtail::analysis {
namespace {

using model::BrowserKind;
using model::ProcessCategory;

TEST(ProcName, BrowsersByName) {
  EXPECT_EQ(categorize_by_name("firefox.exe").browser, BrowserKind::kFirefox);
  EXPECT_EQ(categorize_by_name("chrome.exe").browser, BrowserKind::kChrome);
  EXPECT_EQ(categorize_by_name("iexplore.exe").browser,
            BrowserKind::kInternetExplorer);
  EXPECT_EQ(categorize_by_name("opera.exe").category,
            ProcessCategory::kBrowser);
  EXPECT_EQ(categorize_by_name("safari.exe").category,
            ProcessCategory::kBrowser);
}

TEST(ProcName, CaseInsensitive) {
  EXPECT_EQ(categorize_by_name("FIREFOX.EXE").browser, BrowserKind::kFirefox);
  EXPECT_EQ(categorize_by_name("SvcHost.exe").category,
            ProcessCategory::kWindows);
}

TEST(ProcName, PathPrefixStripped) {
  EXPECT_EQ(
      categorize_by_name("C:\\Program Files\\Mozilla Firefox\\firefox.exe")
          .browser,
      BrowserKind::kFirefox);
  EXPECT_EQ(categorize_by_name("/usr/bin/java.exe").category,
            ProcessCategory::kJava);
}

TEST(ProcName, SystemAndRuntimeNames) {
  EXPECT_EQ(categorize_by_name("svchost.exe").category,
            ProcessCategory::kWindows);
  EXPECT_EQ(categorize_by_name("rundll32.exe").category,
            ProcessCategory::kWindows);
  EXPECT_EQ(categorize_by_name("javaw.exe").category, ProcessCategory::kJava);
  EXPECT_EQ(categorize_by_name("acrord32.exe").category,
            ProcessCategory::kAcrobatReader);
}

TEST(ProcName, UnknownNamesAreOther) {
  EXPECT_EQ(categorize_by_name("setup.exe").category,
            ProcessCategory::kOther);
  EXPECT_EQ(categorize_by_name("").category, ProcessCategory::kOther);
  EXPECT_EQ(categorize_by_name("setup.exe").browser,
            BrowserKind::kNotABrowser);
}

TEST(ProcName, AnnotatedCorpusResolvesEveryProcessByName) {
  const auto& a = test::shared_pipeline(0.05).annotated();
  ASSERT_EQ(a.process_categories.size(), a.corpus->processes.size());
  std::uint64_t named = 0;
  for (std::uint32_t p = 0; p < a.corpus->processes.size(); ++p) {
    const model::ProcessId id{p};
    const auto expected = categorize_by_name(a.corpus->process_name(id));
    EXPECT_EQ(a.category(id).category, expected.category) << p;
    EXPECT_EQ(a.category(id).browser, expected.browser) << p;
    named += expected.category != ProcessCategory::kOther;
  }
  EXPECT_GT(named, 0u);
}

TEST(ProcName, MasqueradingMalwareStaysOutOfBenignTables) {
  // §V-A: the corpus contains malicious processes named like browsers and
  // Windows binaries; they must be excluded from the known-benign rows by
  // the whitelist/verdict check, not by trusting the name.
  const core::LongtailPipeline& pipeline = test::shared_pipeline(0.05);
  const auto& a = pipeline.annotated();

  std::uint64_t masquerading = 0;
  for (std::uint32_t p = 0; p < a.corpus->processes.size(); ++p) {
    if (a.labels.process_verdicts[p] == model::Verdict::kBenign) continue;
    const auto named =
        categorize_by_name(a.corpus->process_name(model::ProcessId{p}));
    masquerading += named.category != ProcessCategory::kOther;
  }
  // The generator plants them...
  EXPECT_GT(masquerading, 0u);

  // ...and the Table X computation never counts their downloads: every
  // event attributed to a named category must come from a whitelisted
  // (verdict-benign) process.
  const auto rows = benign_process_behavior(a);
  std::uint64_t benign_named_processes = 0;
  for (std::uint32_t p = 0; p < a.corpus->processes.size(); ++p) {
    if (a.labels.process_verdicts[p] != model::Verdict::kBenign) continue;
    const auto named =
        categorize_by_name(a.corpus->process_name(model::ProcessId{p}));
    benign_named_processes += named.category != ProcessCategory::kOther;
  }
  std::uint64_t counted = 0;
  for (std::size_t c = 0; c < model::kNumProcessCategories; ++c)
    if (c != static_cast<std::size_t>(ProcessCategory::kOther))
      counted += rows[c].processes;
  EXPECT_LE(counted, benign_named_processes);
}

}  // namespace
}  // namespace longtail::analysis
