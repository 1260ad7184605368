// The one way tests get a directory for files they write.
//
// ctest runs every test as its own process, many at once under -j, so a
// fixed directory name lets one test delete or rewrite files another is
// still reading (or has mapped: a truncated mapping is a SIGBUS). A
// ScratchDir is named from the process id plus a scope and is created
// fresh on construction and removed, with its contents, on destruction.
//
//   * Per-test scope (the default constructor): the scope is the running
//     gtest "Suite.Test" name. Use it as a local or a fixture member.
//   * Per-process scope (for_process): for files cached across the tests
//     of one process, held in a function-local static so the directory is
//     removed at exit:
//       static const ScratchDir dir = ScratchDir::for_process("mapped");
//
// CI rejects any other use of temp_directory_path under tests/.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace longtail::test {

class ScratchDir {
 public:
  ScratchDir() : ScratchDir(current_test_scope()) {}

  static ScratchDir for_process(std::string_view tag) {
    return ScratchDir("process_" + std::string(tag));
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  ~ScratchDir() {
    std::error_code ec;  // best effort: never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  // Path of `name` inside the directory.
  [[nodiscard]] std::string file(std::string_view name) const {
    return (path_ / name).string();
  }

 private:
  explicit ScratchDir(const std::string& scope)
      : path_(std::filesystem::temp_directory_path() /
              ("longtail_" + std::to_string(::getpid()) + "_" +
               sanitize(scope))) {
    std::filesystem::remove_all(path_);  // left over from a reused pid
    std::filesystem::create_directories(path_);
  }

  static std::string current_test_scope() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    if (info == nullptr) return "no_test";
    return std::string(info->test_suite_name()) + "." + info->name();
  }

  // Parameterized test names carry '/'; keep the name one path component.
  static std::string sanitize(std::string s) {
    for (char& c : s) {
      const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
      if (!keep) c = '_';
    }
    return s;
  }

  std::filesystem::path path_;
};

}  // namespace longtail::test
