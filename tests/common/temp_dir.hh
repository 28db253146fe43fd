/**
 * @file
 * A per-test temporary directory. ctest runs every test in its own
 * process, concurrently under -j and repeatedly under --repeat, so a
 * test that names its files, sockets or trees after anything less
 * than itself and its process shares them with another live test.
 *
 * TestTempDir makes <TempDir>/laoram_<suite>.<test>.<pid>/ (the
 * suite and test names of the running gtest, '/' of parameterised
 * names mapped to '_') and removes it recursively when destroyed, so
 * a test leaves nothing behind even when an assertion ends it early.
 * Make one per test: as a fixture member, or a local at the top of a
 * TEST body.
 */

#ifndef LAORAM_TESTS_COMMON_TEMP_DIR_HH
#define LAORAM_TESTS_COMMON_TEMP_DIR_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace laoram {

class TestTempDir
{
  public:
    TestTempDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string leaf = std::string("laoram_")
                           + info->test_suite_name() + "."
                           + info->name() + "."
                           + std::to_string(::getpid());
        std::replace(leaf.begin(), leaf.end(), '/', '_');
        root = ::testing::TempDir() + leaf;
        std::filesystem::remove_all(root); // a dead run's leftovers
        std::filesystem::create_directories(root);
    }

    ~TestTempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(root, ignored);
    }

    TestTempDir(const TestTempDir &) = delete;
    TestTempDir &operator=(const TestTempDir &) = delete;

    /** @p name inside the directory. */
    std::string
    path(const std::string &name) const
    {
        return root + "/" + name;
    }

  private:
    std::string root;
};

} // namespace laoram

#endif // LAORAM_TESTS_COMMON_TEMP_DIR_HH
