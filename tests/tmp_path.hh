/**
 * @file
 * Per-process scratch files for tests that write to disk.
 *
 * ctest runs every discovered test as its own process, several at a
 * time, so fixed names under testing::TempDir() let concurrent tests
 * clobber each other's files. tmpPath() places every name inside one
 * directory made with mkdtemp(3) on first use and removed at exit.
 */

#ifndef JORD_TESTS_TMP_PATH_HH
#define JORD_TESTS_TMP_PATH_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace jord::test {

/** @return @p name inside this process's private scratch directory. */
inline std::string
tmpPath(const std::string &name)
{
    struct Dir {
        std::string path;
        pid_t owner = getpid();

        Dir()
        {
            std::string tmpl = testing::TempDir() + "jord_XXXXXX";
            if (mkdtemp(tmpl.data()) == nullptr) {
                std::perror("mkdtemp");
                std::abort();
            }
            path = tmpl + "/";
        }

        ~Dir()
        {
            // A forked death-test child exits through here too; only
            // the process that made the directory removes it.
            if (getpid() != owner)
                return;
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Dir dir;
    return dir.path + name;
}

} // namespace jord::test

#endif // JORD_TESTS_TMP_PATH_HH
