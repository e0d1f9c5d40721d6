/**
 * @file
 * Write-then-rename for tool artifacts (traces, metrics, bench JSON).
 *
 * The artifact is written to "<path>.tmp.<pid>" in the same directory
 * and renamed over @p path only after the stream has been flushed
 * without error. Whoever reads @p path, including a second run that
 * overlaps this one, sees the previous file or the complete new one,
 * never a torn write; a failed write leaves no temporary behind.
 *
 * A symlink is followed and its final target is the file replaced, so
 * the link stays a link. A target that exists but is not a regular
 * file (a device such as /dev/null, a FIFO) cannot be renamed over and
 * is written in place instead.
 */

#ifndef JORD_SIM_ATOMIC_FILE_HH
#define JORD_SIM_ATOMIC_FILE_HH

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "sim/logging.hh"

namespace jord::sim {

/** @p path with symlinks in its last component followed (at most 40
 * of them, the usual loop limit); a dangling link yields its target. */
inline std::filesystem::path
followLinks(const std::filesystem::path &path)
{
    namespace fs = std::filesystem;
    fs::path p = path;
    std::error_code ec;
    for (int hops = 0; hops < 40 && fs::is_symlink(p, ec); ++hops) {
        fs::path target = fs::read_symlink(p, ec);
        if (ec)
            break;
        p = target.is_absolute() ? target : p.parent_path() / target;
    }
    return p;
}

/** Put what @p write emits into the stream opened on @p path. */
template <typename Writer>
bool
writeStream(const std::string &path, Writer &&write)
{
    std::ofstream out(path);
    if (!out)
        return false;
    write(out);
    out.close();
    return static_cast<bool>(out);
}

/**
 * Atomically replace @p path with what @p write puts on the stream it
 * is handed. Returns false if the temporary cannot be created, written
 * or renamed.
 */
template <typename Writer>
bool
writeFileAtomic(const std::string &path, Writer &&write)
{
    const std::string target = followLinks(path).string();
    std::error_code ec;
    auto status = std::filesystem::status(target, ec);
    if (std::filesystem::exists(status) &&
        !std::filesystem::is_regular_file(status))
        return writeStream(target, write);

    const std::string tmp = target + ".tmp." + std::to_string(getpid());
    if (!writeStream(tmp, write)) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), target.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

/** writeFileAtomic() for a tool artifact; a failed write is fatal. */
template <typename Writer>
void
writeArtifact(const std::string &path, Writer &&write)
{
    if (!writeFileAtomic(path, write))
        fatal("cannot write '%s'", path.c_str());
}

} // namespace jord::sim

#endif // JORD_SIM_ATOMIC_FILE_HH
