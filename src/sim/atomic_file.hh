/**
 * @file
 * Write-then-rename for tool artifacts (traces, metrics, bench JSON).
 *
 * The artifact is written to "<path>.tmp.<pid>" in the same directory
 * and renamed over @p path only after the stream has been flushed
 * without error. Whoever reads @p path, including a second run that
 * overlaps this one, sees the previous file or the complete new one,
 * never a torn write; a failed write leaves no temporary behind.
 */

#ifndef JORD_SIM_ATOMIC_FILE_HH
#define JORD_SIM_ATOMIC_FILE_HH

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/logging.hh"

namespace jord::sim {

/**
 * Atomically replace @p path with what @p write puts on the stream it
 * is handed. Returns false if the temporary cannot be created, written
 * or renamed.
 */
template <typename Writer>
bool
writeFileAtomic(const std::string &path, Writer &&write)
{
    const std::string tmp = path + ".tmp." + std::to_string(getpid());
    {
        std::ofstream out(tmp);
        if (!out)
            return false;
        write(out);
        out.close();
        if (!out) {
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
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
