/**
 * @file
 * The host-speed reference kernel. It calls nothing in the simulator,
 * so no change to the simulator can change its work; it exists only
 * to measure how fast the host runs this thread right now.
 */

#include <algorithm>

#include "perfbench.hh"

namespace perfbench {

namespace {

constexpr unsigned kMapEntries = 200000;
constexpr unsigned kMapLookups = 200000;
constexpr unsigned kHeapOps = 200000;
constexpr std::size_t kHeapCap = 4096;

/** splitmix64: the kernel's fixed, seed-independent input stream. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

HostSpeed::HostSpeed()
{
    std::uint64_t state = 1;
    map_.reserve(kMapEntries);
    for (unsigned i = 0; i < kMapEntries; ++i)
        map_[nextRandom(state) % (4 * kMapEntries)] = i;
    heap_.reserve(kHeapCap + 1);
}

double
HostSpeed::sample()
{
    Clock::time_point t0 = Clock::now();
    // Hash-map lookups and a bounded binary heap: the simulator's
    // tables and event queue do the same kinds of work.
    std::uint64_t state = 2;
    for (unsigned i = 0; i < kMapLookups; ++i) {
        auto it = map_.find(nextRandom(state) % (4 * kMapEntries));
        sink_ += it == map_.end() ? 1 : it->second;
    }
    heap_.clear();
    for (unsigned i = 0; i < kHeapOps; ++i) {
        heap_.push_back(nextRandom(state));
        std::push_heap(heap_.begin(), heap_.end());
        if (heap_.size() > kHeapCap) {
            std::pop_heap(heap_.begin(), heap_.end());
            heap_.pop_back();
        }
    }
    sink_ += heap_.front();
    return seconds(t0, Clock::now());
}

} // namespace perfbench
