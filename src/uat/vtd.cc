#include "uat/vtd.hh"

#include "sim/logging.hh"
#include "sim/types.hh"

namespace jord::uat {

using sim::Addr;

Vtd::Vtd(const sim::MachineConfig &cfg, const noc::Mesh &mesh)
    : cfg_(cfg), mesh_(mesh)
{
    std::uint64_t total = static_cast<std::uint64_t>(cfg.vtdSets) *
                          cfg.vtdWays * cfg.numCores;
    tags_.assign(total, 0);
    sharers_.assign(total, mem::CoreMask{});
    lastUse_.assign(total, 0);
}

std::size_t
Vtd::setBase(Addr vte_addr) const
{
    Addr block = sim::blockAlign(vte_addr);
    unsigned slice = mesh_.homeSlice(block, 0) % cfg_.numCores;
    std::uint64_t set = (block / sim::kCacheBlockBytes) % cfg_.vtdSets;
    return (static_cast<std::size_t>(slice) * cfg_.vtdSets + set) *
           cfg_.vtdWays;
}

std::ptrdiff_t
Vtd::find(Addr vte_addr) const
{
    Addr tag = tagOf(vte_addr);
    std::size_t base = setBase(vte_addr);
    for (unsigned way = 0; way < cfg_.vtdWays; ++way) {
        if (tags_[base + way] == tag)
            return static_cast<std::ptrdiff_t>(base + way);
    }
    return -1;
}

std::size_t
Vtd::claimSlot(Addr vte_addr, std::optional<Evicted> &out)
{
    std::size_t base = setBase(vte_addr);
    std::size_t slot = base;
    for (unsigned way = 0; way < cfg_.vtdWays; ++way) {
        std::size_t i = base + way;
        if (tags_[i] == 0) {
            tags_[i] = tagOf(vte_addr);
            return i;
        }
        if (lastUse_[i] < lastUse_[slot])
            slot = i;
    }
    ++stats_.evictions;
    if (sharers_[slot].any())
        out = Evicted{tags_[slot] & ~Addr{1}, sharers_[slot]};
    tags_[slot] = tagOf(vte_addr);
    return slot;
}

std::optional<Vtd::Evicted>
Vtd::addSharer(Addr vte_addr, unsigned core)
{
    ++stats_.reads;
    std::optional<Evicted> evicted;
    std::ptrdiff_t hit = find(vte_addr);
    std::size_t slot = 0;
    if (hit >= 0) {
        slot = static_cast<std::size_t>(hit);
    } else {
        slot = claimSlot(vte_addr, evicted);
        sharers_[slot].reset();
    }
    sharers_[slot].set(core);
    lastUse_[slot] = ++useClock_;
    return evicted;
}

std::optional<mem::CoreMask>
Vtd::sharers(Addr vte_addr) const
{
    std::ptrdiff_t slot = find(vte_addr);
    if (slot < 0)
        return std::nullopt;
    return sharers_[static_cast<std::size_t>(slot)];
}

void
Vtd::remove(Addr vte_addr)
{
    // A freed slot's sharers are rewritten when it is next claimed.
    std::ptrdiff_t slot = find(vte_addr);
    if (slot >= 0)
        tags_[static_cast<std::size_t>(slot)] = 0;
}

std::optional<Vtd::Evicted>
Vtd::installPessimistic(Addr vte_addr, const mem::CoreMask &sharers)
{
    if (find(vte_addr) >= 0)
        return std::nullopt; // already tracked precisely
    if (sharers.none())
        return std::nullopt;
    ++stats_.victims;
    std::optional<Evicted> evicted;
    std::size_t slot = claimSlot(vte_addr, evicted);
    sharers_[slot] = sharers;
    lastUse_[slot] = ++useClock_;
    return evicted;
}

} // namespace jord::uat
