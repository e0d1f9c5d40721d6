#include "mem/coherence.hh"

#include <algorithm>
#include <bit>

#include "prof/pmu.hh"
#include "sim/logging.hh"

namespace jord::mem {

using sim::Addr;
using sim::Cycles;

CoherenceEngine::CoherenceEngine(const sim::MachineConfig &cfg,
                                 const noc::Mesh &mesh)
    : cfg_(cfg), mesh_(mesh), l1s_(cfg.numCores)
{
    if (cfg.numCores > kMaxCores)
        sim::fatal("%u cores exceed the %u the coherence directory tracks",
              cfg.numCores, kMaxCores);
}

// --- FlatIndex ---------------------------------------------------------------

std::size_t
CoherenceEngine::FlatIndex::home(std::uint64_t key) const
{
    // Fibonacci hashing: the top bits of the product depend on every
    // key bit.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    shift_);
}

std::uint32_t
CoherenceEngine::FlatIndex::find(std::uint64_t key) const
{
    if (slots_.empty())
        return kNil;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
        const Slot &slot = slots_[i];
        if (slot.value == kNil || slot.key == key)
            return slot.value;
    }
}

std::uint32_t
CoherenceEngine::FlatIndex::findOrInsert(std::uint64_t key,
                                         std::uint32_t value)
{
    if (2 * (size_ + 1) > slots_.size())
        grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
        Slot &slot = slots_[i];
        if (slot.value == kNil) {
            slot = Slot{key, value};
            ++size_;
            return value;
        }
        if (slot.key == key)
            return slot.value;
    }
}

std::uint32_t
CoherenceEngine::FlatIndex::erase(std::uint64_t key)
{
    if (slots_.empty())
        return kNil;
    std::size_t hole = home(key);
    while (slots_[hole].value != kNil && slots_[hole].key != key)
        hole = (hole + 1) & mask();
    std::uint32_t value = slots_[hole].value;
    if (value == kNil)
        return kNil;
    // Backward shift: pull each later entry of the run into the hole
    // unless the hole lies before its home slot (cyclically).
    for (std::size_t i = (hole + 1) & mask(); slots_[i].value != kNil;
         i = (i + 1) & mask()) {
        std::size_t h = home(slots_[i].key);
        if (((i - h) & mask()) >= ((i - hole) & mask())) {
            slots_[hole] = slots_[i];
            hole = i;
        }
    }
    slots_[hole] = Slot{};
    --size_;
    return value;
}

void
CoherenceEngine::FlatIndex::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
}

void
CoherenceEngine::FlatIndex::grow()
{
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    shift_ = static_cast<unsigned>(64 - std::countr_zero(slots_.size()));
    size_ = 0;
    for (const Slot &slot : old)
        if (slot.value != kNil)
            findOrInsert(slot.key, slot.value);
}

// --- Lines and L1 residency --------------------------------------------------

std::uint32_t
CoherenceEngine::lineFor(Addr addr)
{
    auto next = static_cast<std::uint32_t>(lines_.size());
    std::uint32_t line =
        lineIndex_.findOrInsert(addr / sim::kCacheBlockBytes, next);
    if (line == next)
        lines_.emplace_back();
    return line;
}

std::uint32_t
CoherenceEngine::findLine(Addr addr) const
{
    return lineIndex_.find(addr / sim::kCacheBlockBytes);
}

void
CoherenceEngine::unlink(CoreL1 &l1, std::uint32_t node)
{
    const LruNode &n = nodes_[node];
    (n.prev != kNil ? nodes_[n.prev].next : l1.head) = n.next;
    (n.next != kNil ? nodes_[n.next].prev : l1.tail) = n.prev;
}

void
CoherenceEngine::pushFront(CoreL1 &l1, std::uint32_t node)
{
    nodes_[node].prev = kNil;
    nodes_[node].next = l1.head;
    (l1.head != kNil ? nodes_[l1.head].prev : l1.tail) = node;
    l1.head = node;
}

void
CoherenceEngine::touchL1(unsigned core, std::uint32_t line)
{
    CoreL1 &l1 = l1s_[core];
    std::uint32_t fresh = freeNodes_ != kNil
                              ? freeNodes_
                              : static_cast<std::uint32_t>(nodes_.size());
    std::uint32_t node =
        residency_.findOrInsert(residencyKey(line, core), fresh);
    if (node != fresh) {
        // Hit: move to the MRU end.
        if (node != l1.head) {
            unlink(l1, node);
            pushFront(l1, node);
        }
        return;
    }
    if (fresh == freeNodes_)
        freeNodes_ = nodes_[fresh].next;
    else
        nodes_.emplace_back();
    nodes_[fresh].line = line;
    pushFront(l1, fresh);
    ++l1.size;
    while (l1.size > cfg_.l1Lines) {
        std::uint32_t victim = nodes_[l1.tail].line;
        residency_.erase(residencyKey(victim, core));
        freeNode(l1, l1.tail);
        evictL1Line(core, lines_[victim]);
    }
}

void
CoherenceEngine::freeNode(CoreL1 &l1, std::uint32_t node)
{
    unlink(l1, node);
    --l1.size;
    nodes_[node].next = freeNodes_;
    freeNodes_ = node;
}

void
CoherenceEngine::dropFromL1(unsigned core, std::uint32_t line)
{
    std::uint32_t node = residency_.erase(residencyKey(line, core));
    if (node != kNil)
        freeNode(l1s_[core], node);
}

CacheState
CoherenceEngine::stateOf(Addr addr) const
{
    std::uint32_t line = findLine(addr);
    return line == kNil ? CacheState::Invalid : lines_[line].state;
}

bool
CoherenceEngine::cachedIn(unsigned core, Addr addr) const
{
    std::uint32_t line = findLine(addr);
    return line != kNil && lines_[line].sharers.test(core);
}

CoreMask
CoherenceEngine::sharersOf(Addr addr) const
{
    std::uint32_t line = findLine(addr);
    return line == kNil ? CoreMask{} : lines_[line].sharers;
}

Cycles
CoherenceEngine::invalidateSharers(unsigned home, Line &line,
                                   std::uint32_t line_index,
                                   unsigned except, unsigned &messages)
{
    Cycles worst = 0;
    line.sharers.forEach([&](unsigned sharer) {
        if (sharer == except)
            return;
        // Invalidate request out + ack back, overlapped across sharers:
        // the shootdown completes when the furthest core acks (§6.3).
        Cycles rt = mesh_.roundTrip(home, sharer, noc::MsgKind::Control);
        worst = std::max(worst, rt);
        messages += 2;
        ++stats_.invalidations;
        dropFromL1(sharer, line_index);
    });
    CoreMask keep;
    if (line.sharers.test(except))
        keep.set(except);
    line.sharers = keep;
    return worst;
}

void
CoherenceEngine::notePmu(unsigned core, const Access &acc, unsigned home)
{
    if (!pmu_)
        return;
    pmu_->add(core, prof::PmuCounter::RetiredOps);
    if (acc.l1Hit) {
        pmu_->add(core, prof::PmuCounter::L1Hits);
        return;
    }
    if (acc.llcHit)
        pmu_->add(core, prof::PmuCounter::LlcHits);
    else
        pmu_->add(core, prof::PmuCounter::DramFills);
    pmu_->add(core, prof::PmuCounter::NocMsgs, acc.messages);
    pmu_->add(core, prof::PmuCounter::NocHops,
              static_cast<std::uint64_t>(mesh_.hops(core, home)) *
                  acc.messages);
    // The cycles beyond the L1 probe stalled on cross-core traffic.
    pmu_->charge(core, prof::PmuBucket::Noc,
                 acc.latency - cfg_.l1HitCycles);
}

Access
CoherenceEngine::read(unsigned core, Addr addr, bool tbit)
{
    addr = sim::blockAlign(addr);
    ++stats_.reads;
    if (tbit)
        ++stats_.tbitReads;
    std::uint32_t index = lineFor(addr);
    Line &line = lines_[index];
    Access acc;

    if (line.state != CacheState::Invalid && line.sharers.test(core)) {
        // L1 hit in any valid state. Translation reads still register
        // with the VTD: a VLB fill served from the local L1 is a
        // sharer that later shootdowns must reach even after this
        // block leaves the L1 (and with it the directory's list).
        acc.l1Hit = true;
        acc.latency = cfg_.l1HitCycles;
        ++stats_.l1Hits;
        touchL1(core, index);
        if (tbit && observer_)
            observer_->translationRead(core, addr);
        notePmu(core, acc, core);
        return acc;
    }

    unsigned home = mesh_.homeSlice(addr, core);
    Cycles lat = cfg_.l1HitCycles; // detect the miss
    lat += mesh_.latency(core, home, noc::MsgKind::Control);
    lat += cfg_.llcHitCycles;
    acc.messages = 1;

    if (line.state == CacheState::Modified ||
        line.state == CacheState::Exclusive) {
        // Fetch from the owner; the owner forwards data to the requester
        // and downgrades to Shared (writeback folded into the forward).
        unsigned owner = line.owner;
        lat += mesh_.latency(home, owner, noc::MsgKind::Control);
        lat += mesh_.latency(owner, core, noc::MsgKind::Data);
        acc.messages += 2;
        line.inLlc = true;
        line.state = CacheState::Shared;
        line.sharers.set(core);
        acc.llcHit = true;
        ++stats_.llcHits;
    } else if (line.inLlc || line.state == CacheState::Shared) {
        lat += mesh_.latency(home, core, noc::MsgKind::Data);
        acc.messages += 1;
        acc.llcHit = true;
        ++stats_.llcHits;
        if (line.state == CacheState::Invalid || line.sharers.none()) {
            line.state = CacheState::Exclusive;
            line.owner = core;
        } else {
            line.state = CacheState::Shared;
        }
        line.sharers.set(core);
    } else {
        // Cold: fill from DRAM through the home slice.
        lat += cfg_.dramCycles;
        lat += mesh_.latency(home, core, noc::MsgKind::Data);
        acc.messages += 1;
        ++stats_.dramFills;
        line.inLlc = true;
        line.state = CacheState::Exclusive;
        line.owner = core;
        line.sharers.set(core);
    }

    touchL1(core, index);

    if (tbit && observer_)
        observer_->translationRead(core, addr);

    acc.latency = lat;
    stats_.messages += acc.messages;
    notePmu(core, acc, home);
    return acc;
}

Access
CoherenceEngine::write(unsigned core, Addr addr, bool tbit)
{
    addr = sim::blockAlign(addr);
    ++stats_.writes;
    if (tbit)
        ++stats_.tbitWrites;
    std::uint32_t index = lineFor(addr);
    Line &line = lines_[index];
    Access acc;

    bool own_exclusive =
        (line.state == CacheState::Modified ||
         line.state == CacheState::Exclusive) &&
        line.owner == core && line.sharers.test(core);

    if (own_exclusive) {
        // Silent E->M upgrade or plain M hit: no coherence traffic.
        line.state = CacheState::Modified;
        acc.l1Hit = true;
        acc.latency = cfg_.l1HitCycles;
        ++stats_.l1Hits;
        touchL1(core, index);
        if (tbit && observer_)
            observer_->translationWriteLocal(core, addr);
        notePmu(core, acc, core);
        return acc;
    }

    unsigned home = mesh_.homeSlice(addr, core);
    Cycles lat = cfg_.l1HitCycles;
    lat += mesh_.latency(core, home, noc::MsgKind::Control);
    lat += cfg_.llcHitCycles;
    acc.messages = 1;

    CoreMask prev_sharers = line.sharers;

    if (line.state == CacheState::Modified ||
        line.state == CacheState::Exclusive) {
        // Another core owns it: invalidate-and-forward.
        unsigned owner = line.owner;
        lat += mesh_.latency(home, owner, noc::MsgKind::Control);
        lat += mesh_.latency(owner, core, noc::MsgKind::Data);
        acc.messages += 2;
        ++stats_.invalidations;
        line.sharers.forEach(
            [&](unsigned sharer) { dropFromL1(sharer, index); });
        line.sharers.reset();
        line.inLlc = true;
        acc.llcHit = true;
        ++stats_.llcHits;
    } else if (line.state == CacheState::Shared) {
        // Upgrade: parallel invalidations to all other sharers; data comes
        // from the LLC if this core was not already a sharer.
        Cycles inval =
            invalidateSharers(home, line, index, core, acc.messages);
        Cycles data = line.sharers.test(core)
                          ? 0
                          : mesh_.latency(home, core, noc::MsgKind::Data);
        if (data > 0)
            acc.messages += 1;
        lat += std::max(inval, data);
        acc.llcHit = true;
        ++stats_.llcHits;
    } else if (line.inLlc) {
        lat += mesh_.latency(home, core, noc::MsgKind::Data);
        acc.messages += 1;
        acc.llcHit = true;
        ++stats_.llcHits;
    } else {
        lat += cfg_.dramCycles;
        lat += mesh_.latency(home, core, noc::MsgKind::Data);
        acc.messages += 1;
        ++stats_.dramFills;
        line.inLlc = true;
    }

    line.state = CacheState::Modified;
    line.owner = core;
    line.sharers.reset();
    line.sharers.set(core);
    touchL1(core, index);

    if (tbit && observer_) {
        lat += observer_->translationWrite(core, addr, prev_sharers);
    }

    acc.latency = lat;
    stats_.messages += acc.messages;
    notePmu(core, acc, home);
    return acc;
}

Access
CoherenceEngine::atomic(unsigned core, Addr addr)
{
    ++stats_.atomics;
    Access acc = write(core, addr, false);
    acc.latency += 1; // ALU forwarding for the read-modify-write
    return acc;
}

void
CoherenceEngine::evictL1(unsigned core, Addr addr)
{
    std::uint32_t line = findLine(addr);
    if (line != kNil)
        evictL1Line(core, lines_[line]);
}

void
CoherenceEngine::evictL1Line(unsigned core, Line &line)
{
    if (!line.sharers.test(core))
        return;
    line.sharers.clear(core);
    if ((line.state == CacheState::Modified ||
         line.state == CacheState::Exclusive) &&
        line.owner == core) {
        // Writeback (or clean replacement): LLC now holds the only copy.
        line.state = line.sharers.none() ? CacheState::Invalid
                                         : CacheState::Shared;
        line.inLlc = true;
    } else if (line.sharers.none()) {
        line.state = CacheState::Invalid;
    }
}

void
CoherenceEngine::evictDirectory(Addr addr)
{
    // Every access leaves its block with an LLC copy, so a line without
    // one was reset here before and is as absent as an untouched block.
    std::uint32_t line = findLine(addr);
    if (line == kNil || !lines_[line].inLlc)
        return;
    if (observer_)
        observer_->directoryEvict(sim::blockAlign(addr),
                                  lines_[line].sharers);
    // Reset rather than free: L1 entries left behind still name the slot.
    lines_[line] = Line{};
}

void
CoherenceEngine::flushAll()
{
    lines_.clear();
    lineIndex_.clear();
    nodes_.clear();
    freeNodes_ = kNil;
    residency_.clear();
    std::fill(l1s_.begin(), l1s_.end(), CoreL1{});
}

} // namespace jord::mem
