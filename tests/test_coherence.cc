/**
 * @file
 * Tests for the directory-based MESI coherence engine: state
 * transitions, timing ordering, L1 capacity, atomics, the T-bit
 * observer protocol, the core-count limit, and a seeded differential
 * run against a node-based reference engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "mem/coherence.hh"
#include "sim/rng.hh"

namespace {

using jord::mem::Access;
using jord::mem::CacheState;
using jord::mem::CoherenceEngine;
using jord::mem::CoherenceStats;
using jord::mem::CoreMask;
using jord::mem::TranslationObserver;
using jord::noc::Mesh;
using jord::sim::Addr;
using jord::sim::Cycles;
using jord::sim::MachineConfig;

constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2000;

class CoherenceTest : public ::testing::Test
{
  protected:
    MachineConfig cfg = MachineConfig::isca25Default();
    Mesh mesh{cfg};
    CoherenceEngine engine{cfg, mesh};
};

TEST_F(CoherenceTest, ColdReadFillsExclusiveFromDram)
{
    Access acc = engine.read(0, kA);
    EXPECT_FALSE(acc.l1Hit);
    EXPECT_FALSE(acc.llcHit);
    EXPECT_GE(acc.latency, cfg.dramCycles);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Exclusive);
    EXPECT_TRUE(engine.cachedIn(0, kA));
}

TEST_F(CoherenceTest, SecondReadIsL1Hit)
{
    engine.read(0, kA);
    Access acc = engine.read(0, kA);
    EXPECT_TRUE(acc.l1Hit);
    EXPECT_EQ(acc.latency, cfg.l1HitCycles);
    EXPECT_EQ(acc.messages, 0u);
}

TEST_F(CoherenceTest, SharedReadersDowngradeToShared)
{
    engine.read(0, kA);
    Access acc = engine.read(1, kA);
    EXPECT_FALSE(acc.l1Hit);
    EXPECT_TRUE(acc.llcHit);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Shared);
    EXPECT_TRUE(engine.cachedIn(0, kA));
    EXPECT_TRUE(engine.cachedIn(1, kA));
    EXPECT_EQ(engine.sharersOf(kA).count(), 2u);
}

TEST_F(CoherenceTest, WriteMakesModified)
{
    engine.write(0, kA);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Modified);
    Access again = engine.write(0, kA);
    EXPECT_TRUE(again.l1Hit);
    EXPECT_EQ(again.latency, cfg.l1HitCycles);
}

TEST_F(CoherenceTest, SilentExclusiveToModifiedUpgrade)
{
    engine.read(0, kA); // E
    Access acc = engine.write(0, kA);
    EXPECT_TRUE(acc.l1Hit);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Modified);
}

TEST_F(CoherenceTest, UpgradeInvalidatesOtherSharers)
{
    engine.read(0, kA);
    engine.read(1, kA);
    engine.read(2, kA);
    auto before = engine.stats().invalidations;
    Access acc = engine.write(1, kA);
    EXPECT_FALSE(acc.l1Hit);
    EXPECT_EQ(engine.stats().invalidations, before + 2);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Modified);
    EXPECT_FALSE(engine.cachedIn(0, kA));
    EXPECT_TRUE(engine.cachedIn(1, kA));
    EXPECT_FALSE(engine.cachedIn(2, kA));
}

TEST_F(CoherenceTest, DirtyRemoteReadForwardsFromOwner)
{
    engine.write(0, kA);
    Access acc = engine.read(1, kA);
    EXPECT_TRUE(acc.llcHit);
    EXPECT_GE(acc.messages, 3u);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Shared);
    // Owner forward must cost more than a plain LLC fetch.
    engine.flushAll();
    engine.read(2, kB);
    engine.evictL1(2, kB);
    Access llc_only = engine.read(1, kB);
    EXPECT_GT(acc.latency, cfg.l1HitCycles);
    EXPECT_TRUE(llc_only.llcHit);
}

TEST_F(CoherenceTest, RemoteDirtyWriteTransfersOwnership)
{
    engine.write(0, kA);
    Access acc = engine.write(1, kA);
    EXPECT_FALSE(acc.l1Hit);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Modified);
    EXPECT_TRUE(engine.cachedIn(1, kA));
    EXPECT_FALSE(engine.cachedIn(0, kA));
}

TEST_F(CoherenceTest, LatencyOrderingL1LlcDram)
{
    Access dram = engine.read(0, kA); // cold
    engine.evictL1(0, kA);
    Access llc = engine.read(0, kA); // LLC
    Access l1 = engine.read(0, kA);  // L1
    EXPECT_LT(l1.latency, llc.latency);
    EXPECT_LT(llc.latency, dram.latency);
}

TEST_F(CoherenceTest, EvictL1WritesBackDirtyLine)
{
    engine.write(0, kA);
    engine.evictL1(0, kA);
    EXPECT_FALSE(engine.cachedIn(0, kA));
    EXPECT_EQ(engine.stateOf(kA), CacheState::Invalid);
    // The block stays on chip: refetch hits the LLC.
    Access acc = engine.read(0, kA);
    EXPECT_TRUE(acc.llcHit);
}

TEST_F(CoherenceTest, AtomicBehavesLikeWritePlusAlu)
{
    Access w = engine.write(0, kA);
    engine.flushAll();
    Access a = engine.atomic(0, kA);
    EXPECT_EQ(a.latency, w.latency + 1);
    EXPECT_EQ(engine.stats().atomics, 1u);
}

TEST_F(CoherenceTest, L1CapacityEvictsLru)
{
    // Fill the L1 beyond capacity; the first line must be gone.
    for (unsigned i = 0; i < cfg.l1Lines + 10; ++i)
        engine.read(0, kA + static_cast<Addr>(i) * 64);
    EXPECT_FALSE(engine.cachedIn(0, kA));
    EXPECT_TRUE(engine.cachedIn(
        0, kA + static_cast<Addr>(cfg.l1Lines + 9) * 64));
    // The evicted line refetches from the LLC, not DRAM.
    Access acc = engine.read(0, kA);
    EXPECT_TRUE(acc.llcHit);
}

TEST_F(CoherenceTest, L1LruKeepsHotLines)
{
    engine.read(0, kA); // will be kept hot
    for (unsigned i = 0; i < cfg.l1Lines - 1; ++i) {
        engine.read(0, kB + static_cast<Addr>(i) * 64);
        engine.read(0, kA); // touch to keep at MRU
    }
    // One more line evicts the LRU (an early kB line), not kA.
    engine.read(0, kB + static_cast<Addr>(cfg.l1Lines) * 64);
    EXPECT_TRUE(engine.cachedIn(0, kA));
}

TEST_F(CoherenceTest, StatsCount)
{
    engine.read(0, kA);
    engine.read(0, kA);
    engine.write(1, kA);
    const auto &stats = engine.stats();
    EXPECT_EQ(stats.reads, 2u);
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.l1Hits, 1u);
    EXPECT_EQ(stats.dramFills, 1u);
    EXPECT_GT(stats.messages, 0u);
}

TEST_F(CoherenceTest, SubBlockAddressesShareALine)
{
    engine.read(0, kA);
    Access acc = engine.read(0, kA + 32);
    EXPECT_TRUE(acc.l1Hit);
}

// --- T-bit observer protocol ------------------------------------------------

struct RecordingObserver : TranslationObserver {
    unsigned reads = 0;
    unsigned writes = 0;
    unsigned locals = 0;
    unsigned evicts = 0;
    CoreMask lastDir;
    Cycles extra = 0;

    void
    translationRead(unsigned, Addr) override
    {
        ++reads;
    }
    Cycles
    translationWrite(unsigned, Addr, const CoreMask &dir) override
    {
        ++writes;
        lastDir = dir;
        return extra;
    }
    void
    translationWriteLocal(unsigned, Addr) override
    {
        ++locals;
    }
    void
    directoryEvict(Addr, const CoreMask &dir) override
    {
        ++evicts;
        lastDir = dir;
    }
};

TEST_F(CoherenceTest, TbitReadNotifiesObserverOnHitsToo)
{
    // Every translation read registers the sharer, L1 hits included:
    // a VLB fill served from the local L1 must stay visible to later
    // shootdowns even after the block leaves the L1 (and with it the
    // directory's sharer list).
    RecordingObserver obs;
    engine.setTranslationObserver(&obs);
    engine.read(0, kA, true);
    EXPECT_EQ(obs.reads, 1u);
    engine.read(0, kA, true); // L1 hit: still registers
    EXPECT_EQ(obs.reads, 2u);
}

TEST_F(CoherenceTest, TbitWriteLocalWhenDirtyInOwnL1)
{
    RecordingObserver obs;
    engine.setTranslationObserver(&obs);
    engine.write(0, kA, true); // miss -> translationWrite
    EXPECT_EQ(obs.writes, 1u);
    engine.write(0, kA, true); // M hit -> local
    EXPECT_EQ(obs.locals, 1u);
    EXPECT_EQ(obs.writes, 1u);
}

TEST_F(CoherenceTest, TbitWritePassesDirectorySharers)
{
    RecordingObserver obs;
    engine.setTranslationObserver(&obs);
    engine.read(1, kA);
    engine.read(2, kA);
    engine.write(0, kA, true);
    EXPECT_TRUE(obs.lastDir.test(1));
    EXPECT_TRUE(obs.lastDir.test(2));
}

TEST_F(CoherenceTest, ObserverExtraLatencyIsAdded)
{
    RecordingObserver obs;
    obs.extra = 500;
    engine.setTranslationObserver(&obs);
    engine.read(1, kA);
    Access with = engine.write(0, kA, true);
    engine.flushAll();
    obs.extra = 0;
    engine.read(1, kA);
    Access without = engine.write(0, kA, true);
    EXPECT_EQ(with.latency, without.latency + 500);
}

TEST_F(CoherenceTest, DirectoryEvictNotifiesWithSharers)
{
    RecordingObserver obs;
    engine.setTranslationObserver(&obs);
    engine.read(3, kA);
    engine.evictDirectory(kA);
    EXPECT_EQ(obs.evicts, 1u);
    EXPECT_TRUE(obs.lastDir.test(3));
    EXPECT_EQ(engine.stateOf(kA), CacheState::Invalid);
}

// --- Core-count limit --------------------------------------------------------

TEST(CoherenceDeathTest, MoreCoresThanTheSharerMaskHoldsAreFatal)
{
    MachineConfig cfg = MachineConfig::scaled(512, 2);
    Mesh mesh{cfg};
    EXPECT_EXIT(CoherenceEngine(cfg, mesh), ::testing::ExitedWithCode(1),
                "512 cores exceed the 256");
}

TEST(CoherenceLimit, LargestScaledMachineIsAccepted)
{
    MachineConfig cfg = MachineConfig::scaled(jord::mem::kMaxCores, 2);
    Mesh mesh{cfg};
    CoherenceEngine engine{cfg, mesh};
    engine.read(cfg.numCores - 1, kA);
    EXPECT_TRUE(engine.cachedIn(cfg.numCores - 1, kA));
}

// --- Differential run against the node-based reference engine ---------------

/**
 * The engine as it was before its storage went flat: an
 * unordered_map line table and a std::list + unordered_map LRU per
 * core. Same protocol, same latencies, same victims.
 */
class ReferenceEngine
{
  public:
    ReferenceEngine(const MachineConfig &cfg, const Mesh &mesh)
        : cfg_(cfg), mesh_(mesh), l1s_(cfg.numCores)
    {
    }

    void setTranslationObserver(TranslationObserver *o) { observer_ = o; }
    const CoherenceStats &stats() const { return stats_; }

    CacheState
    stateOf(Addr addr) const
    {
        auto it = lines_.find(jord::sim::blockAlign(addr));
        return it == lines_.end() ? CacheState::Invalid : it->second.state;
    }

    bool
    cachedIn(unsigned core, Addr addr) const
    {
        auto it = lines_.find(jord::sim::blockAlign(addr));
        return it != lines_.end() && it->second.sharers.test(core);
    }

    CoreMask
    sharersOf(Addr addr) const
    {
        auto it = lines_.find(jord::sim::blockAlign(addr));
        return it == lines_.end() ? CoreMask{} : it->second.sharers;
    }

    Access
    read(unsigned core, Addr addr, bool tbit)
    {
        addr = jord::sim::blockAlign(addr);
        ++stats_.reads;
        if (tbit)
            ++stats_.tbitReads;
        Line &line = lines_[addr];
        Access acc;
        if (line.state != CacheState::Invalid && line.sharers.test(core)) {
            acc.l1Hit = true;
            acc.latency = cfg_.l1HitCycles;
            ++stats_.l1Hits;
            touchL1(core, addr);
            if (tbit && observer_)
                observer_->translationRead(core, addr);
            return acc;
        }
        unsigned home = mesh_.homeSlice(addr, core);
        Cycles lat = cfg_.l1HitCycles;
        lat += mesh_.latency(core, home, jord::noc::MsgKind::Control);
        lat += cfg_.llcHitCycles;
        acc.messages = 1;
        if (line.state == CacheState::Modified ||
            line.state == CacheState::Exclusive) {
            unsigned owner = line.owner;
            lat += mesh_.latency(home, owner, jord::noc::MsgKind::Control);
            lat += mesh_.latency(owner, core, jord::noc::MsgKind::Data);
            acc.messages += 2;
            line.inLlc = true;
            line.state = CacheState::Shared;
            line.sharers.set(core);
            acc.llcHit = true;
            ++stats_.llcHits;
        } else if (line.inLlc || line.state == CacheState::Shared) {
            lat += mesh_.latency(home, core, jord::noc::MsgKind::Data);
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
            lat += cfg_.dramCycles;
            lat += mesh_.latency(home, core, jord::noc::MsgKind::Data);
            acc.messages += 1;
            ++stats_.dramFills;
            line.inLlc = true;
            line.state = CacheState::Exclusive;
            line.owner = core;
            line.sharers.set(core);
        }
        touchL1(core, addr);
        if (tbit && observer_)
            observer_->translationRead(core, addr);
        acc.latency = lat;
        stats_.messages += acc.messages;
        return acc;
    }

    Access
    write(unsigned core, Addr addr, bool tbit)
    {
        addr = jord::sim::blockAlign(addr);
        ++stats_.writes;
        if (tbit)
            ++stats_.tbitWrites;
        Line &line = lines_[addr];
        Access acc;
        if ((line.state == CacheState::Modified ||
             line.state == CacheState::Exclusive) &&
            line.owner == core && line.sharers.test(core)) {
            line.state = CacheState::Modified;
            acc.l1Hit = true;
            acc.latency = cfg_.l1HitCycles;
            ++stats_.l1Hits;
            touchL1(core, addr);
            if (tbit && observer_)
                observer_->translationWriteLocal(core, addr);
            return acc;
        }
        unsigned home = mesh_.homeSlice(addr, core);
        Cycles lat = cfg_.l1HitCycles;
        lat += mesh_.latency(core, home, jord::noc::MsgKind::Control);
        lat += cfg_.llcHitCycles;
        acc.messages = 1;
        CoreMask prev_sharers = line.sharers;
        if (line.state == CacheState::Modified ||
            line.state == CacheState::Exclusive) {
            unsigned owner = line.owner;
            lat += mesh_.latency(home, owner, jord::noc::MsgKind::Control);
            lat += mesh_.latency(owner, core, jord::noc::MsgKind::Data);
            acc.messages += 2;
            ++stats_.invalidations;
            line.sharers.forEach(
                [&](unsigned sharer) { dropFromL1(sharer, addr); });
            line.sharers.reset();
            line.inLlc = true;
            acc.llcHit = true;
            ++stats_.llcHits;
        } else if (line.state == CacheState::Shared) {
            Cycles inval = 0;
            line.sharers.forEach([&](unsigned sharer) {
                if (sharer == core)
                    return;
                inval = std::max(inval,
                                 mesh_.roundTrip(home, sharer,
                                                 jord::noc::MsgKind::Control));
                acc.messages += 2;
                ++stats_.invalidations;
                dropFromL1(sharer, addr);
            });
            CoreMask keep;
            if (line.sharers.test(core))
                keep.set(core);
            line.sharers = keep;
            Cycles data =
                line.sharers.test(core)
                    ? 0
                    : mesh_.latency(home, core, jord::noc::MsgKind::Data);
            if (data > 0)
                acc.messages += 1;
            lat += std::max(inval, data);
            acc.llcHit = true;
            ++stats_.llcHits;
        } else if (line.inLlc) {
            lat += mesh_.latency(home, core, jord::noc::MsgKind::Data);
            acc.messages += 1;
            acc.llcHit = true;
            ++stats_.llcHits;
        } else {
            lat += cfg_.dramCycles;
            lat += mesh_.latency(home, core, jord::noc::MsgKind::Data);
            acc.messages += 1;
            ++stats_.dramFills;
            line.inLlc = true;
        }
        line.state = CacheState::Modified;
        line.owner = core;
        line.sharers.reset();
        line.sharers.set(core);
        touchL1(core, addr);
        if (tbit && observer_)
            lat += observer_->translationWrite(core, addr, prev_sharers);
        acc.latency = lat;
        stats_.messages += acc.messages;
        return acc;
    }

    Access
    atomic(unsigned core, Addr addr)
    {
        ++stats_.atomics;
        Access acc = write(core, addr, false);
        acc.latency += 1;
        return acc;
    }

    void
    evictL1(unsigned core, Addr addr)
    {
        auto it = lines_.find(jord::sim::blockAlign(addr));
        if (it == lines_.end())
            return;
        Line &line = it->second;
        if (!line.sharers.test(core))
            return;
        line.sharers.clear(core);
        if ((line.state == CacheState::Modified ||
             line.state == CacheState::Exclusive) &&
            line.owner == core) {
            line.state = line.sharers.none() ? CacheState::Invalid
                                             : CacheState::Shared;
            line.inLlc = true;
        } else if (line.sharers.none()) {
            line.state = CacheState::Invalid;
        }
    }

    void
    evictDirectory(Addr addr)
    {
        addr = jord::sim::blockAlign(addr);
        auto it = lines_.find(addr);
        if (it == lines_.end())
            return;
        if (observer_)
            observer_->directoryEvict(addr, it->second.sharers);
        lines_.erase(it);
    }

    void
    flushAll()
    {
        lines_.clear();
        for (auto &l1 : l1s_) {
            l1.lru.clear();
            l1.map.clear();
        }
    }

  private:
    struct Line {
        CacheState state = CacheState::Invalid;
        CoreMask sharers;
        unsigned owner = 0;
        bool inLlc = false;
    };

    struct CoreL1 {
        std::list<Addr> lru;
        std::unordered_map<Addr, std::list<Addr>::iterator> map;
    };

    const MachineConfig cfg_;
    const Mesh &mesh_;
    TranslationObserver *observer_ = nullptr;
    std::unordered_map<Addr, Line> lines_;
    std::vector<CoreL1> l1s_;
    CoherenceStats stats_;

    void
    touchL1(unsigned core, Addr addr)
    {
        CoreL1 &l1 = l1s_[core];
        auto it = l1.map.find(addr);
        if (it != l1.map.end()) {
            l1.lru.splice(l1.lru.begin(), l1.lru, it->second);
            return;
        }
        l1.lru.push_front(addr);
        l1.map[addr] = l1.lru.begin();
        while (l1.map.size() > cfg_.l1Lines) {
            Addr victim = l1.lru.back();
            l1.lru.pop_back();
            l1.map.erase(victim);
            evictL1(core, victim);
        }
    }

    void
    dropFromL1(unsigned core, Addr addr)
    {
        CoreL1 &l1 = l1s_[core];
        auto it = l1.map.find(addr);
        if (it == l1.map.end())
            return;
        l1.lru.erase(it->second);
        l1.map.erase(it);
    }
};

/** Observer that logs every call and answers writes with a latency
 * derived from its arguments, so both engines must pass the same ones. */
struct LoggingObserver : TranslationObserver {
    /** (kind, core, block, sharer mask) per call. */
    std::vector<std::tuple<char, unsigned, Addr, CoreMask>> calls;

    void
    translationRead(unsigned core, Addr addr) override
    {
        calls.emplace_back('r', core, addr, CoreMask{});
    }
    Cycles
    translationWrite(unsigned core, Addr addr, const CoreMask &dir) override
    {
        calls.emplace_back('w', core, addr, dir);
        return dir.count() * 7 + (addr / 64) % 5;
    }
    void
    translationWriteLocal(unsigned core, Addr addr) override
    {
        calls.emplace_back('l', core, addr, CoreMask{});
    }
    void
    directoryEvict(Addr addr, const CoreMask &dir) override
    {
        calls.emplace_back('e', 0, addr, dir);
    }
};

bool
operator==(const CoherenceStats &a, const CoherenceStats &b)
{
    return a.reads == b.reads && a.writes == b.writes &&
           a.atomics == b.atomics && a.l1Hits == b.l1Hits &&
           a.llcHits == b.llcHits && a.dramFills == b.dramFills &&
           a.invalidations == b.invalidations &&
           a.messages == b.messages && a.tbitReads == b.tbitReads &&
           a.tbitWrites == b.tbitWrites;
}

TEST(CoherenceDifferential, FlatEngineMatchesTheReferenceOpForOp)
{
    MachineConfig cfg = MachineConfig::scaled(16, 1);
    cfg.l1Lines = 8;
    Mesh mesh{cfg};
    CoherenceEngine engine{cfg, mesh};
    ReferenceEngine ref{cfg, mesh};
    LoggingObserver engine_obs;
    LoggingObserver ref_obs;
    engine.setTranslationObserver(&engine_obs);
    ref.setTranslationObserver(&ref_obs);

    // 48 blocks over 16 cores of 8 lines: capacity victims, sharing,
    // ownership moves and index growth all happen; a sub-block offset
    // checks alignment.
    constexpr unsigned kBlocks = 48;
    jord::sim::Rng rng(0xc0e4e4ce);
    std::vector<Addr> touched;
    for (unsigned op = 0; op < 12000; ++op) {
        auto core = static_cast<unsigned>(rng.uniformInt(cfg.numCores));
        Addr addr = kA + rng.uniformInt(kBlocks) * 64 + rng.uniformInt(64);
        bool tbit = rng.uniformInt(4) == 0;
        auto kind = rng.uniformInt(1000);
        if (std::find(touched.begin(), touched.end(),
                      jord::sim::blockAlign(addr)) == touched.end())
            touched.push_back(jord::sim::blockAlign(addr));

        if (kind < 450) {
            Access a = engine.read(core, addr, tbit);
            Access b = ref.read(core, addr, tbit);
            ASSERT_EQ(std::tie(a.latency, a.l1Hit, a.llcHit, a.messages),
                      std::tie(b.latency, b.l1Hit, b.llcHit, b.messages))
                << "read, op " << op;
        } else if (kind < 850) {
            Access a = engine.write(core, addr, tbit);
            Access b = ref.write(core, addr, tbit);
            ASSERT_EQ(std::tie(a.latency, a.l1Hit, a.llcHit, a.messages),
                      std::tie(b.latency, b.l1Hit, b.llcHit, b.messages))
                << "write, op " << op;
        } else if (kind < 930) {
            Access a = engine.atomic(core, addr);
            Access b = ref.atomic(core, addr);
            ASSERT_EQ(std::tie(a.latency, a.l1Hit, a.llcHit, a.messages),
                      std::tie(b.latency, b.l1Hit, b.llcHit, b.messages))
                << "atomic, op " << op;
        } else if (kind < 985) {
            engine.evictL1(core, addr);
            ref.evictL1(core, addr);
        } else if (kind < 999) {
            engine.evictDirectory(addr);
            ref.evictDirectory(addr);
        } else {
            engine.flushAll();
            ref.flushAll();
        }

        ASSERT_TRUE(engine.stats() == ref.stats()) << "op " << op;
        ASSERT_EQ(engine_obs.calls, ref_obs.calls) << "op " << op;
        engine_obs.calls.clear();
        ref_obs.calls.clear();
        for (Addr block : touched) {
            ASSERT_EQ(engine.stateOf(block), ref.stateOf(block))
                << "op " << op << " block " << block;
            ASSERT_EQ(engine.sharersOf(block), ref.sharersOf(block))
                << "op " << op << " block " << block;
            for (unsigned c = 0; c < cfg.numCores; ++c)
                ASSERT_EQ(engine.cachedIn(c, block), ref.cachedIn(c, block))
                    << "op " << op << " block " << block << " core " << c;
        }
    }
    // The run must have reached every corner it is meant to cover.
    EXPECT_GT(engine.stats().invalidations, 0u);
    EXPECT_GT(engine.stats().l1Hits, 0u);
    EXPECT_GT(engine.stats().dramFills, kBlocks);
}

// --- CoreMask ----------------------------------------------------------------

TEST(CoreMask, BasicOperations)
{
    CoreMask mask;
    EXPECT_TRUE(mask.none());
    mask.set(3);
    mask.set(200);
    EXPECT_TRUE(mask.test(3));
    EXPECT_TRUE(mask.test(200));
    EXPECT_FALSE(mask.test(4));
    EXPECT_EQ(mask.count(), 2u);
    EXPECT_FALSE(mask.onlyContains(3));
    mask.clear(200);
    EXPECT_TRUE(mask.onlyContains(3));
}

TEST(CoreMask, ForEachVisitsInOrder)
{
    CoreMask mask;
    mask.set(5);
    mask.set(64);
    mask.set(255);
    std::vector<unsigned> seen;
    mask.forEach([&](unsigned core) { seen.push_back(core); });
    EXPECT_EQ(seen, (std::vector<unsigned>{5, 64, 255}));
}

TEST(CoreMask, SetOperators)
{
    CoreMask a, b;
    a.set(1);
    b.set(2);
    a |= b;
    EXPECT_EQ(a.count(), 2u);
    CoreMask c;
    c.set(2);
    a &= c;
    EXPECT_TRUE(a.onlyContains(2));
}

} // namespace
