/**
 * @file
 * Tests for the range VLB (§4.1) and the virtual translation directory
 * (§4.2), including the directory-victim corner case.
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "uat/vlb.hh"
#include "uat/vtd.hh"

namespace {

using jord::mem::CoreMask;
using jord::noc::Mesh;
using jord::sim::Addr;
using jord::sim::MachineConfig;
using jord::uat::Perm;
using jord::uat::Vlb;
using jord::uat::VlbEntry;
using jord::uat::Vtd;

VlbEntry
makeEntry(Addr vte, Addr base, std::uint64_t bound,
          jord::uat::PdId pd, bool global = false)
{
    VlbEntry entry;
    entry.valid = true;
    entry.vteAddr = vte;
    entry.base = base;
    entry.bound = bound;
    entry.offs = 0x1000;
    entry.perm = Perm::rw();
    entry.pd = pd;
    entry.global = global;
    return entry;
}

// --- Vlb --------------------------------------------------------------------

TEST(Vlb, RangeHitAnywhereInsideBound)
{
    Vlb vlb(16);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 4096, 3));
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0000ull, 3).has_value());
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0fffull, 3).has_value());
    EXPECT_FALSE(vlb.lookup(0x4000'0000'1000ull, 3).has_value());
    EXPECT_FALSE(vlb.lookup(0x3fff'ffff'ffffull, 3).has_value());
}

TEST(Vlb, PdTaggingIsolatesDomains)
{
    Vlb vlb(16);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 4096, 3));
    EXPECT_FALSE(vlb.lookup(0x4000'0000'0000ull, 4).has_value());
}

TEST(Vlb, GlobalEntryMatchesAnyPd)
{
    Vlb vlb(16);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 4096, 0, true));
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0000ull, 99).has_value());
}

TEST(Vlb, LruReplacement)
{
    Vlb vlb(2);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.insert(makeEntry(0x140, 0x4000'0000'1000ull, 128, 1));
    vlb.lookup(0x4000'0000'0000ull, 1); // entry 1 becomes MRU
    vlb.insert(makeEntry(0x180, 0x4000'0000'2000ull, 128, 1));
    EXPECT_TRUE(vlb.holdsVte(0x100));
    EXPECT_FALSE(vlb.holdsVte(0x140));
    EXPECT_EQ(vlb.stats().evictions, 1u);
}

TEST(Vlb, ReinsertSameVtePdUpdatesInPlace)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    VlbEntry update = makeEntry(0x100, 0x4000'0000'0000ull, 256, 1);
    update.perm = Perm::r();
    vlb.insert(update);
    EXPECT_EQ(vlb.occupancy(), 1u);
    auto hit = vlb.lookup(0x4000'0000'0000ull, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->perm, Perm::r());
    EXPECT_EQ(hit->bound, 256u);
}

TEST(Vlb, SameVmaDifferentPdsCoexist)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 2));
    EXPECT_EQ(vlb.occupancy(), 2u);
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0000ull, 1).has_value());
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0000ull, 2).has_value());
}

TEST(Vlb, InvalidateVteRemovesAllPdVariants)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 2));
    vlb.insert(makeEntry(0x140, 0x4000'0000'1000ull, 128, 1));
    EXPECT_EQ(vlb.invalidateVte(0x100), 2u);
    EXPECT_FALSE(vlb.holdsVte(0x100));
    EXPECT_TRUE(vlb.holdsVte(0x140));
    EXPECT_EQ(vlb.stats().shootdowns, 2u);
}

TEST(Vlb, HitMissStats)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.lookup(0x4000'0000'0000ull, 1);
    vlb.lookup(0x5000'0000'0000ull, 1);
    EXPECT_EQ(vlb.stats().hits, 1u);
    EXPECT_EQ(vlb.stats().misses, 1u);
    EXPECT_NEAR(vlb.stats().hitRate(), 0.5, 1e-12);
}

// --- Vtd --------------------------------------------------------------------

class VtdTest : public ::testing::Test
{
  protected:
    MachineConfig cfg = MachineConfig::isca25Default();
    Mesh mesh{cfg};
    Vtd vtd{cfg, mesh};
};

TEST_F(VtdTest, TracksSharers)
{
    vtd.addSharer(0x2000'0000'0000ull, 3);
    vtd.addSharer(0x2000'0000'0000ull, 7);
    auto sharers = vtd.sharers(0x2000'0000'0000ull);
    ASSERT_TRUE(sharers.has_value());
    EXPECT_TRUE(sharers->test(3));
    EXPECT_TRUE(sharers->test(7));
    EXPECT_EQ(sharers->count(), 2u);
}

TEST_F(VtdTest, RemoveDropsEntry)
{
    vtd.addSharer(0x2000'0000'0000ull, 3);
    vtd.remove(0x2000'0000'0000ull);
    EXPECT_FALSE(vtd.sharers(0x2000'0000'0000ull).has_value());
}

TEST_F(VtdTest, UntrackedReturnsNullopt)
{
    EXPECT_FALSE(vtd.sharers(0xdead'beefull).has_value());
}

TEST_F(VtdTest, PessimisticInstallOnlyWhenAbsent)
{
    CoreMask dir;
    dir.set(5);
    vtd.installPessimistic(0x2000'0000'0040ull, dir);
    EXPECT_TRUE(vtd.sharers(0x2000'0000'0040ull)->test(5));

    // Already tracked precisely: the install must not clobber.
    vtd.addSharer(0x2000'0000'0080ull, 1);
    CoreMask other;
    other.set(9);
    vtd.installPessimistic(0x2000'0000'0080ull, other);
    auto sharers = vtd.sharers(0x2000'0000'0080ull);
    EXPECT_TRUE(sharers->test(1));
    EXPECT_FALSE(sharers->test(9));
}

TEST_F(VtdTest, EmptyMaskNotInstalled)
{
    vtd.installPessimistic(0x2000'0000'00c0ull, CoreMask{});
    EXPECT_FALSE(vtd.sharers(0x2000'0000'00c0ull).has_value());
}

TEST_F(VtdTest, CapacityEvictionLru)
{
    // Overfill one set: addresses that map to the same slice and set.
    MachineConfig tiny = cfg;
    tiny.vtdSets = 1;
    tiny.vtdWays = 2;
    Vtd small(tiny, mesh);
    // Find three VTE addresses homed on the same slice.
    std::vector<Addr> same_slice;
    unsigned target = mesh.homeSlice(0x2000'0000'0000ull, 0);
    for (Addr addr = 0x2000'0000'0000ull; same_slice.size() < 3;
         addr += 64) {
        if (mesh.homeSlice(addr, 0) == target)
            same_slice.push_back(addr);
    }
    small.addSharer(same_slice[0], 0);
    small.addSharer(same_slice[1], 1);
    small.addSharer(same_slice[0], 2); // refresh LRU of [0]
    small.addSharer(same_slice[2], 3); // evicts [1]
    EXPECT_TRUE(small.sharers(same_slice[0]).has_value());
    EXPECT_FALSE(small.sharers(same_slice[1]).has_value());
    EXPECT_TRUE(small.sharers(same_slice[2]).has_value());
    EXPECT_GE(small.stats().evictions, 1u);
}

TEST_F(VtdTest, BlockZeroIsTracked)
{
    // Tags are stored as blockAlign(vte) | 1 with 0 meaning empty, so
    // the VTE at address 0 must still hit.
    vtd.addSharer(0x10, 4);
    auto sharers = vtd.sharers(0);
    ASSERT_TRUE(sharers.has_value());
    EXPECT_TRUE(sharers->onlyContains(4));
    vtd.remove(0x3f);
    EXPECT_FALSE(vtd.sharers(0).has_value());
}

TEST_F(VtdTest, CapacityScalesWithConfig)
{
    EXPECT_EQ(vtd.capacity(),
              static_cast<std::uint64_t>(cfg.vtdSets) * cfg.vtdWays *
                  cfg.numCores);
}

// --- Vtd differential test --------------------------------------------------

/**
 * The array-of-structs VTD that the set-contiguous storage replaced,
 * kept verbatim as the reference: every return value and statistic of
 * the real Vtd must match it op for op.
 */
class RefVtd
{
  public:
    RefVtd(const MachineConfig &cfg, const Mesh &mesh)
        : cfg_(cfg), mesh_(mesh)
    {
        std::uint64_t total = static_cast<std::uint64_t>(cfg.vtdSets) *
                              cfg.vtdWays * cfg.numCores;
        entries_.assign(total, Entry{});
    }

    std::optional<Vtd::Evicted>
    addSharer(Addr vte_addr, unsigned core)
    {
        ++stats_.reads;
        if (Entry *entry = find(vte_addr)) {
            entry->sharers.set(core);
            entry->lastUse = ++useClock_;
            return std::nullopt;
        }
        std::optional<Vtd::Evicted> evicted;
        Entry &entry = victimIn(vte_addr, evicted);
        entry.valid = true;
        entry.tag = jord::sim::blockAlign(vte_addr);
        entry.sharers.reset();
        entry.sharers.set(core);
        entry.lastUse = ++useClock_;
        return evicted;
    }

    std::optional<CoreMask>
    sharers(Addr vte_addr)
    {
        const Entry *entry = find(vte_addr);
        if (!entry)
            return std::nullopt;
        return entry->sharers;
    }

    void
    remove(Addr vte_addr)
    {
        if (Entry *entry = find(vte_addr)) {
            entry->valid = false;
            entry->sharers.reset();
        }
    }

    std::optional<Vtd::Evicted>
    installPessimistic(Addr vte_addr, const CoreMask &sharers)
    {
        if (find(vte_addr) != nullptr)
            return std::nullopt;
        if (sharers.none())
            return std::nullopt;
        ++stats_.victims;
        std::optional<Vtd::Evicted> evicted;
        Entry &entry = victimIn(vte_addr, evicted);
        entry.valid = true;
        entry.tag = jord::sim::blockAlign(vte_addr);
        entry.sharers = sharers;
        entry.lastUse = ++useClock_;
        return evicted;
    }

    const jord::uat::VtdStats &stats() const { return stats_; }

  private:
    struct Entry {
        bool valid = false;
        Addr tag = 0;
        CoreMask sharers;
        std::uint64_t lastUse = 0;
    };

    const MachineConfig &cfg_;
    const Mesh &mesh_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    jord::uat::VtdStats stats_;

    std::size_t
    setBase(Addr vte_addr) const
    {
        Addr block = jord::sim::blockAlign(vte_addr);
        unsigned slice = mesh_.homeSlice(block, 0) % cfg_.numCores;
        std::uint64_t set =
            (block / jord::sim::kCacheBlockBytes) % cfg_.vtdSets;
        return (static_cast<std::size_t>(slice) * cfg_.vtdSets + set) *
               cfg_.vtdWays;
    }

    Entry *
    find(Addr vte_addr)
    {
        Addr tag = jord::sim::blockAlign(vte_addr);
        std::size_t base = setBase(vte_addr);
        for (unsigned way = 0; way < cfg_.vtdWays; ++way) {
            Entry &entry = entries_[base + way];
            if (entry.valid && entry.tag == tag)
                return &entry;
        }
        return nullptr;
    }

    Entry &
    victimIn(Addr vte_addr, std::optional<Vtd::Evicted> &out)
    {
        std::size_t base = setBase(vte_addr);
        Entry *victim = nullptr;
        for (unsigned way = 0; way < cfg_.vtdWays; ++way) {
            Entry &entry = entries_[base + way];
            if (!entry.valid)
                return entry;
            if (!victim || entry.lastUse < victim->lastUse)
                victim = &entry;
        }
        ++stats_.evictions;
        if (victim->sharers.any())
            out = Vtd::Evicted{victim->tag, victim->sharers};
        victim->valid = false;
        victim->sharers.reset();
        return *victim;
    }
};

::testing::AssertionResult
sameEvicted(const std::optional<Vtd::Evicted> &got,
            const std::optional<Vtd::Evicted> &want)
{
    if (got.has_value() != want.has_value())
        return ::testing::AssertionFailure()
               << "eviction " << (got ? "reported" : "missing");
    if (got && (got->tag != want->tag || !(got->sharers == want->sharers)))
        return ::testing::AssertionFailure()
               << "evicted tag 0x" << std::hex << got->tag << " want 0x"
               << want->tag;
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameStats(const jord::uat::VtdStats &got, const jord::uat::VtdStats &want)
{
    if (got.reads != want.reads || got.writes != want.writes ||
        got.evictions != want.evictions ||
        got.pessimistic != want.pessimistic || got.victims != want.victims)
        return ::testing::AssertionFailure()
               << "stats: reads " << got.reads << "/" << want.reads
               << " evictions " << got.evictions << "/" << want.evictions
               << " victims " << got.victims << "/" << want.victims;
    return ::testing::AssertionSuccess();
}

TEST(VtdDifferential, MatchesArrayOfStructsReference)
{
    // 8 cores x 2 sets x 2 ways = 32 entries against a 96-block pool,
    // so nearly every miss evicts.
    MachineConfig cfg = MachineConfig::isca25Default();
    cfg.numCores = 8;
    cfg.meshCols = 4;
    cfg.meshRows = 2;
    cfg.vtdSets = 2;
    cfg.vtdWays = 2;
    Mesh mesh(cfg);
    Vtd vtd(cfg, mesh);
    RefVtd ref(cfg, mesh);

    // Block 0 is in the pool: its tag must not read as an empty slot.
    std::vector<Addr> pool;
    for (Addr block = 0; block < 96; ++block)
        pool.push_back(block * jord::sim::kCacheBlockBytes);

    std::mt19937_64 rng(0x7d5eed);
    std::uint64_t evictions_seen = 0;
    bool block0_tracked = false;
    constexpr unsigned kOps = 40000;
    for (unsigned op = 0; op < kOps; ++op) {
        // Any byte inside the block names the same VTE.
        Addr addr = pool[rng() % pool.size()] +
                    rng() % jord::sim::kCacheBlockBytes;
        switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {
            unsigned core = static_cast<unsigned>(rng() % cfg.numCores);
            auto got = vtd.addSharer(addr, core);
            auto want = ref.addSharer(addr, core);
            ASSERT_TRUE(sameEvicted(got, want)) << "op " << op;
            evictions_seen += want.has_value();
            break;
        }
        case 3:
            vtd.remove(addr);
            ref.remove(addr);
            break;
        case 4:
        case 5: {
            CoreMask mask;
            for (unsigned core = 0; core < cfg.numCores; ++core)
                if (rng() % 3 == 0)
                    mask.set(core);
            auto got = vtd.installPessimistic(addr, mask);
            auto want = ref.installPessimistic(addr, mask);
            ASSERT_TRUE(sameEvicted(got, want)) << "op " << op;
            evictions_seen += want.has_value();
            break;
        }
        default: {
            auto got = vtd.sharers(addr);
            auto want = ref.sharers(addr);
            ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
            if (want) {
                ASSERT_TRUE(*got == *want) << "op " << op;
                block0_tracked |= jord::sim::blockAlign(addr) == 0;
            }
            break;
        }
        }
        ASSERT_TRUE(sameStats(vtd.stats(), ref.stats())) << "op " << op;
    }
    EXPECT_TRUE(block0_tracked);
    EXPECT_GT(evictions_seen, kOps / 10);
}

} // namespace
