/**
 * @file
 * Tracked-line directory-based MESI coherence engine with timing.
 *
 * The engine models, per cache block actually touched by the simulation,
 * the directory state (MESI), L1 presence per core, LLC presence, and the
 * latency of every access composed from L1/LLC/DRAM latencies and NoC
 * message traversals (Table 2). Bulk application data that never crosses
 * cores is folded into workload execution-time segments and never enters
 * this engine (DESIGN.md §5.3).
 *
 * Jord's single-bit Translation (T) sideband (§4.2) is modelled by the
 * @c tbit parameter on accesses: whenever a T-bit access generates
 * coherence traffic that reaches the home directory, the registered
 * TranslationObserver (the VTD) is notified and may add latency for the
 * VLB-shootdown fan-out it performs.
 *
 * Storage is flat (DESIGN.md §14): tracked blocks live in a dense slab
 * of lines found through an open-addressed index, and each core's L1
 * is an exact-LRU intrusive list over a shared node pool, found through
 * a second open-addressed index keyed by (line, core). A slab slot is
 * never reused before flushAll(), so a stale L1 entry can only ever name
 * its own block.
 */

#ifndef JORD_MEM_COHERENCE_HH
#define JORD_MEM_COHERENCE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/core_mask.hh"
#include "noc/mesh.hh"
#include "sim/machine.hh"
#include "sim/types.hh"

namespace jord::prof {
class Pmu;
}

namespace jord::mem {

/** Directory-visible state of a tracked block. */
enum class CacheState : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Outcome of one timed memory access. */
struct Access {
    sim::Cycles latency = 0;
    bool l1Hit = false;
    bool llcHit = false;
    /** Coherence messages generated on the NoC (0 for L1 hits). */
    unsigned messages = 0;
};

/**
 * Interface the UAT layer implements to observe T-bit traffic (the VTD).
 */
class TranslationObserver
{
  public:
    virtual ~TranslationObserver() = default;

    /**
     * A T-bit read from @p core for VTE block @p addr reached the home
     * directory: register the core as a translation sharer.
     */
    virtual void translationRead(unsigned core, sim::Addr addr) = 0;

    /**
     * A T-bit write from @p core for VTE block @p addr reached the home
     * directory. @p dir_sharers is the directory's L1 sharer list before
     * invalidation (the VTD falls back to it pessimistically when it has
     * no entry of its own, §4.2).
     *
     * @return Extra latency for the VLB invalidation fan-out beyond the
     * MESI invalidations already accounted for.
     */
    virtual sim::Cycles translationWrite(unsigned core, sim::Addr addr,
                                         const CoreMask &dir_sharers) = 0;

    /**
     * A T-bit write hit dirty in the writer's L1: only a local VLB
     * invalidation is needed, with no coherence traffic (§4.2).
     */
    virtual void translationWriteLocal(unsigned core, sim::Addr addr) = 0;

    /**
     * The directory evicted a block; if the VTD has no entry for it, it
     * must pessimistically treat all L1 sharers as translation sharers
     * (the directory acts as a victim cache for the VTD, §4.2).
     */
    virtual void directoryEvict(sim::Addr addr,
                                const CoreMask &dir_sharers) = 0;
};

/** Aggregate coherence statistics. */
struct CoherenceStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t atomics = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t dramFills = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t messages = 0;
    std::uint64_t tbitReads = 0;
    std::uint64_t tbitWrites = 0;

    void
    reset()
    {
        *this = CoherenceStats{};
    }
};

/**
 * The coherence engine. All addresses are block-aligned internally.
 */
class CoherenceEngine
{
  public:
    /** Fatal if @p cfg has more than kMaxCores cores (the CoreMask
     * width). */
    CoherenceEngine(const sim::MachineConfig &cfg, const noc::Mesh &mesh);

    /** Timed read of one block by @p core. */
    Access read(unsigned core, sim::Addr addr, bool tbit = false);

    /** Timed write of one block by @p core. */
    Access write(unsigned core, sim::Addr addr, bool tbit = false);

    /**
     * Timed atomic read-modify-write (free-list pops/pushes). Write
     * semantics plus the ALU forwarding cycle.
     */
    Access atomic(unsigned core, sim::Addr addr);

    /** Register the VTD (may be null to detach). */
    void
    setTranslationObserver(TranslationObserver *observer)
    {
        observer_ = observer;
    }

    /** Attach the simulated PMU (null to detach). Zero-latency: counter
     * and cycle-attribution hooks never change access timing. */
    void setPmu(prof::Pmu *pmu) { pmu_ = pmu; }

    /** Directory state of a block (Invalid if never touched). */
    CacheState stateOf(sim::Addr addr) const;

    /** True if @p core currently holds the block in its L1. */
    bool cachedIn(unsigned core, sim::Addr addr) const;

    /** Current L1 sharer mask of a block. */
    CoreMask sharersOf(sim::Addr addr) const;

    /**
     * Force-evict the block from @p core's L1 (silent eviction of a clean
     * line, or writeback of a dirty one). Used by tests to reproduce the
     * VTD victim-cache corner case.
     */
    void evictL1(unsigned core, sim::Addr addr);

    /**
     * Evict the block's directory entry entirely (notifies the
     * TranslationObserver, §4.2 victim behaviour).
     */
    void evictDirectory(sim::Addr addr);

    /** Drop all tracked state (keeps stats). */
    void flushAll();

    const CoherenceStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    const noc::Mesh &mesh() const { return mesh_; }
    const sim::MachineConfig &config() const { return cfg_; }

    /** Latency of an L1 hit. */
    sim::Cycles l1Latency() const { return cfg_.l1HitCycles; }

  private:
    struct Line {
        CoreMask sharers;      ///< cores holding the line in L1
        unsigned owner = 0;    ///< valid when state is Modified/Exclusive
        CacheState state = CacheState::Invalid;
        bool inLlc = false;    ///< block has an on-chip LLC copy
    };

    /** "No entry": an empty index slot, a list end, an empty free list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * Open-addressed map from a 64-bit key to a 32-bit value: linear
     * probing, power-of-two capacity grown on demand to keep the load at
     * most 1/2, erase by backward shift (no tombstones). Only grow()
     * walks the slots, so hash order never reaches an output.
     */
    class FlatIndex
    {
      public:
        /** Value stored for @p key, or kNil. */
        std::uint32_t find(std::uint64_t key) const;

        /** Value stored for @p key; if absent, store @p value and return
         * it. One probe sequence either way. */
        std::uint32_t findOrInsert(std::uint64_t key, std::uint32_t value);

        /** Remove @p key; return the value it held, or kNil. */
        std::uint32_t erase(std::uint64_t key);

        /** Remove every key (keeps the capacity). */
        void clear();

      private:
        struct Slot {
            std::uint64_t key = 0;
            std::uint32_t value = kNil; ///< kNil marks an empty slot
        };

        std::vector<Slot> slots_;
        std::size_t size_ = 0;
        unsigned shift_ = 64; ///< 64 - log2(capacity)

        std::size_t home(std::uint64_t key) const;
        std::size_t mask() const { return slots_.size() - 1; }
        void grow();
    };

    /** One L1 residency: a node of its core's LRU list. */
    struct LruNode {
        std::uint32_t line; ///< slab index of the resident block
        std::uint32_t prev; ///< towards the MRU end; kNil at the head
        std::uint32_t next; ///< towards the LRU end; free-list link
    };

    /** One core's L1: its LRU list ends and length. */
    struct CoreL1 {
        std::uint32_t head = kNil; ///< most recently used
        std::uint32_t tail = kNil; ///< next victim
        std::uint32_t size = 0;
    };

    const sim::MachineConfig cfg_;
    const noc::Mesh &mesh_;
    TranslationObserver *observer_ = nullptr;
    prof::Pmu *pmu_ = nullptr;
    std::vector<Line> lines_;    ///< slab; a slot is never reused
    FlatIndex lineIndex_;        ///< block number -> slab index
    std::vector<LruNode> nodes_; ///< pool shared by every core's list
    std::uint32_t freeNodes_ = kNil;
    FlatIndex residency_;        ///< residencyKey(line, core) -> node
    std::vector<CoreL1> l1s_;
    CoherenceStats stats_;

    static std::uint64_t
    residencyKey(std::uint32_t line, unsigned core)
    {
        return (static_cast<std::uint64_t>(line) << 32) | core;
    }

    /** Slab index of block-aligned @p addr, adding an Invalid line if
     * the block was never touched. */
    std::uint32_t lineFor(sim::Addr addr);

    /** Slab index of @p addr's block, or kNil if never touched. */
    std::uint32_t findLine(sim::Addr addr) const;

    /** PMU bookkeeping for one finished access (no timing effect). */
    void notePmu(unsigned core, const Access &acc, unsigned home);

    /** Record residency of @p line in @p core's L1 as most recent;
     * evicts LRU victims beyond the configured capacity. */
    void touchL1(unsigned core, std::uint32_t line);

    /** Remove @p line from @p core's LRU bookkeeping (invalidation). */
    void dropFromL1(unsigned core, std::uint32_t line);

    /** Take @p node out of @p l1's list. */
    void unlink(CoreL1 &l1, std::uint32_t node);

    /** Make @p node the most recent in @p l1's list. */
    void pushFront(CoreL1 &l1, std::uint32_t node);

    /** Unlink @p node from @p l1 and return it to the pool. */
    void freeNode(CoreL1 &l1, std::uint32_t node);

    /** evictL1() of a line already looked up. */
    void evictL1Line(unsigned core, Line &line);

    /** Max parallel invalidation round-trip from home to all sharers. */
    sim::Cycles invalidateSharers(unsigned home, Line &line,
                                  std::uint32_t line_index,
                                  unsigned except, unsigned &messages);
};

} // namespace jord::mem

#endif // JORD_MEM_COHERENCE_HH
