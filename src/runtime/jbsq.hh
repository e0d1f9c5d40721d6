/**
 * @file
 * JBSQ dispatch state shared by a worker's orchestrators (RPCValet-style
 * bounded-queue dispatch, §3.3).
 *
 * Each executor publishes its outstanding count (queued + running) on a
 * queue-length cache line. An orchestrator's dispatch scan loads the
 * line of every executor in its dispatch set: lines unchanged since its
 * last scan hit in its L1, changed ones pay a coherence round trip,
 * overlapped up to the dispatch MLP. It then picks the least-outstanding
 * executor, breaking ties by a start position that rotates per scan.
 *
 * Host-side, each orchestrator keeps a deduplicated list of the
 * positions dirtied since its last scan and each position's round-trip
 * cost, so a scan is one add per changed line plus one pass over dense
 * outstanding counters.
 */

#ifndef JORD_RUNTIME_JBSQ_HH
#define JORD_RUNTIME_JBSQ_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace jord::runtime {

class JbsqDispatch
{
  public:
    explicit JbsqDispatch(unsigned num_execs = 0)
        : outstanding_(num_execs, 0), watchers_(num_execs)
    {
    }

    /**
     * Add an orchestrator that balances over executors @p execs, in
     * that order; re-reading execs[i]'s line after it changed costs
     * @p miss_cost[i] cycles. Every line starts dirty. Returns the
     * orchestrator's index (orchestrators are numbered in add order).
     */
    unsigned
    addOrch(std::vector<unsigned> execs, std::vector<sim::Cycles> miss_cost)
    {
        unsigned id = static_cast<unsigned>(orchs_.size());
        Orch o;
        o.execs = std::move(execs);
        o.missCost = std::move(miss_cost);
        o.isDirty.assign(o.execs.size(), 1);
        o.dirty.reserve(o.execs.size());
        for (unsigned pos = 0; pos < o.execs.size(); ++pos) {
            o.dirty.push_back(pos);
            watchers_[o.execs[pos]].push_back(Watch{id, pos});
        }
        orchs_.push_back(std::move(o));
        return id;
    }

    /** Queued + running invocations of @p exec. */
    unsigned outstanding(unsigned exec) const { return outstanding_[exec]; }

    /** Change @p exec's outstanding count; its line becomes dirty. */
    void
    add(unsigned exec, int delta)
    {
        outstanding_[exec] += static_cast<unsigned>(delta);
        markDirty(exec);
    }

    /** @p exec's queue-length line changed: every watching
     * orchestrator's next scan misses on it. */
    void
    markDirty(unsigned exec)
    {
        for (const Watch &w : watchers_[exec]) {
            Orch &o = orchs_[w.orch];
            if (!o.isDirty[w.pos]) {
                o.isDirty[w.pos] = 1;
                o.dirty.push_back(w.pos);
            }
        }
    }

    /** Zero every outstanding count and dirty every line. */
    void
    reset()
    {
        for (unsigned exec = 0; exec < outstanding_.size(); ++exec) {
            outstanding_[exec] = 0;
            markDirty(exec);
        }
    }

    /** Result of one dispatch scan. */
    struct Pick {
        unsigned exec = 0;     ///< least-outstanding executor
        sim::Cycles lat = 0;   ///< modelled scan latency
        unsigned misses = 0;   ///< lines that paid a round trip
    };

    /** One JBSQ scan by orchestrator @p orch, overlapping up to @p mlp
     * line misses. */
    Pick
    scan(unsigned orch, unsigned mlp)
    {
        Orch &o = orchs_[orch];
        Pick pick;
        sim::Cycles miss_total = 0;
        for (unsigned pos : o.dirty) {
            miss_total += o.missCost[pos];
            o.isDirty[pos] = 0;
        }
        pick.misses = static_cast<unsigned>(o.dirty.size());
        o.dirty.clear();

        // First least-outstanding position in rotation order from rr.
        const unsigned n = static_cast<unsigned>(o.execs.size());
        const unsigned *execs = o.execs.data();
        unsigned best = execs[o.rr];
        unsigned best_out = outstanding_[best];
        for (unsigned i = o.rr + 1; i < n; ++i) {
            if (outstanding_[execs[i]] < best_out) {
                best = execs[i];
                best_out = outstanding_[best];
            }
        }
        for (unsigned i = 0; i < o.rr; ++i) {
            if (outstanding_[execs[i]] < best_out) {
                best = execs[i];
                best_out = outstanding_[best];
            }
        }
        o.rr = o.rr + 1 == n ? 0 : o.rr + 1;

        pick.exec = best;
        pick.lat = 8 + static_cast<sim::Cycles>(n) / 4;
        if (pick.misses > 0)
            pick.lat += miss_total / std::max(1u, std::min(mlp, pick.misses));
        return pick;
    }

    /** Position in @p orch's dispatch set where its next scan starts. */
    unsigned rr(unsigned orch) const { return orchs_[orch].rr; }

  private:
    struct Orch {
        std::vector<unsigned> execs;          ///< dispatch set, in order
        std::vector<sim::Cycles> missCost;    ///< round trip per position
        std::vector<unsigned> dirty;          ///< dirty positions, deduped
        std::vector<std::uint8_t> isDirty;    ///< membership of dirty
        unsigned rr = 0;                      ///< tie-break rotation
    };

    /** An orchestrator watching an executor, at position pos of its
     * dispatch set. */
    struct Watch {
        unsigned orch;
        unsigned pos;
    };

    std::vector<unsigned> outstanding_;
    std::vector<std::vector<Watch>> watchers_;
    std::vector<Orch> orchs_;
};

} // namespace jord::runtime

#endif // JORD_RUNTIME_JBSQ_HH
