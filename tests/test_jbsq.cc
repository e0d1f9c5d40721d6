/**
 * @file
 * Differential test for the JBSQ dispatch scan (§3.3): the incremental
 * dirty-list scan in runtime/jbsq.hh must pick the same executor, with
 * the same modelled latency, miss count and tie-break rotation, as the
 * per-orchestrator dirty-bit scan it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "noc/mesh.hh"
#include "runtime/jbsq.hh"
#include "sim/machine.hh"

namespace {

using jord::noc::Mesh;
using jord::noc::MsgKind;
using jord::runtime::JbsqDispatch;
using jord::sim::Cycles;
using jord::sim::MachineConfig;

/**
 * The modulo-per-step scan with one dirty bit per (executor,
 * orchestrator), kept verbatim as the reference.
 */
struct RefJbsq {
    struct ExecState {
        unsigned core = 0;
        std::vector<bool> dirtyFor;
        unsigned outstanding = 0;
    };
    struct OrchState {
        unsigned core = 0;
        std::vector<unsigned> execs;
        unsigned rr = 0;
    };

    const Mesh *mesh_;
    unsigned dispatchMlp = 8;
    std::vector<OrchState> orchs_;
    std::vector<ExecState> execs_;

    void
    markDirty(ExecState &exec)
    {
        std::fill(exec.dirtyFor.begin(), exec.dirtyFor.end(), true);
    }

    Cycles
    dispatchScan(OrchState &o, unsigned orch_idx, unsigned &chosen,
                 unsigned &misses_out)
    {
        Cycles lat = 8 + static_cast<Cycles>(o.execs.size()) / 4;
        Cycles miss_total = 0;
        unsigned misses = 0;
        unsigned best = o.execs[o.rr % o.execs.size()];
        for (unsigned i = 0; i < o.execs.size(); ++i) {
            unsigned ei = o.execs[(o.rr + i) % o.execs.size()];
            ExecState &e = execs_[ei];
            if (e.dirtyFor[orch_idx]) {
                miss_total +=
                    mesh_->roundTrip(o.core, e.core, MsgKind::Data);
                ++misses;
                e.dirtyFor[orch_idx] = false;
            }
            if (execs_[ei].outstanding < execs_[best].outstanding)
                best = ei;
        }
        o.rr = (o.rr + 1) % o.execs.size();
        if (misses > 0) {
            unsigned overlap =
                std::max(1u, std::min(dispatchMlp, misses));
            lat += miss_total / overlap;
        }
        chosen = best;
        misses_out = misses;
        return lat;
    }
};

TEST(JbsqDifferential, MatchesModuloScanReference)
{
    // fig14's 2-socket machine: four orchestrators on cores 0-3, one
    // executor on every other core, so round trips differ per position
    // and some cross the socket link.
    MachineConfig cfg = MachineConfig::scaled(256, 2);
    Mesh mesh(cfg);
    constexpr unsigned kOrchs = 4;
    const unsigned num_execs = cfg.numCores - kOrchs;

    RefJbsq ref;
    ref.mesh_ = &mesh;
    for (unsigned e = 0; e < num_execs; ++e) {
        RefJbsq::ExecState exec;
        exec.core = kOrchs + e;
        exec.dirtyFor.assign(kOrchs, true);
        ref.execs_.push_back(exec);
    }

    // Dispatch sets of 1, 3, 112 and every executor; they overlap, so
    // one markDirty reaches several orchestrators.
    std::vector<std::vector<unsigned>> sets(kOrchs);
    sets[0] = {17};
    sets[1] = {200, 5, 17};
    for (unsigned e = 3; sets[2].size() < 112; e += 2)
        sets[2].push_back(e % num_execs);
    for (unsigned e = 0; e < num_execs; ++e)
        sets[3].push_back(e);

    JbsqDispatch jbsq(num_execs);
    for (unsigned o = 0; o < kOrchs; ++o) {
        RefJbsq::OrchState orch;
        orch.core = o;
        orch.execs = sets[o];
        ref.orchs_.push_back(orch);
        std::vector<Cycles> miss_cost;
        for (unsigned e : sets[o])
            miss_cost.push_back(mesh.roundTrip(o, ref.execs_[e].core,
                                               MsgKind::Data));
        ASSERT_EQ(jbsq.addOrch(sets[o], miss_cost), o);
    }

    std::mt19937_64 rng(0x1b5c);
    unsigned scans = 0;
    unsigned ties = 0;
    constexpr unsigned kOps = 30000;
    for (unsigned op = 0; op < kOps; ++op) {
        // Hot executors from the small sets get most of the traffic,
        // keeping outstanding counts low and ties frequent.
        unsigned exec = rng() % 4 == 0
                            ? sets[1][rng() % 3]
                            : static_cast<unsigned>(rng() % num_execs);
        RefJbsq::ExecState &re = ref.execs_[exec];
        switch (rng() % 10) {
        case 0:
        case 1:
        case 2:
            ref.markDirty(re);
            jbsq.markDirty(exec);
            break;
        case 3:
        case 4:
        case 5:
            if (re.outstanding < 3) {
                ++re.outstanding;
                ref.markDirty(re);
                jbsq.add(exec, +1);
            } else {
                --re.outstanding;
                ref.markDirty(re);
                jbsq.add(exec, -1);
            }
            break;
        default: {
            unsigned o = static_cast<unsigned>(rng() % kOrchs);
            static constexpr unsigned kMlps[] = {1, 8, 300};
            unsigned mlp = kMlps[rng() % 3];
            ref.dispatchMlp = mlp;
            unsigned want_exec = 0;
            unsigned want_misses = 0;
            Cycles want_lat = ref.dispatchScan(ref.orchs_[o], o,
                                               want_exec, want_misses);
            JbsqDispatch::Pick got = jbsq.scan(o, mlp);
            ASSERT_EQ(got.exec, want_exec) << "op " << op << " orch " << o;
            ASSERT_EQ(got.lat, want_lat) << "op " << op << " orch " << o;
            ASSERT_EQ(got.misses, want_misses)
                << "op " << op << " orch " << o;
            ASSERT_EQ(jbsq.rr(o), ref.orchs_[o].rr) << "op " << op;
            ++scans;
            unsigned min_count = 0;
            for (unsigned e : sets[o])
                min_count += ref.execs_[e].outstanding ==
                             ref.execs_[want_exec].outstanding;
            ties += min_count > 1;
            break;
        }
        }
        ASSERT_EQ(jbsq.outstanding(exec), re.outstanding) << "op " << op;
    }
    EXPECT_GT(scans, kOps / 5);
    EXPECT_GT(ties, scans / 4);
}

TEST(JbsqDispatch, ResetZeroesCountsAndDirtiesEveryLine)
{
    JbsqDispatch jbsq(3);
    jbsq.addOrch({0, 1, 2}, {10, 20, 30});
    EXPECT_EQ(jbsq.scan(0, 8).misses, 3u);
    jbsq.add(1, +1);
    jbsq.add(1, +1);
    EXPECT_EQ(jbsq.scan(0, 8).misses, 1u);
    EXPECT_EQ(jbsq.scan(0, 8).misses, 0u);
    jbsq.reset();
    EXPECT_EQ(jbsq.outstanding(1), 0u);
    JbsqDispatch::Pick pick = jbsq.scan(0, 1);
    EXPECT_EQ(pick.misses, 3u);
    EXPECT_EQ(pick.lat, 8u + 3u / 4 + 60u);
}

} // namespace
