#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "perfbench.hh"

using namespace perfbench;

namespace {

TEST(PerfbenchNames, MatchTheContractAlphabetAndAreUnique)
{
    const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    std::set<std::string> seen;
    for (const Workload &w : workloads()) {
        EXPECT_TRUE(std::regex_match(w.name, name)) << w.name;
        EXPECT_TRUE(seen.insert(w.name).second) << w.name;
    }
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &def : *defs) {
            EXPECT_TRUE(std::regex_match(def.name, name)) << def.name;
            EXPECT_TRUE(seen.insert(def.name).second) << def.name;
        }
}

TEST(PerfbenchOutputs, FingerprintRepeatsAcrossInProcessRuns)
{
    Params params;
    ASSERT_EQ(params.seed, kDefaultSeed);
    for (const Workload &w : workloads()) {
        SpanLog log;
        Rep first = w.run(params, log, nullptr);
        Counts counts;
        log.setRecording(true, 1);
        Rep second = w.run(params, log, &counts);
        EXPECT_GT(first.ops, 0u) << w.name;
        EXPECT_EQ(first.failedOps, 0u) << w.name;
        EXPECT_EQ(second.failedOps, 0u) << w.name;
        EXPECT_FALSE(first.outputs.empty()) << w.name;
        // The traced rep attaches a PMU: outputs must not move.
        EXPECT_EQ(first.outputs, second.outputs) << w.name;
        EXPECT_EQ(fingerprint(first.outputs), w.expected) << w.name;
        EXPECT_FALSE(counts.empty()) << w.name;
        EXPECT_FALSE(log.spans().empty()) << w.name;
    }
}

TEST(PerfbenchChecks, WorkerConservationBreakIsCaught)
{
    jord::runtime::RunResult res;
    res.completedRequests = 70;
    res.failedRequests = 5;
    res.timedOutRequests = 3;
    res.shedRequests = 2;
    EXPECT_EQ(checkWorker(res, 100, 0.2), "");
    res.completedRequests -= 1;
    EXPECT_NE(checkWorker(res, 100, 0.2), "");
}

TEST(PerfbenchChecks, FleetConservationBreakIsCaught)
{
    jord::cluster::ClusterResult res;
    res.generated = 100;
    res.completed = 90;
    res.shed = 6;
    res.failed = 4;
    EXPECT_EQ(checkFleet(res), "");
    res.failed += 1;
    EXPECT_NE(checkFleet(res), "");
}

TEST(PerfbenchHostSpeed, KernelTakesTimeNearItsNominal)
{
    HostSpeed speed;
    double s = speed.sample();
    // Within a wide factor of nominal on any host that can run the
    // benchmark at all; a broken kernel reads 0 or far off.
    EXPECT_GT(s, HostSpeed::kNominalS / 20);
    EXPECT_LT(s, HostSpeed::kNominalS * 20);
}

TEST(PerfbenchSpans, SelfTimeExcludesChildren)
{
    SpanLog log;
    log.setRecording(true, 7);
    log.timed("outer", [&] {
        log.timed("inner", [] {
            volatile double x = 0;
            for (int i = 0; i < 200000; ++i)
                x = x + i;
        });
    });
    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[1].parent, 0);
    EXPECT_EQ(log.spans()[1].run, 7u);
    std::map<std::string, double> self = log.selfSeconds(7);
    double outer = log.spans()[0].end - log.spans()[0].start;
    double inner = log.spans()[1].end - log.spans()[1].start;
    EXPECT_GT(inner, 0);
    EXPECT_TRUE(log.selfSeconds(8).empty());
    EXPECT_NEAR(self["outer"], outer - inner, 1e-12);
    EXPECT_NEAR(self["inner"], inner, 1e-12);
}

} // namespace
