/**
 * @file
 * Events-per-second throughput of the discrete-event core.
 *
 * Two sections, each reporting dispatched events, wall-clock time and
 * events/second:
 *
 *   - worker:  a full WorkerServer run on fig14's largest machine
 *     (256 cores, 2 sockets, per-socket orchestrators) — the serial
 *     binary-heap EventQueue on the hottest single-machine
 *     configuration the paper evaluates;
 *   - cluster: a fleet run (8 servers, constant traffic at 70% of
 *     calibrated capacity) — the fleet DES.
 *
 * Unlike every other bench, the headline metric here is *host*
 * throughput: wall-clock is the measurement, never simulation input,
 * which is why the timed regions carry D1 suppressions. The
 * events_per_sec keys are direction-aware in jordprof (higher is
 * better), so the perf-gate's same-runner A/B only trips when the event
 * core gets slower. The counter.* keys (dispatched events; the
 * worker's coherence reads, writes, L1 hits, invalidations and NoC
 * messages; its VTD reads, writes, evictions and victim installs; and
 * its VLB hits and misses summed over cores) are deterministic; the
 * committed BENCH_sim_throughput.json holds only those, and the
 * perf-gate compares them byte for byte.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "mem/coherence.hh"
#include "par/par.hh"
#include "stats/table.hh"
#include "uat/uat_system.hh"
#include "workloads/workloads.hh"

using namespace jord;

namespace {

/** The host clock this bench measures throughput against. */
// detlint: allow(D1, "wall-clock is this bench's measurement (the events/s denominator); it never feeds the simulation")
using WallClock = std::chrono::steady_clock;

/** Host seconds elapsed since @p since (throughput denominator). */
double
wallSince(WallClock::time_point since)
{
    return std::chrono::duration<double>(WallClock::now() - since)
        .count();
}

/** @return the current host clock (start of a timed region). */
WallClock::time_point
wallNow()
{
    return WallClock::now();
}

/** One section's row: dispatched events over measured wall time. */
struct Throughput {
    std::uint64_t events = 0;
    double wallSec = 0;

    double
    eventsPerSec() const
    {
        return wallSec > 0 ? static_cast<double>(events) / wallSec : 0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "sim_throughput");
    std::unique_ptr<par::ThreadPool> pool = args.makePool();

    // --- worker: fig14's largest machine, serial event core --------
    workloads::Workload hipster = workloads::makeHipster();
    runtime::WorkerConfig wcfg;
    wcfg.machine = sim::MachineConfig::scaled(256, 2);
    wcfg.numOrchestrators = 32;
    std::uint64_t requests = args.quick ? 3000 : 12000;
    requests = sim::env::getU64("JORD_SIM_THROUGHPUT_REQUESTS", requests);
    runtime::WorkerServer worker(wcfg, hipster.registry);
    auto t0 = wallNow();
    worker.run(0.03 * 256, requests, hipster.mix);
    Throughput worker_tp;
    worker_tp.wallSec = wallSince(t0);
    worker_tp.events = worker.eventQueue().numDispatched();

    // --- cluster: fleet DES at 70% of calibrated capacity ----------
    workloads::Workload hotel = workloads::makeHotel();
    cluster::ClusterConfig ccfg;
    ccfg.calibration.requests = args.quick ? 3000 : 12000;
    ccfg.traffic.durationUs = args.quick ? 20000.0 : 60000.0;
    ccfg.serverQueueCap = 256;
    ccfg.numServers = 8;
    cluster::ServerModel model = cluster::calibrateServer(
        hotel, ccfg.worker, ccfg.calibration, pool.get());
    ccfg.traffic.mrps = 0.7 * 8 * model.capacityMrps;
    cluster::ClusterSim fleet(ccfg, model);
    t0 = wallNow();
    fleet.run();
    Throughput cluster_tp;
    cluster_tp.wallSec = wallSince(t0);
    cluster_tp.events = fleet.eventQueue().numDispatched();

    bench::banner("Event-core throughput (events/second)");

    stats::Table table(
        {"Section", "Events", "Wall (s)", "Events/s"});
    auto add_row = [&table](const char *name, const Throughput &tp) {
        table.addRow({name,
                      stats::Table::cell(
                          static_cast<double>(tp.events), "%.0f"),
                      stats::Table::cell(tp.wallSec, "%.3f"),
                      stats::Table::cell(tp.eventsPerSec(), "%.0f")});
    };
    add_row("worker (256-core, 2-socket)", worker_tp);
    add_row("cluster (8 servers)", cluster_tp);
    std::printf("%s", table.render().c_str());

    std::map<std::string, double> json;
    json["sim_throughput.worker.events_per_sec"] =
        worker_tp.eventsPerSec();
    json["counter.sim_throughput.worker.events"] =
        static_cast<double>(worker_tp.events);
    const mem::CoherenceStats &mem = worker.coherence().stats();
    json["counter.sim_throughput.worker.mem_reads"] =
        static_cast<double>(mem.reads);
    json["counter.sim_throughput.worker.mem_writes"] =
        static_cast<double>(mem.writes);
    json["counter.sim_throughput.worker.mem_l1_hits"] =
        static_cast<double>(mem.l1Hits);
    json["counter.sim_throughput.worker.mem_invalidations"] =
        static_cast<double>(mem.invalidations);
    json["counter.sim_throughput.worker.mem_messages"] =
        static_cast<double>(mem.messages);
    const uat::VtdStats &vtd = worker.uat().vtd().stats();
    json["counter.sim_throughput.worker.vtd_reads"] =
        static_cast<double>(vtd.reads);
    json["counter.sim_throughput.worker.vtd_writes"] =
        static_cast<double>(vtd.writes);
    json["counter.sim_throughput.worker.vtd_evictions"] =
        static_cast<double>(vtd.evictions);
    json["counter.sim_throughput.worker.vtd_victims"] =
        static_cast<double>(vtd.victims);
    std::uint64_t vlb_hits = 0;
    std::uint64_t vlb_misses = 0;
    for (unsigned core = 0; core < wcfg.machine.numCores; ++core) {
        for (uat::Vlb *vlb : {&worker.uat().ivlb(core),
                              &worker.uat().dvlb(core)}) {
            vlb_hits += vlb->stats().hits;
            vlb_misses += vlb->stats().misses;
        }
    }
    json["counter.sim_throughput.worker.vlb_hits"] =
        static_cast<double>(vlb_hits);
    json["counter.sim_throughput.worker.vlb_misses"] =
        static_cast<double>(vlb_misses);
    json["sim_throughput.cluster.events_per_sec"] =
        cluster_tp.eventsPerSec();
    json["counter.sim_throughput.cluster.events"] =
        static_cast<double>(cluster_tp.events);
    bench::writeBenchJson(args.jsonPath, json);
    return 0;
}
