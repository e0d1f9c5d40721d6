/**
 * @file
 * The benchmark's workloads, their output checks and their
 * fingerprinted modelled outputs.
 *
 * Every configuration is built the way tools/jordsim builds it from
 * the flags recorded in the outputs' "$ " lines, so the rows the
 * benchmark fingerprints are the rows `jordsim --csv` prints for
 * those flags (tests/jordsim_match.py checks this).
 */

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>

#include "cluster/server.hh"
#include "perfbench.hh"
#include "prof/pmu.hh"
#include "trace/export.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "workloads/sweep.hh"
#include "workloads/workloads.hh"

namespace perfbench {

namespace {

using jord::prof::PmuCounter;
using jord::runtime::RunResult;
using jord::runtime::SystemKind;
using jord::runtime::WorkerConfig;
using jord::runtime::WorkerServer;

/** Fraction of each worker run's requests excluded from modelled
 * latency (the simulator's default; host time covers them). */
constexpr double kWarmupFrac = 0.2;

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

/**
 * Takes the exported trace and metrics through a fixed 64 KiB buffer,
 * as the std::ofstream jordsim writes them to does, and counts the
 * bytes instead of storing them: a growing in-memory copy would time
 * the benchmark's allocations, not the exporter.
 */
class CountingBuf : public std::streambuf
{
  public:
    CountingBuf() { setp(buf_, buf_ + sizeof(buf_)); }

    std::size_t
    bytes() const
    {
        return flushed_ + static_cast<std::size_t>(pptr() - pbase());
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        flushed_ += static_cast<std::size_t>(pptr() - pbase());
        setp(buf_, buf_ + sizeof(buf_));
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            sputc(traits_type::to_char_type(c));
        return traits_type::not_eof(c);
    }

  private:
    char buf_[1 << 16];
    std::size_t flushed_ = 0;
};

/** Record one operation's check verdict on @p rep. */
void
noteOp(Rep &rep, const std::string &what, const std::string &why)
{
    ++rep.ops;
    if (why.empty())
        return;
    ++rep.failedOps;
    rep.failures.push_back(what + ": " + why);
}

/** The PrivLib operations whose calls and cycles are reported. */
struct PrivOpName {
    jord::privlib::PrivOp op;
    const char *name;
};
constexpr PrivOpName kPrivOps[] = {
    {jord::privlib::PrivOp::Mmap, "mmap"},
    {jord::privlib::PrivOp::Munmap, "munmap"},
    {jord::privlib::PrivOp::Cget, "cget"},
    {jord::privlib::PrivOp::Cput, "cput"},
    {jord::privlib::PrivOp::Ccall, "ccall"},
};

/**
 * A worker's per-layer work counts for one run, read through public
 * accessors: a PMU attached before the run, and the coherence and
 * PrivLib statistics as deltas over the run (construction bootstraps
 * VMAs and PDs of its own).
 */
class WorkerCounts
{
  public:
    explicit WorkerCounts(WorkerServer &worker)
        : worker_(worker), pmu_(worker.config().machine.numCores),
          mem_(worker.coherence().stats())
    {
        worker.setPmu(&pmu_);
        for (std::size_t i = 0; i < std::size(kPrivOps); ++i)
            priv_[i] = worker.privlib().stats(kPrivOps[i].op);
    }

    /** Add this run's counts to @p c; @p sim_counts adds the event
     * queue's too. */
    void
    add(const RunResult &res, Counts &c, bool sim_counts = true) const
    {
        auto pmu = [this](PmuCounter counter) {
            return static_cast<double>(pmu_.totalCounter(counter));
        };
        c["runtime.servers"] += 1;
        c["runtime.invocations"] += static_cast<double>(res.invocations);
        c["runtime.dispatch_scans"] += pmu(PmuCounter::DispatchScans);
        c["runtime.queue_wait_cycles"] +=
            pmu(PmuCounter::QueueWaitCycles);
        c["runtime.failed"] += static_cast<double>(res.failedRequests);
        c["runtime.timed_out"] +=
            static_cast<double>(res.timedOutRequests);
        c["runtime.shed"] += static_cast<double>(res.shedRequests);
        if (sim_counts) {
            c["sim.events"] += static_cast<double>(
                worker_.eventQueue().numDispatched());
            c["sim.tombstones_end"] += static_cast<double>(
                worker_.eventQueue().numTombstones());
        }
        const jord::mem::CoherenceStats &mem =
            worker_.coherence().stats();
        auto delta = [](std::uint64_t now, std::uint64_t before) {
            return static_cast<double>(now - before);
        };
        c["mem.reads"] += delta(mem.reads, mem_.reads);
        c["mem.writes"] += delta(mem.writes, mem_.writes);
        c["mem.atomics"] += delta(mem.atomics, mem_.atomics);
        c["mem.l1_hits"] += delta(mem.l1Hits, mem_.l1Hits);
        c["mem.llc_hits"] += delta(mem.llcHits, mem_.llcHits);
        c["mem.dram_fills"] += delta(mem.dramFills, mem_.dramFills);
        c["mem.invalidations"] +=
            delta(mem.invalidations, mem_.invalidations);
        c["mem.messages"] += delta(mem.messages, mem_.messages);
        c["noc.msgs"] += pmu(PmuCounter::NocMsgs);
        c["noc.hops"] += pmu(PmuCounter::NocHops);
        c["uat.vlb_hits"] +=
            pmu(PmuCounter::VlbIHits) + pmu(PmuCounter::VlbDHits);
        c["uat.vlb_misses"] +=
            pmu(PmuCounter::VlbIMisses) + pmu(PmuCounter::VlbDMisses);
        c["uat.vtw_walks"] += pmu(PmuCounter::VtwWalks);
        c["uat.vtd_shootdowns"] += pmu(PmuCounter::VtdShootdowns);
        c["uat.vtd_back_invals"] += pmu(PmuCounter::VtdBackInvals);
        for (std::size_t i = 0; i < std::size(kPrivOps); ++i) {
            const jord::privlib::OpStats &now =
                worker_.privlib().stats(kPrivOps[i].op);
            std::string key = std::string("privlib.") + kPrivOps[i].name;
            c[key + ".calls"] += delta(now.count, priv_[i].count);
            c[key + ".cycles"] += delta(now.cycles, priv_[i].cycles);
        }
    }

  private:
    WorkerServer &worker_;
    jord::prof::Pmu pmu_;
    jord::mem::CoherenceStats mem_;
    jord::privlib::OpStats priv_[std::size(kPrivOps)];
};

/** The CSV row `jordsim --csv` prints for one worker run. */
std::string
workerRow(const char *workload, const char *system, double mrps,
          const RunResult &res)
{
    return format("%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%.4f,"
                  "%llu,%llu,%llu,%llu,%llu\n",
                  workload, system, mrps, res.achievedMrps,
                  res.latencyUs.mean(), res.latencyUs.p50(),
                  res.latencyUs.p99(), ull(res.invocations),
                  res.executorUtilization, ull(res.completedRequests),
                  ull(res.failedRequests), ull(res.timedOutRequests),
                  ull(res.shedRequests), ull(res.retries));
}

// --- sweep-hotel -----------------------------------------------------

/** One system's fig9-style load series, minimal load to past the
 * knee (Hotel's knees: ~4.3 MRPS on Jord, ~1 MRPS on NightCore). */
struct SweepSpec {
    const char *system;
    SystemKind kind;
    double lo;
    double hi;
    unsigned points;
};

constexpr SweepSpec kSweeps[] = {
    {"Jord", SystemKind::Jord, 0.5, 9.0, 4},
    {"NightCore", SystemKind::NightCore, 0.125, 2.25, 4},
};

constexpr std::uint64_t kSweepRequests = 1000;
/** Length of the Hotel point the observer probe times. */
constexpr std::uint64_t kHotelPointRequests = 5000;

Rep
runSweepHotel(const Params &p, SpanLog &log, Counts *counts)
{
    Rep rep;
    const std::uint64_t requests = kSweepRequests;
    jord::workloads::Workload hotel;
    rep.setupS += log.timed("workloads.build", [&] {
        hotel = jord::workloads::makeHotel();
    });
    jord::workloads::SweepConfig cfg;
    cfg.worker.seed = p.seed;
    cfg.requestsPerPoint = requests;
    cfg.warmupFrac = kWarmupFrac;

    // The SLO run simulates requests, so it is run phase (its one
    // WorkerServer construction is inside the call).
    double slo_us = 0;
    rep.runS += log.timed("workloads.slo", [&] {
        slo_us = jord::workloads::measureSloUs(hotel, cfg);
    });
    // measureSloUs() runs max(2000, requestsPerPoint / 10) requests.
    rep.simRequests += std::max<std::uint64_t>(2000, requests / 10);
    if (counts)
        (*counts)["runtime.servers"] += 1;

    for (const SweepSpec &spec : kSweeps) {
        jord::workloads::SweepResult sweep;
        sweep.system = spec.kind;
        sweep.sloUs = slo_us;
        std::string rows, means;
        for (double load :
             jord::workloads::loadSeries(spec.lo, spec.hi, spec.points)) {
            WorkerConfig wc = cfg.worker;
            wc.system = spec.kind;
            // Observers on, as fig11_breakdown and jordsim
            // --trace-out/--metrics-out attach them.
            jord::trace::Tracer tracer(wc.machine.freqGhz);
            jord::trace::MetricsRegistry registry;
            std::unique_ptr<WorkerServer> worker;
            rep.setupS += log.timed("runtime.construct", [&] {
                worker = std::make_unique<WorkerServer>(wc, hotel.registry);
                worker->setTracer(&tracer);
                worker->attachMetrics(registry);
            });
            std::optional<WorkerCounts> wcounts;
            if (counts)
                wcounts.emplace(*worker);
            RunResult res;
            rep.runS += log.timed("runtime.run", [&] {
                res = worker->run(load, requests, hotel.mix, kWarmupFrac);
            });
            std::size_t exported = 0;
            rep.runS += log.timed("trace.export", [&] {
                CountingBuf buf;
                std::ostream out(&buf);
                jord::trace::writeChromeTrace(tracer, out);
                registry.writeCsv(out);
                exported = buf.bytes();
            });
            rep.simRequests += requests;
            if (counts) {
                wcounts->add(res, *counts);
                (*counts)["trace.spans"] +=
                    static_cast<double>(tracer.numSpans());
            }

            std::string why = checkWorker(res, requests, kWarmupFrac);
            if (why.empty() && (tracer.numSpans() == 0 || exported == 0))
                why = "observers attached but nothing was recorded";
            noteOp(rep, format("%s @ %.4f MRPS", spec.system, load), why);

            jord::workloads::SweepPoint point;
            point.offeredMrps = load;
            point.achievedMrps = res.achievedMrps;
            point.p99Us = res.latencyUs.p99();
            point.meanUs = res.latencyUs.mean();
            point.meetsSlo =
                point.p99Us <= slo_us && res.completedRequests > 0;
            sweep.points.push_back(point);
            rows += format("%.4f,%.4f,%.4f,%d\n", point.offeredMrps,
                           point.achievedMrps, point.p99Us,
                           point.meetsSlo ? 1 : 0);
            means += format("+ mean_us %.4f %.4f\n", load, point.meanUs);
        }
        jord::workloads::finalizeSweep(sweep);
        rep.outputs += format("$ --workload Hotel --system %s --sweep "
                              "%g:%g:%u --requests %llu --seed %llu\n",
                              spec.system, spec.lo, spec.hi, spec.points,
                              ull(requests), ull(p.seed));
        rep.outputs += rows + means;
        rep.outputs += format("+ slo_us %.4f\n", slo_us);
        rep.outputs += format("+ throughput_under_slo %.4f\n",
                              sweep.throughputUnderSlo);
    }
    if (counts)
        (*counts)["workloads.points"] += rep.ops;
    return rep;
}

// --- worker-media-256 ------------------------------------------------

/** fig14's largest machine: 256 cores, 2 sockets, per-socket
 * orchestrator groups (32 orchestrators, 224 executors). */
constexpr unsigned kMediaCores = 256;
constexpr unsigned kMediaSockets = 2;
constexpr unsigned kMediaOrchestrators = 32;
/** Moderate load: ~20% executor utilization. */
constexpr double kMediaMrps = 4.0;
constexpr std::uint64_t kMediaRequests = 5000;

Rep
runWorkerMedia(const Params &p, SpanLog &log, Counts *counts)
{
    Rep rep;
    const std::uint64_t requests = kMediaRequests;
    jord::workloads::Workload media;
    rep.setupS += log.timed("workloads.build", [&] {
        media = jord::workloads::makeMedia();
    });
    WorkerConfig wc;
    wc.machine =
        jord::sim::MachineConfig::scaled(kMediaCores, kMediaSockets);
    wc.numOrchestrators = kMediaOrchestrators;
    wc.seed = p.seed;
    std::unique_ptr<WorkerServer> worker;
    rep.setupS += log.timed("runtime.construct", [&] {
        worker = std::make_unique<WorkerServer>(wc, media.registry);
    });
    std::optional<WorkerCounts> wcounts;
    if (counts)
        wcounts.emplace(*worker);
    RunResult res;
    rep.runS += log.timed("runtime.run", [&] {
        res = worker->run(kMediaMrps, requests, media.mix, kWarmupFrac);
    });
    rep.simRequests += requests;
    if (counts) {
        wcounts->add(res, *counts);
        (*counts)["workloads.points"] += 1;
    }
    noteOp(rep, "Media run", checkWorker(res, requests, kWarmupFrac));
    rep.outputs += format("$ --workload Media --system Jord --mrps %g "
                          "--requests %llu --cores %u --sockets %u "
                          "--orchestrators %u --seed %llu\n",
                          kMediaMrps, ull(requests), kMediaCores,
                          kMediaSockets, kMediaOrchestrators,
                          ull(p.seed));
    rep.outputs += workerRow("Media", "Jord", kMediaMrps, res);
    return rep;
}

// --- fleet-chaos -----------------------------------------------------

constexpr unsigned kFleetServers = 16;
/** ~50% of the calibrated fleet capacity (16 x ~7.1 MRPS). */
constexpr double kFleetMrps = 56.0;
/** 40 ms (~2.5M requests, 80 fault windows per server): long enough
 * for one seed's fault draws to average out, so the events per request
 * vary by ~2% across seeds (at 10 ms, by ~12%). */
constexpr double kFleetDurationMs = 40.0;
constexpr std::uint64_t kCalibrationRequests = 3000;
/** Crash and gray hazards per (server, 0.5 ms window); many short
 * outages keep the work per request steady across seeds. */
constexpr const char *kFleetPlan =
    "cluster:crash=0.05,gray=0.05,window_ms=0.5,restart_ms=1";
/** Hedge after ~3x the calibrated mean latency (~3.2 us), so hedges
 * run near their budget (10% of primaries) on every seed. */
constexpr double kFleetHedgeUs = 10.0;
constexpr double kFleetRetryBudget = 0.2;
constexpr std::uint32_t kFleetQueueCap = 256;

/** The fleet configuration, built as jordsim --cluster builds it. */
jord::cluster::ClusterConfig
fleetConfig(const Params &p)
{
    jord::cluster::ClusterConfig cfg;
    cfg.worker.seed = p.seed;
    cfg.faultPlan = jord::fault::FaultPlan::parse(kFleetPlan);
    cfg.serverQueueCap = kFleetQueueCap;
    cfg.calibration.requests = kCalibrationRequests;
    cfg.numServers = kFleetServers;
    cfg.lb = jord::cluster::parseLbPolicy("random2");
    cfg.traffic = jord::cluster::TrafficConfig::parse("mix");
    cfg.traffic.mrps = kFleetMrps;
    cfg.traffic.durationUs = kFleetDurationMs * 1000.0;
    cfg.seed = p.seed;
    cfg.resilience.hedgeUs = kFleetHedgeUs;
    cfg.resilience.retryBudgetFrac = kFleetRetryBudget;
    return cfg;
}

Rep
runFleetChaos(const Params &p, SpanLog &log, Counts *counts)
{
    Rep rep;
    jord::workloads::Workload hotel;
    rep.setupS += log.timed("workloads.build", [&] {
        hotel = jord::workloads::makeHotel();
    });
    jord::cluster::ClusterConfig cfg = fleetConfig(p);
    jord::cluster::ServerModel model;
    rep.setupS += log.timed("cluster.calibrate", [&] {
        model = jord::cluster::calibrateServer(hotel, cfg.worker,
                                               cfg.calibration, nullptr);
    });
    std::unique_ptr<jord::cluster::ClusterSim> fleet;
    rep.setupS += log.timed("cluster.construct", [&] {
        fleet = std::make_unique<jord::cluster::ClusterSim>(cfg, model);
    });
    jord::cluster::ClusterResult res;
    rep.runS += log.timed("cluster.run", [&] { res = fleet->run(); });
    rep.simRequests += res.generated;
    noteOp(rep, "fleet run", checkFleet(res));

    if (counts) {
        Counts &c = *counts;
        c["workloads.points"] += 1;
        c["sim.events"] +=
            static_cast<double>(fleet->eventQueue().numDispatched());
        c["sim.tombstones_end"] +=
            static_cast<double>(fleet->eventQueue().numTombstones());
        c["cluster.requests"] += static_cast<double>(res.generated);
        c["cluster.hedges"] += static_cast<double>(res.hedges);
        c["cluster.hedge_wins"] += static_cast<double>(res.hedgeWins);
        c["cluster.retries"] += static_cast<double>(res.retries);
        c["cluster.crashes"] += static_cast<double>(res.crashes);
        c["cluster.shed"] += static_cast<double>(res.shed);
        c["cluster.failed"] += static_cast<double>(res.failed);
    }

    rep.outputs += format(
        "$ --workload Hotel --system Jord --cluster %u --traffic mix "
        "--mrps %g --duration-ms %g --requests %llu --fault-plan %s "
        "--hedge-us %g --retry-budget %g --shed-cap %u --seed %llu\n",
        kFleetServers, kFleetMrps, cfg.traffic.durationUs / 1000.0,
        ull(cfg.calibration.requests), kFleetPlan, kFleetHedgeUs,
        kFleetRetryBudget, kFleetQueueCap, ull(p.seed));
    rep.outputs += format(
        "Hotel,Jord,%u,random2,mix,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,"
        "%.6f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%.4f,%.6f,%u\n",
        kFleetServers, res.offeredMrps, res.achievedMrps, res.goodputMrps,
        res.meanUs, res.p50Us, res.p99Us, res.sloUs,
        res.costServerSeconds, ull(res.completed), ull(res.shed),
        ull(res.coldStarts), ull(res.failed), ull(res.retries),
        ull(res.hedges), ull(res.hedgeWins), ull(res.crashes),
        ull(res.restarts), ull(res.ejections), ull(res.breakerOpens),
        res.timeToRecoverUs, res.sloBurn, res.finalActiveServers);
    for (const jord::cluster::TenantStats &tenant : res.tenants)
        rep.outputs += format("+ tenant %s %llu %llu %llu %.4f\n",
                              tenant.name.c_str(), ull(tenant.completed),
                              ull(tenant.shed), ull(tenant.failed),
                              tenant.p99Us);
    return rep;
}

/**
 * The fleet's worker layers run only inside calibrateServer(), which
 * exposes no worker. This replays its two runs (same configuration,
 * loads and request count) on WorkerServers the benchmark owns, so
 * their work counts can be read.
 */
void
replayCalibration(const Params &p, SpanLog &log, Counts &counts)
{
    jord::workloads::Workload hotel = jord::workloads::makeHotel();
    jord::cluster::ClusterConfig cfg = fleetConfig(p);
    const jord::cluster::CalibrationConfig &cal = cfg.calibration;
    for (double load : {cal.lowLoadMrps, cal.saturationMrps}) {
        std::unique_ptr<WorkerServer> worker;
        log.timed("runtime.construct", [&] {
            worker = std::make_unique<WorkerServer>(cfg.worker,
                                                    hotel.registry);
        });
        WorkerCounts wcounts(*worker);
        RunResult res;
        log.timed("runtime.run", [&] {
            res = worker->run(load, cal.requests, hotel.mix,
                              cal.warmupFrac);
        });
        wcounts.add(res, counts, /*sim_counts=*/false);
    }
}

/** Fingerprints of the default-seed outputs. */
constexpr std::uint64_t kSweepHotelFp = 0xf45c425ef67fdc17ull;
constexpr std::uint64_t kWorkerMediaFp = 0x814b63d44ef4db9full;
constexpr std::uint64_t kFleetChaosFp = 0xc422f5e681b82374ull;

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        // Set-up (a fresh server per point), the observers-on path,
        // NightCore's pipes and the sweep/SLO-knee logic.
        {"sweep-hotel",
         {"Hotel", 32, 1, 4, 2.5, kHotelPointRequests}, runSweepHotel,
         nullptr, kSweepHotelFp},
        // ~13.5 invocations per request and ArgBuf traffic across 224
        // executors: mem, noc, uat and privlib do most of the host work.
        {"worker-media-256",
         {"Media", kMediaCores, kMediaSockets, kMediaOrchestrators,
          kMediaMrps, 2000},
         runWorkerMedia, nullptr, kWorkerMediaFp},
        // Many cheap fleet events, hedge-loser cancels: sim and
        // cluster; the worker layers run only in calibration.
        {"fleet-chaos",
         {"Hotel", 32, 1, 4, 2.5, kHotelPointRequests}, runFleetChaos,
         replayCalibration, kFleetChaosFp},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::uint64_t
fingerprint(const std::string &outputs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : outputs) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
probeObservers(const PointSpec &point, const Params &p, Metrics &out)
{
    jord::workloads::Workload app = jord::workloads::makeByName(point.app);
    WorkerConfig wc;
    if (point.cores != 32 || point.sockets != 1)
        wc.machine =
            jord::sim::MachineConfig::scaled(point.cores, point.sockets);
    wc.numOrchestrators = point.orchestrators;
    wc.seed = p.seed;

    constexpr unsigned kPairs = 3;
    std::vector<double> on, off;
    for (unsigned i = 0; i < 2 * kPairs; ++i) {
        bool observed = i % 2 == 1;
        jord::trace::Tracer tracer(wc.machine.freqGhz);
        jord::trace::MetricsRegistry registry;
        WorkerServer worker(wc, app.registry);
        if (observed) {
            worker.setTracer(&tracer);
            worker.attachMetrics(registry);
        }
        Clock::time_point t0 = Clock::now();
        worker.run(point.mrps, point.requests, app.mix, kWarmupFrac);
        double run_s = seconds(t0, Clock::now());
        if (!observed) {
            off.push_back(run_s);
            continue;
        }
        Clock::time_point t1 = Clock::now();
        CountingBuf buf;
        std::ostream stream(&buf);
        jord::trace::writeChromeTrace(tracer, stream);
        registry.writeCsv(stream);
        double export_s = seconds(t1, Clock::now());
        on.push_back(run_s + export_s);
        out["trace.spans"] = static_cast<double>(tracer.numSpans());
        out["trace.export_s"] = export_s;
    }
    std::sort(on.begin(), on.end());
    std::sort(off.begin(), off.end());
    out["trace.overhead_frac"] = on[kPairs / 2] / off[kPairs / 2] - 1.0;
}

std::string
checkWorker(const RunResult &res, std::uint64_t requests,
            double warmup_frac)
{
    std::uint64_t warmup = static_cast<std::uint64_t>(
        static_cast<double>(requests) * warmup_frac);
    std::uint64_t window = requests - warmup;
    std::uint64_t resolved = res.completedRequests + res.failedRequests +
                             res.timedOutRequests + res.shedRequests;
    if (resolved != window)
        return format("worker conservation broken: completed %llu + "
                      "failed %llu + timed out %llu + shed %llu = %llu, "
                      "measured window %llu",
                      ull(res.completedRequests), ull(res.failedRequests),
                      ull(res.timedOutRequests), ull(res.shedRequests),
                      ull(resolved), ull(window));
    if (res.completedRequests == 0)
        return "no request completed";
    return "";
}

std::string
checkFleet(const jord::cluster::ClusterResult &res)
{
    if (res.generated != res.completed + res.shed + res.failed)
        return format("fleet conservation broken: generated %llu != "
                      "completed %llu + shed %llu + failed %llu",
                      ull(res.generated), ull(res.completed),
                      ull(res.shed), ull(res.failed));
    std::uint64_t tenants = 0;
    for (const jord::cluster::TenantStats &tenant : res.tenants)
        tenants += tenant.completed + tenant.shed + tenant.failed;
    if (tenants > res.generated)
        return format("tenants resolved %llu requests, more than the "
                      "%llu generated",
                      ull(tenants), ull(res.generated));
    if (res.completed == 0)
        return "no request completed";
    return "";
}

} // namespace perfbench
