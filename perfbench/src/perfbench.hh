/**
 * @file
 * Host-performance benchmark of the simulator: named workloads driven
 * through the public API, output checks, benchmark-side spans and
 * layer probes.
 *
 * Every workload is a batch run repeated ("reps") for the requested
 * host time. A rep splits into set-up (workload build, component
 * construction, calibration: everything before the first simulated
 * event) and run (simulation plus observer export). The simulator
 * itself is never modified or instrumented from the inside: spans
 * wrap the calls into each layer's public functions, and per-layer
 * work counts are read through public accessors (PMU, coherence and
 * PrivLib statistics, run results).
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hh"
#include "runtime/worker.hh"

namespace perfbench {

/**
 * CPU time of the calling thread (user plus system). Timed regions
 * are single-threaded, so this is the host time the program spends;
 * unlike wall time it leaves out the time a shared host runs other
 * tenants' work on this thread's CPU.
 */
struct Clock {
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<Clock>;
    static constexpr bool is_steady = true;

    static time_point
    now() noexcept
    {
        timespec ts;
        // detlint: allow(D1, "host time is this benchmark's measurement; it never feeds the simulation")
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return time_point(duration(
            static_cast<rep>(ts.tv_sec) * 1000000000 + ts.tv_nsec));
    }
};

/** Wall time, for the run's host-time budget only. */
// detlint: allow(D1, "host time is this benchmark's measurement; it never feeds the simulation")
using WallClock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
template <typename TimePoint>
double
seconds(TimePoint from, TimePoint to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Metric name -> value. */
using Metrics = std::map<std::string, double>;

// --- Host speed ------------------------------------------------------

/**
 * A fixed reference kernel, independent of the simulator: lookups in
 * a 200k-entry hash map and operations on a 4096-entry binary heap. A
 * shared host runs this thread faster or slower over minutes; the
 * kernel's CPU time, sampled between reps, measures that, and the
 * end-to-end host times are scaled to the speed at which one sample
 * takes kNominalS.
 */
class HostSpeed
{
  public:
    /** The kernel's median CPU time on the host the bounds were set
     * on (a shared 4-vCPU x86 VM at 2.1 GHz nominal). */
    static constexpr double kNominalS = 0.025;

    /** Builds the kernel's working set (~10 MB). */
    HostSpeed();

    /** Run the kernel once; return its host seconds. */
    double sample();

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    std::vector<std::uint64_t> heap_;
    /** Results folded in so the work cannot be elided. */
    std::uint64_t sink_ = 0;
};

// --- Spans -----------------------------------------------------------

/** One benchmark-side span around a call into a layer. */
struct Span {
    /** "<layer>.<what>", e.g. "runtime.run". */
    std::string name;
    /** Host seconds since the log was created. */
    double start = 0;
    double end = 0;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
    /** The rep the span belongs to. */
    unsigned run = 0;
};

/**
 * In-memory span log. timed() always measures (the workloads use the
 * returned seconds for their set-up/run split); it records a span
 * only while recording is on, so untraced reps pay one branch.
 */
class SpanLog
{
  public:
    SpanLog();

    void setRecording(bool on, unsigned run = 0);

    /** Run @p f, returning its host seconds; record a span named
     * @p name nested in the innermost open span when recording. */
    template <typename F>
    double
    timed(const char *name, F &&f)
    {
        Clock::time_point t0 = Clock::now();
        int idx = recording_ ? open(name, t0) : -1;
        f();
        Clock::time_point t1 = Clock::now();
        if (idx >= 0)
            close(idx, t1);
        return seconds(t0, t1);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time (duration minus the time its child spans cover) of
     * run @p run's spans, summed per span name. */
    std::map<std::string, double> selfSeconds(unsigned run) const;

    /** Write the spans as a JSON array (name, start, end, parent,
     * run). */
    void writeJson(std::ostream &out) const;

  private:
    int open(const char *name, Clock::time_point at);
    void close(int idx, Clock::time_point at);

    Clock::time_point epoch_;
    bool recording_ = false;
    unsigned run_ = 0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// --- Workloads -------------------------------------------------------

/** Inputs of one workload run. */
struct Params {
    /** Workload seed: worker, fleet and fault-plan randomness. */
    std::uint64_t seed = 42;
};

/** What one rep of a workload did. */
struct Rep {
    double setupS = 0;
    double runS = 0;
    /** External requests simulated to completion in the run phase. */
    std::uint64_t simRequests = 0;
    /** Operations: sweep points, worker runs, fleet runs. */
    unsigned ops = 0;
    unsigned failedOps = 0;
    /** Why each failed operation failed. */
    std::vector<std::string> failures;
    /**
     * Canonical modelled outputs: blocks of "$ <jordsim flags>"
     * followed by the CSV rows `jordsim --csv` prints for those flags
     * and "+ "-prefixed lines for outputs jordsim does not print.
     */
    std::string outputs;
};

/**
 * Per-layer work counts, read in traced reps through public
 * accessors and summed over the reps. Keys are metric names.
 */
using Counts = Metrics;

/** One worker run: application, machine, load and length. */
struct PointSpec {
    const char *app;
    unsigned cores;
    unsigned sockets;
    unsigned orchestrators;
    double mrps;
    std::uint64_t requests;
};

/** A benchmark workload. */
struct Workload {
    const char *name;
    /** A representative worker run of the workload: the machine the
     * layer probes are built at, and the observer-overhead point. */
    PointSpec point;
    /** One rep; @p counts is non-null in traced reps. */
    Rep (*run)(const Params &, SpanLog &, Counts *counts);
    /** Traced runs only, when set: counts the work of layers that
     * run inside a call exposing none of their components. */
    void (*replay)(const Params &, SpanLog &, Counts &counts);
    /** Fingerprint of the rep outputs at the default seed. */
    std::uint64_t expected;
};

/** Every workload, in benchmark order. */
const std::vector<Workload> &workloads();

/** Look a workload up by name (null if unknown). */
const Workload *findWorkload(const std::string &name);

/** The default seed, whose outputs carry a recorded fingerprint. */
inline constexpr std::uint64_t kDefaultSeed = 42;

/** FNV-1a 64-bit hash of the canonical outputs. */
std::uint64_t fingerprint(const std::string &outputs);

/**
 * The instrumentation layer's probe: @p point run alternately with
 * and without a Tracer and MetricsRegistry attached. Adds
 * trace.overhead_frac (run-phase host time, on over off, minus 1),
 * trace.spans and trace.export_s to @p out.
 */
void probeObservers(const PointSpec &point, const Params &p,
                    Metrics &out);

// --- Output checks ---------------------------------------------------

/**
 * Worker conservation: every request of the measured window resolved
 * as exactly one of completed, failed, timed out or shed.
 * @return empty on success, else what broke.
 */
std::string checkWorker(const jord::runtime::RunResult &res,
                        std::uint64_t requests, double warmup_frac);

/** Fleet conservation: generated == completed + shed + failed, and
 * the tenants' measured-window counts fit inside the fleet's. */
std::string checkFleet(const jord::cluster::ClusterResult &res);

// --- Layer probes ----------------------------------------------------

/**
 * Time each component's public constructor (standalone, at the
 * workload's machine shape) and direct calls into each layer's hot
 * public function, with inputs drawn from @p seed. Adds the
 * `*.construct_s` and `*_ns` probe metrics to @p out.
 */
void runProbes(unsigned cores, unsigned sockets, std::uint64_t seed,
               Metrics &out);

// --- Metric catalog --------------------------------------------------

/** A reported metric: name and unit. */
struct MetricDef {
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced runs). */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics (traced runs). */
const std::vector<MetricDef> &perLayerMetrics();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
