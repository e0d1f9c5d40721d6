/**
 * @file
 * jordbench: run one benchmark workload for a host-time budget and
 * print its metrics.
 *
 *     jordbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *               [--spans-out FILE]
 *     jordbench --workload NAME --outputs [--seed N]
 *     jordbench --list
 *
 * Untraced (--trace 0) it repeats the workload for --seconds, samples
 * the host-speed kernel between reps, and reports the end-to-end
 * metrics as medians over the reps of their host times scaled to the
 * kernel's nominal speed. Traced (--trace 1) it alternates untraced
 * and traced reps, replays opaque calibration work for its counts,
 * runs the layer probes, and reports the per-layer metrics (raw host
 * time, with the kernel's median time beside it). Every rep's
 * modelled outputs are checked; the last stdout line is the JSON
 * result, and the exit code is 1 if any operation failed its check.
 * --outputs prints one rep's canonical outputs and their fingerprint;
 * --list prints the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "perfbench.hh"

using namespace perfbench;

namespace {

/** Host-speed kernel samples taken after each untraced rep. */
constexpr unsigned kSpeedSamplesPerRep = 3;

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
    bool outputs = false;
    bool list = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "jordbench: %s\n"
                 "usage: jordbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans-out FILE] "
                 "[--outputs] | --list\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--outputs") {
            opt.outputs = true;
            continue;
        }
        if (flag == "--list") {
            opt.list = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
            continue;
        } else if (flag == "--spans-out") {
            opt.spansOut = value;
            continue;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            opt.trace = std::strtoul(value, &end, 10) != 0;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end == value || *end != '\0')
            usage(("bad value for " + flag + ": " + value).c_str());
    }
    if (!(opt.seconds >= 0))
        usage("--seconds must be >= 0");
    return opt;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Checks every rep's outputs and tallies operations. */
struct Verdict {
    Verdict(const Workload &w, const Params &p) : workload(w), params(p)
    {
    }

    const Workload &workload;
    const Params &params;
    std::string first;
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> failures;

    void
    check(const Rep &rep)
    {
        std::string why;
        if (attempted == 0)
            first = rep.outputs;
        if (rep.outputs != first)
            why = "modelled outputs differ from the first rep's";
        else if (params.seed == kDefaultSeed &&
                 fingerprint(rep.outputs) != workload.expected) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "fingerprint %016llx, recorded %016llx",
                          static_cast<unsigned long long>(
                              fingerprint(rep.outputs)),
                          static_cast<unsigned long long>(
                              workload.expected));
            why = buf;
        }
        attempted += rep.ops;
        failed += why.empty() ? rep.failedOps : rep.ops;
        failures.insert(failures.end(), rep.failures.begin(),
                        rep.failures.end());
        if (!why.empty())
            failures.push_back("rep outputs: " + why);
    }
};

/**
 * Per-layer values averaged over the runs that produced them: a
 * layer's time or count is per traced rep, and per replay for the
 * layers only a replay exposes.
 */
class LayerAverages
{
  public:
    /** Add one run's counts, and its layer spans' self times as
     * "<span>_s" (the benchmark's own "bench.*" spans are not a
     * layer). */
    void
    addRun(const Counts &counts, const std::map<std::string, double> &self)
    {
        Counts values = counts;
        for (const auto &[name, seconds] : self)
            if (name.rfind("bench.", 0) != 0)
                values[name + "_s"] += seconds;
        for (const auto &[name, value] : values) {
            sums_[name].first += value;
            sums_[name].second += 1;
        }
    }

    Metrics
    means() const
    {
        Metrics out;
        for (const auto &[name, sum] : sums_)
            out[name] = sum.first / sum.second;
        return out;
    }

  private:
    std::map<std::string, std::pair<double, unsigned>> sums_;
};

/** Derive the per-layer ratios and probe estimates in place. */
void
deriveLayerMetrics(Metrics &m)
{
    auto get = [&m](const char *name) {
        auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    m["runtime.us_per_invocation"] =
        1e6 * ratio(get("runtime.run_s"), get("runtime.invocations"));
    // Events are dispatched inside the run span of the layer that owns
    // the event queue: the fleet's, else the workers'.
    double run_s = get("cluster.run_s") > 0 ? get("cluster.run_s")
                                            : get("runtime.run_s");
    m["sim.ns_per_event"] = 1e9 * ratio(run_s, get("sim.events"));
    double accesses =
        get("mem.reads") + get("mem.writes") + get("mem.atomics");
    m["mem.l1_hit_ratio"] = ratio(get("mem.l1_hits"), accesses);
    double vlb = get("uat.vlb_hits") + get("uat.vlb_misses");
    m["uat.vlb_hit_ratio"] = ratio(get("uat.vlb_hits"), vlb);
    m["cluster.ns_per_request"] =
        1e9 * ratio(get("cluster.run_s"), get("cluster.requests"));
    m["cluster.hedge_win_ratio"] =
        ratio(get("cluster.hedge_wins"), get("cluster.hedges"));

    // Outside estimates: exact calls x probed ns per call.
    m["sim.probe_est_s"] =
        1e-9 * get("sim.events") * get("sim.schedule_step_ns");
    m["mem.probe_est_s"] = 1e-9 * accesses * get("mem.access_ns");
    m["noc.probe_est_s"] = 1e-9 * get("noc.msgs") * get("noc.latency_ns");
    m["uat.probe_est_s"] = 1e-9 * vlb * get("uat.data_access_ns");
    double privlib = 0;
    for (const char *op : {"mmap", "munmap", "cget", "cput", "ccall"})
        privlib += get((std::string("privlib.") + op + ".calls").c_str()) *
                   get((std::string("privlib.") + op + "_ns").c_str());
    m["privlib.probe_est_s"] = 1e-9 * privlib;
}

void
printLayerTable(const Metrics &m)
{
    std::fprintf(stderr, "\nper-layer host time per traced rep "
                         "(benchmark spans):\n");
    for (const char *name :
         {"workloads.build_s", "workloads.slo_s", "runtime.construct_s",
          "runtime.run_s", "trace.export_s", "cluster.calibrate_s",
          "cluster.construct_s", "cluster.run_s"}) {
        auto it = m.find(name);
        if (it != m.end() && it->second > 0)
            std::fprintf(stderr, "  %-22s %10.4f s\n", name, it->second);
    }
    std::fprintf(stderr, "  %-22s %10.2f %% of the rep\n",
                 "bench (uncovered)", 100 * m.at("bench.self_frac"));
    std::fprintf(stderr, "probe estimates (exact calls x probed ns), "
                         "beside runtime.run_s %.4f s:\n",
                 m.count("runtime.run_s") ? m.at("runtime.run_s") : 0.0);
    for (const char *name : {"sim.probe_est_s", "mem.probe_est_s",
                             "noc.probe_est_s", "uat.probe_est_s",
                             "privlib.probe_est_s"})
        std::fprintf(stderr, "  %-22s %10.4f s\n", name, m.at(name));
}

void
printResult(const Verdict &verdict, const std::vector<MetricDef> &defs,
            const Metrics &values)
{
    std::string json = "{\"correct\": ";
    json += verdict.failed == 0 && verdict.attempted > 0 ? "true"
                                                         : "false";
    json += ", \"attempted\": " + std::to_string(verdict.attempted);
    json += ", \"failed\": " + std::to_string(verdict.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", defs[i].name, v, defs[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.list) {
        for (const Workload &w : workloads())
            std::printf("workload %s\n", w.name);
        for (const MetricDef &def : endToEndMetrics())
            std::printf("end_to_end %s %s\n", def.name, def.unit);
        for (const MetricDef &def : perLayerMetrics())
            std::printf("per_layer %s %s\n", def.name, def.unit);
        return 0;
    }
    const Workload *workload = findWorkload(opt.workload);
    if (!workload)
        usage(("unknown workload '" + opt.workload + "'").c_str());
    Params params;
    params.seed = opt.seed;
    SpanLog log;

    if (opt.outputs) {
        Rep rep = workload->run(params, log, nullptr);
        std::printf("%sfingerprint %016llx\n", rep.outputs.c_str(),
                    static_cast<unsigned long long>(
                        fingerprint(rep.outputs)));
        for (const std::string &failure : rep.failures)
            std::fprintf(stderr, "FAILED %s\n", failure.c_str());
        return rep.failedOps ? 1 : 0;
    }

    Verdict verdict{*workload, params};
    Metrics values;
    WallClock::time_point start = WallClock::now();
    auto elapsed = [&start] { return seconds(start, WallClock::now()); };

    if (!opt.trace) {
        // Per rep: measured rate and set-up, and the host-speed
        // kernel's median over the samples taken on either side of it.
        std::vector<double> rates, setups, kernels;
        std::vector<double> scaled_rates, scaled_setups;
        std::optional<HostSpeed> speed;
        std::vector<double> before;
        do {
            Rep rep;
            double rep_s = log.timed("bench.rep", [&] {
                rep = workload->run(params, log, nullptr);
            });
            verdict.check(rep);
            rates.push_back(ratio(static_cast<double>(rep.simRequests),
                                  rep.runS));
            setups.push_back(rep.setupS);
            // The first rep is what a process running the workload once
            // holds; later reps only add allocator fragmentation. The
            // host-speed kernel's memory comes after that reading.
            if (rates.size() == 1) {
                values["peak_rss_mb"] = peakRssMb();
                speed.emplace();
            }
            std::vector<double> around = before;
            before.clear();
            for (unsigned i = 0; i < kSpeedSamplesPerRep; ++i)
                before.push_back(speed->sample());
            around.insert(around.end(), before.begin(), before.end());
            kernels.push_back(median(around));
            // > 1 when the host ran this thread slower than nominal.
            double slowdown = kernels.back() / HostSpeed::kNominalS;
            scaled_rates.push_back(rates.back() * slowdown);
            scaled_setups.push_back(setups.back() / slowdown);
            std::fprintf(stderr,
                         "rep %zu: setup %.4f s, run %.4f s, rep %.4f s, "
                         "%.1f simulated req/s, kernel %.4f s\n",
                         rates.size(), rep.setupS, rep.runS, rep_s,
                         rates.back(), kernels.back());
        } while (elapsed() < opt.seconds);
        std::fprintf(stderr,
                     "unscaled: measured medians %.1f simulated req/s, "
                     "set-up %.4f s; kernel median %.4f s\n",
                     median(rates), median(setups), median(kernels));
        values["sim_req_per_s"] = median(scaled_rates);
        values["setup_s"] = median(scaled_setups);
    } else {
        // Untraced and traced reps alternate, so host drift hits both
        // sides of bench.trace_overhead_frac alike.
        LayerAverages layers;
        std::vector<double> traced_s, plain_s, self_frac;
        unsigned run = 0;
        while (elapsed() < opt.seconds || traced_s.empty()) {
            bool traced = run % 2 == 1;
            log.setRecording(traced, ++run);
            Counts counts;
            Rep rep;
            double rep_s = log.timed("bench.rep", [&] {
                rep = workload->run(params, log,
                                    traced ? &counts : nullptr);
            });
            verdict.check(rep);
            if (!traced) {
                plain_s.push_back(rep_s);
                continue;
            }
            traced_s.push_back(rep_s);
            std::map<std::string, double> self = log.selfSeconds(run);
            self_frac.push_back(ratio(self["bench.rep"], rep_s));
            layers.addRun(counts, self);
        }
        if (workload->replay) {
            log.setRecording(true, ++run);
            Counts counts;
            log.timed("bench.replay",
                      [&] { workload->replay(params, log, counts); });
            layers.addRun(counts, log.selfSeconds(run));
        }
        log.setRecording(false);

        values = layers.means();
        Metrics probes;
        runProbes(workload->point.cores, workload->point.sockets,
                  params.seed, probes);
        probeObservers(workload->point, params, probes);
        // A workload with observers on reports its own trace.* work.
        values.insert(probes.begin(), probes.end());
        values["bench.self_frac"] = median(self_frac);
        values["bench.trace_overhead_frac"] =
            ratio(median(traced_s), median(plain_s)) - 1.0;
        HostSpeed speed;
        std::vector<double> kernel_s;
        for (unsigned i = 0; i < 4 * kSpeedSamplesPerRep; ++i)
            kernel_s.push_back(speed.sample());
        values["bench.host_kernel_s"] = median(kernel_s);
        deriveLayerMetrics(values);
        printLayerTable(values);
    }

    if (!opt.spansOut.empty()) {
        std::ofstream out(opt.spansOut);
        if (!out)
            usage(("cannot write " + opt.spansOut).c_str());
        log.writeJson(out);
    }
    for (const std::string &failure : verdict.failures)
        std::fprintf(stderr, "FAILED %s\n", failure.c_str());
    printResult(verdict,
                opt.trace ? perLayerMetrics() : endToEndMetrics(),
                values);
    return verdict.failed == 0 ? 0 : 1;
}
