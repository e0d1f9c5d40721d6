#include "perfbench.hh"

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim_req_per_s", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.build_s", "s"},
        {"workloads.slo_s", "s"},
        {"workloads.points", "count"},
        {"runtime.construct_s", "s"},
        {"runtime.run_s", "s"},
        {"runtime.us_per_invocation", "us"},
        {"runtime.invocations", "count"},
        {"runtime.dispatch_scans", "count"},
        {"runtime.queue_wait_cycles", "cycles"},
        {"runtime.failed", "count"},
        {"runtime.timed_out", "count"},
        {"runtime.shed", "count"},
        {"runtime.servers", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.schedule_step_ns", "ns"},
        {"sim.events", "count"},
        {"sim.tombstones_end", "count"},
        {"sim.probe_est_s", "s"},
        {"mem.construct_s", "s"},
        {"mem.access_ns", "ns"},
        {"mem.reads", "count"},
        {"mem.writes", "count"},
        {"mem.l1_hits", "count"},
        {"mem.llc_hits", "count"},
        {"mem.dram_fills", "count"},
        {"mem.invalidations", "count"},
        {"mem.messages", "count"},
        {"mem.l1_hit_ratio", "ratio"},
        {"mem.probe_est_s", "s"},
        {"noc.construct_s", "s"},
        {"noc.latency_ns", "ns"},
        {"noc.msgs", "count"},
        {"noc.hops", "count"},
        {"noc.probe_est_s", "s"},
        {"uat.table_construct_s", "s"},
        {"uat.construct_s", "s"},
        {"uat.data_access_ns", "ns"},
        {"uat.vlb_hits", "count"},
        {"uat.vlb_misses", "count"},
        {"uat.vlb_hit_ratio", "ratio"},
        {"uat.vtw_walks", "count"},
        {"uat.vtd_shootdowns", "count"},
        {"uat.vtd_back_invals", "count"},
        {"uat.probe_est_s", "s"},
        {"os.construct_s", "s"},
        {"privlib.construct_s", "s"},
        {"privlib.mmap_ns", "ns"},
        {"privlib.munmap_ns", "ns"},
        {"privlib.cget_ns", "ns"},
        {"privlib.cput_ns", "ns"},
        {"privlib.ccall_ns", "ns"},
        {"privlib.mmap.calls", "count"},
        {"privlib.munmap.calls", "count"},
        {"privlib.cget.calls", "count"},
        {"privlib.cput.calls", "count"},
        {"privlib.ccall.calls", "count"},
        {"privlib.mmap.cycles", "cycles"},
        {"privlib.munmap.cycles", "cycles"},
        {"privlib.cget.cycles", "cycles"},
        {"privlib.cput.cycles", "cycles"},
        {"privlib.ccall.cycles", "cycles"},
        {"privlib.probe_est_s", "s"},
        {"cluster.calibrate_s", "s"},
        {"cluster.construct_s", "s"},
        {"cluster.run_s", "s"},
        {"cluster.ns_per_request", "ns"},
        {"cluster.requests", "count"},
        {"cluster.hedges", "count"},
        {"cluster.hedge_win_ratio", "ratio"},
        {"cluster.retries", "count"},
        {"cluster.crashes", "count"},
        {"cluster.shed", "count"},
        {"cluster.failed", "count"},
        {"trace.export_s", "s"},
        {"trace.overhead_frac", "ratio"},
        {"trace.spans", "count"},
        {"bench.trace_overhead_frac", "ratio"},
        {"bench.self_frac", "ratio"},
        {"bench.host_kernel_s", "s"},
    };
    return defs;
}

} // namespace perfbench
