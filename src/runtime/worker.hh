/**
 * @file
 * WorkerServer: a complete Jord (or baseline) worker server (Fig. 3).
 *
 * Assembles the machine model (mesh, coherence, UAT hardware, PrivLib,
 * kernel), partitions cores into orchestrators and executors, and runs
 * open-loop Poisson workloads through the Fig. 4 invocation flow. The
 * same class models all four evaluated systems (§5): Jord, Jord_NI
 * (isolation bypassed), Jord_BT (B-tree VMA table) and the enhanced
 * NightCore baseline (pipes instead of zero-copy ArgBufs).
 */

#ifndef JORD_RUNTIME_WORKER_HH
#define JORD_RUNTIME_WORKER_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baseline/nightcore.hh"
#include "check/check.hh"
#include "fault/fault.hh"
#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "os/kernel.hh"
#include "privlib/privlib.hh"
#include "prof/pmu.hh"
#include "prof/profiler.hh"
#include "runtime/jbsq.hh"
#include "runtime/registry.hh"
#include "runtime/request.hh"
#include "sim/arrivals.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/sampler.hh"
#include "uat/btree_table.hh"
#include "uat/uat_system.hh"

namespace jord::trace {
enum class Category : std::uint8_t;
class Counter;
class Distribution;
class Gauge;
class MetricsRegistry;
class Tracer;
} // namespace jord::trace

namespace jord::runtime {

/** Worker-server configuration. */
struct WorkerConfig {
    sim::MachineConfig machine = sim::MachineConfig::isca25Default();
    SystemKind system = SystemKind::Jord;
    /** Orchestrator threads; the rest of the cores run executors.
     * Nested invocations are dispatched by orchestrators too (§3.3),
     * so communication-heavy workloads need several of them. */
    unsigned numOrchestrators = 4;
    /**
     * With multiple sockets, pin one orchestrator group per socket and
     * dispatch only within it (the §6.3 mitigation). When false a
     * single orchestrator may manage executors across sockets (used to
     * measure the Fig. 14 dispatch curve).
     */
    bool perSocketOrchestrators = true;
    /** JBSQ bound: max outstanding external requests per executor. */
    unsigned jbsqBound = 3;
    /** Memory-level parallelism of the dispatch queue-length scan. */
    unsigned dispatchMlp = 8;
    /** Cap on ArgBuf cache blocks transferred per request (~15 avg). */
    unsigned argBlockCap = 32;
    std::uint64_t seed = 42;
    baseline::PipeCosts pipeCosts;
    baseline::ProvisioningModel provisioning;

    // --- Failure handling (all disabled by default: with a zero-rate
    // plan, no timeout and no shed cap, runs are byte-identical to a
    // build without this subsystem) ---
    /** Deterministic fault-injection plan (default: inject nothing). */
    fault::FaultPlan faultPlan;
    /** Per-request deadline in µs (0 = no deadline). */
    double timeoutUs = 0;
    /** Retry budget per external request (0 = fail immediately). */
    unsigned maxRetries = 0;
    /** Base retry delay, doubled per attempt (exponential backoff). */
    double retryBackoffUs = 20.0;
    /** Max queued external requests per orchestrator before shedding
     * (0 = never shed). Internal queues are never shed (§3.3). */
    std::size_t shedCap = 0;

    /**
     * JordSan checker families to enable (all disabled by default;
     * with no family enabled no checker is constructed and runs are
     * byte-identical to a build without the subsystem).
     */
    check::CheckConfig check;
};

/** Weighted entry-point mix for external requests. */
using EntryMix = std::vector<std::pair<FunctionId, double>>;

/** Results of one load run. */
struct RunResult {
    double offeredMrps = 0;
    double achievedMrps = 0;
    /** End-to-end request latency (µs), measured window only. */
    stats::Sampler latencyUs;
    /** Per-invocation service time (µs), dequeue -> completion. */
    stats::Sampler serviceUs;
    /** Per-function service-time samplers (µs), by FunctionId. */
    std::vector<stats::Sampler> perFunctionServiceUs;
    /** Completed invocations per function, by FunctionId. */
    std::vector<std::uint64_t> perFunctionCount;
    /** Aggregate breakdown over all invocations. */
    Breakdown totals;
    std::uint64_t invocations = 0;
    std::uint64_t completedRequests = 0;
    /** Requests that exhausted their retry budget on a crash/fault. */
    std::uint64_t failedRequests = 0;
    /** Requests whose deadline expired (terminal, after retries). */
    std::uint64_t timedOutRequests = 0;
    /** Requests shed at admission by the external-queue cap. */
    std::uint64_t shedRequests = 0;
    /** Retry attempts issued (counts re-dispatches, not requests). */
    std::uint64_t retries = 0;
    /** Invocations aborted (injected fault, timeout, or child failure);
     * not counted in `invocations`, which keeps its meaning of
     * successful invocation executions. */
    std::uint64_t abortedInvocations = 0;
    /** Faults the injector actually fired (crashes + violations). */
    std::uint64_t faultsInjected = 0;
    /** Time-to-failure (µs, arrival -> terminal failure). */
    stats::Sampler failedUs;
    /** Time-to-timeout (µs, arrival -> deadline verdict). */
    stats::Sampler timedOutUs;
    /** Backoff delays of issued retries (µs). */
    stats::Sampler retryDelayUs;
    /** Mean executor busy fraction over the measured window. */
    double executorUtilization = 0;
    /** Dispatch-decision latency samples (ns), Fig. 14. */
    stats::Sampler dispatchNs;
    /** VLB shootdown fan-out latency samples (ns), Fig. 14. */
    stats::Sampler shootdownNs;
};

/**
 * The worker server.
 */
class WorkerServer : public prof::SampleSource
{
  public:
    WorkerServer(WorkerConfig cfg, FunctionRegistry registry);
    ~WorkerServer() override;

    WorkerServer(const WorkerServer &) = delete;
    WorkerServer &operator=(const WorkerServer &) = delete;

    /**
     * Run an open-loop Poisson load.
     *
     * @param mrps Offered load in million requests per second.
     * @param num_requests External requests to generate.
     * @param mix Entry-function mix (weights need not sum to 1).
     * @param warmup_frac Fraction of requests excluded from metrics.
     */
    RunResult run(double mrps, std::uint64_t num_requests,
                  const EntryMix &mix, double warmup_frac = 0.2);

    // --- Component access (tests, benches) ---
    sim::EventQueue &eventQueue() { return events_; }
    mem::CoherenceEngine &coherence() { return *coherence_; }
    uat::UatSystem &uat() { return *uat_; }
    privlib::PrivLib &privlib() { return *privlib_; }
    os::Kernel &kernel() { return *kernel_; }
    FunctionRegistry &registry() { return registry_; }
    const WorkerConfig &config() const { return cfg_; }
    unsigned numExecutors() const
    {
        return static_cast<unsigned>(execs_.size());
    }

    /**
     * Worst-case dispatch-scan latency in ns: orchestrator 0 reads the
     * queue-length line of every executor it manages, all of which have
     * been written since its last scan (the loaded steady state of
     * Fig. 14's dispatch series).
     */
    double measureDispatchScanNs();

    /**
     * Attach (or detach, with nullptr) a span tracer. The tracer's
     * clock is bound to this worker's event queue; request/invocation
     * lifecycle spans and per-category busy spans are emitted while
     * attached. All instrumentation sites are null-checked, so a
     * detached worker pays one predictable branch per site.
     */
    void setTracer(trace::Tracer *tracer);
    trace::Tracer *tracer() const { return tracer_; }

    /** The fault injector resolved from cfg.faultPlan (tests). */
    const fault::FaultInjector &faultInjector() const { return injector_; }

    /**
     * Backoff delay before retry number @p attempt (attempt >= 1):
     * retryBackoffUs doubled per prior attempt, capped to avoid
     * overflow. Exposed so tests can assert the schedule.
     */
    sim::Cycles retryDelayCycles(unsigned attempt) const;

    /** ArgBuf VMAs currently mapped by the runtime (leak checker). */
    std::uint64_t liveArgBufs() const { return liveArgBufs_; }

    /** The JordSan checker (null unless cfg.check enables a family). */
    check::Checker *checker() const { return checker_.get(); }

    /**
     * Register this worker's counters/gauges/distributions (and those
     * of its PrivLib and UAT) into @p registry. The registry must
     * outlive the worker.
     *
     * @param prefix Prepended to every metric name. Multi-server runs
     * (jordsim --cluster N) pass "serverK." so two workers sharing a
     * registry get distinct metrics; with an empty prefix the
     * registry's find-or-create semantics would silently sum them.
     */
    void attachMetrics(trace::MetricsRegistry &registry,
                       const std::string &prefix = "");

    /**
     * Attach (or detach, with nullptr) the simulated PMU; propagated
     * to the coherence engine, UAT and PrivLib. All hook sites are
     * null-checked and charge zero simulated latency, so a detached
     * run is byte-identical.
     */
    void setPmu(prof::Pmu *pmu);
    prof::Pmu *pmu() const { return pmu_; }

    /** Attach a sampling profiler; run() arms it after resetting the
     * event queue so sampling covers the whole run. */
    void setProfiler(prof::Profiler *profiler) { profiler_ = profiler; }

    /** prof::SampleSource: snapshot per-core + global state. */
    void profSample(std::vector<prof::CoreSample> &cores,
                    prof::GlobalSample &global) override;

  private:
    struct ExecState {
        unsigned core = 0;
        unsigned orch = 0;
        std::deque<Request> queue;
        std::deque<RequestId> resumable;
        bool busy = false;
        sim::Addr queueLine = 0;
        /** Request the executor is currently working on (0 = none);
         * host-only bookkeeping for profiler stack samples. */
        RequestId running = 0;
    };

    struct OrchState {
        unsigned core = 0;
        std::deque<Request> external;
        std::deque<Request> internal;
        /** Completed external requests awaiting response processing. */
        std::deque<RequestId> completions;
        bool dispatching = false;
        sim::Addr completionLine = 0;
    };

    WorkerConfig cfg_;
    FunctionRegistry registry_;
    sim::EventQueue events_;
    sim::Rng rng_;
    std::unique_ptr<noc::Mesh> mesh_;
    std::unique_ptr<mem::CoherenceEngine> coherence_;
    std::unique_ptr<uat::VmaTableBase> table_;
    std::unique_ptr<uat::UatSystem> uat_;
    /** JordSan shadow-model checker (must outlive uat_/privlib_ use,
     * constructed before privlib_ so bootstrap VMAs are observed). */
    std::unique_ptr<check::Checker> checker_;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<privlib::PrivLib> privlib_;

    std::vector<OrchState> orchs_;
    std::vector<ExecState> execs_;
    /** Outstanding counters and per-orchestrator dispatch sets. */
    JbsqDispatch jbsq_;
    std::unordered_map<RequestId, std::unique_ptr<Invocation>> live_;

    // Failure handling.
    fault::FaultInjector injector_;
    sim::Cycles timeoutCycles_ = 0;
    /** Runtime-mapped ArgBuf VMAs not yet munmapped (leak invariant). */
    std::uint64_t liveArgBufs_ = 0;
    /** Pending deadline-timer events by external request id. */
    std::unordered_map<RequestId, std::uint64_t> deadlineEvents_;

    RequestId nextRequestId_ = 1;
    std::uint64_t externalLeft_ = 0;
    /** Open-loop Poisson gap generator (sim/arrivals.hh); rebuilt by
     * run() from the offered load. */
    sim::PoissonArrivals arrivals_{0};
    EntryMix mix_;
    double mixTotal_ = 0;
    unsigned rrOrch_ = 0;

    // Measurement window control.
    std::uint64_t warmupRequests_ = 0;
    std::uint64_t generated_ = 0;
    sim::Tick windowStart_ = 0;
    RunResult *result_ = nullptr;

    // NightCore provisioning state.
    std::vector<unsigned> ntcConcurrency_;
    std::vector<unsigned> ntcProvisioned_;

    /** Runtime (executor/orchestrator) code VMA for I-VLB behaviour. */
    sim::Addr runtimeCodeVma_ = 0;

    // Optional observability hooks (all null when not attached).
    trace::Tracer *tracer_ = nullptr;
    prof::Pmu *pmu_ = nullptr;
    prof::Profiler *profiler_ = nullptr;
    struct RuntimeMetrics {
        trace::Counter *externalRequests = nullptr;
        trace::Counter *completedRequests = nullptr;
        trace::Counter *invocations = nullptr;
        trace::Counter *dispatches = nullptr;
        trace::Distribution *dispatchScanNs = nullptr;
        trace::Distribution *serviceNs = nullptr;
        trace::Gauge *busyExecutors = nullptr;
        trace::Gauge *liveInvocations = nullptr;
        trace::Counter *failedRequests = nullptr;
        trace::Counter *timedOutRequests = nullptr;
        trace::Counter *shedRequests = nullptr;
        trace::Counter *retries = nullptr;
        trace::Counter *faultsInjected = nullptr;
        trace::Counter *abortedInvocations = nullptr;
        trace::Distribution *retryDelayNs = nullptr;
    };
    RuntimeMetrics metrics_;

    bool isJordFamily() const { return cfg_.system != SystemKind::NightCore; }
    bool isolated() const { return cfg_.system == SystemKind::Jord ||
                                   cfg_.system == SystemKind::JordBT; }

    // --- Load generation ---
    void scheduleNextArrival();
    void onExternalArrival();
    FunctionId sampleEntry();

    // --- Orchestrator ---
    void orchEnqueue(unsigned orch, Request req);
    void orchDispatchStep(unsigned orch);
    /** Next round-robin orchestrator on @p socket. */
    unsigned pickOrch(unsigned socket);
    unsigned m_socketOfCore(unsigned core) const;

    // --- Executor ---
    void execWake(unsigned exec);
    void execStep(unsigned exec);
    void startInvocation(unsigned exec, Request req);
    void resumeInvocation(unsigned exec, Invocation &inv);
    /**
     * Run the invocation from its current point until it suspends or
     * finishes; returns busy cycles consumed. Child submissions are
     * scheduled at their in-run offsets. @p at is the simulated time at
     * which this stretch of work begins (used only for span
     * timestamps; scheduling is unchanged).
     */
    sim::Cycles runUntilBlocked(Invocation &inv, sim::Tick at);
    sim::Cycles invocationPrologue(Invocation &inv, sim::Tick at);
    sim::Cycles invocationEpilogue(Invocation &inv, sim::Tick at);
    sim::Cycles issueChild(Invocation &inv, const CallSpec &call,
                           sim::Cycles offset, sim::Tick at);
    /** @p child_failed is set when any consumed result is a failure. */
    sim::Cycles consumeChildResults(Invocation &inv, sim::Tick at,
                                    bool &child_failed);
    void finishInvocation(Invocation &inv);
    void onChildComplete(Invocation &parent, ChildResult result);
    /** Shared completion callback of start/resumeInvocation. */
    void scheduleExecCompletion(unsigned exec, RequestId id,
                                sim::Cycles busy);

    // --- Failure handling ---
    /**
     * Tear down an aborted invocation's isolation state, mirroring the
     * epilogue without the response write-back: free unconsumed child
     * ArgBufs, return the input ArgBuf to its owner, revoke code, free
     * stack/heap, destroy the PD. @p in_pd says whether the executor is
     * still inside the invocation's PD (abort mid-segment) or back in
     * root (abort at resume). Returns busy cycles.
     */
    sim::Cycles abortReclaim(Invocation &inv, sim::Tick at, bool in_pd);
    /** Deadline timer for external request @p id fired. */
    void onDeadline(unsigned orch, RequestId id);
    void cancelDeadline(RequestId id);
    /**
     * An external request's attempt ended in failure: retry it (with
     * backoff) if budget remains, otherwise record the terminal outcome
     * and release its resources. The invocation must already be removed
     * from live_ by the caller if it was there. @p busy is the caller's
     * accumulated busy offset (retries are scheduled after it); the
     * return value is additional busy cycles spent here (ArgBuf release
     * on a terminal failure).
     */
    sim::Cycles settleFailedAttempt(Request req, Outcome outcome,
                                    sim::Cycles busy);
    /** Terminal failure accounting (measured window + metrics). */
    void recordTerminalFailure(const Request &req, Outcome outcome,
                               sim::Tick done);
    /** Post-run invariant: no live PDs, ArgBufs, queue entries. */
    void verifyQuiescent();

    // --- Shared helpers ---
    sim::Cycles touchArgBuf(unsigned core, sim::Addr va,
                            std::uint64_t bytes, bool write);
    sim::Cycles drawExec(const FunctionSpec &spec);
    void accountInvocation(Invocation &inv);
    unsigned coreOfExec(unsigned exec) const { return execs_[exec].core; }

    // --- Observability helpers (no-ops when hooks are detached) ---
    /** Emit a closed category span attributed to @p inv. */
    void traceSpan(const char *name, trace::Category category,
                   unsigned core, sim::Tick start, sim::Cycles dur,
                   const Invocation &inv);
    void noteExecBusy(bool busy);
    void noteLiveInvocations();
};

} // namespace jord::runtime

#endif // JORD_RUNTIME_WORKER_HH
