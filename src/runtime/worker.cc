#include "runtime/worker.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "prof/pmu.hh"
#include "prof/profiler.hh"
#include "sim/logging.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace jord::runtime {

using sim::Addr;
using sim::Cycles;
using sim::Tick;

namespace {
/** Synthetic cache lines for executor request queues. */
constexpr Addr kQueueLineBase = 0x5000'0000'0000ull;
/** Fixed bookkeeping cycles for queue push/pop and notifications. */
constexpr Cycles kQueueOpCycles = 6;
/** Orchestrator bookkeeping per completed request. */
constexpr Cycles kCompletionCycles = 20;

/** Span attribution for a request. */
trace::SpanArgs
spanArgs(const Request &req)
{
    trace::SpanArgs args;
    args.req = req.id;
    args.fn = static_cast<std::int32_t>(req.fn);
    args.measured = req.measured;
    return args;
}
} // namespace

WorkerServer::WorkerServer(WorkerConfig cfg, FunctionRegistry registry)
    : cfg_(std::move(cfg)), registry_(std::move(registry)),
      rng_(cfg_.seed)
{
    const sim::MachineConfig &m = cfg_.machine;
    mesh_ = std::make_unique<noc::Mesh>(m);
    coherence_ = std::make_unique<mem::CoherenceEngine>(m, *mesh_);

    uat::VaEncoding encoding;
    if (cfg_.system == SystemKind::JordBT)
        table_ = std::make_unique<uat::BTreeVmaTable>(encoding);
    else
        table_ = std::make_unique<uat::PlainListVmaTable>(encoding);

    uat_ = std::make_unique<uat::UatSystem>(m, *coherence_, *table_);
    if (cfg_.check.any()) {
        checker_ = std::make_unique<check::Checker>(cfg_.check,
                                                    encoding);
        checker_->setClock([this] { return events_.curTick(); });
        uat_->setChecker(checker_.get());
    }
    kernel_ = std::make_unique<os::Kernel>(m);
    privlib_ = std::make_unique<privlib::PrivLib>(m, *coherence_, *uat_,
                                                  *table_, *kernel_,
                                                  checker_.get());
    if (cfg_.system == SystemKind::JordNI)
        privlib_->setIsolationBypass(true);

    // --- Core partitioning -------------------------------------------
    unsigned num_orch = std::max(1u, cfg_.numOrchestrators);
    if (num_orch >= m.numCores)
        sim::fatal("no cores left for executors");

    std::vector<bool> is_orch(m.numCores, false);
    orchs_.resize(num_orch);
    for (unsigned o = 0; o < num_orch; ++o) {
        // Spread orchestrators across sockets, then across cores within
        // the socket (the §6.3 per-socket deployment).
        unsigned socket = cfg_.perSocketOrchestrators
                              ? o % m.numSockets
                              : 0;
        unsigned within = cfg_.perSocketOrchestrators
                              ? o / m.numSockets
                              : o;
        unsigned core = socket * m.coresPerSocket() + within;
        orchs_[o].core = core;
        orchs_[o].completionLine =
            kQueueLineBase + 0x10000 + o * sim::kCacheBlockBytes;
        is_orch[core] = true;
    }

    for (unsigned core = 0; core < m.numCores; ++core) {
        if (is_orch[core])
            continue;
        ExecState exec;
        exec.core = core;
        exec.queueLine = kQueueLineBase +
                         execs_.size() * sim::kCacheBlockBytes;
        // Home orchestrator (receives this executor's internal requests
        // and completions): round-robin within the socket when
        // per-socket orchestrators are enabled.
        unsigned chosen = 0;
        if (cfg_.perSocketOrchestrators && m.numSockets > 1) {
            // Round-robin among the orchestrators of this core's socket.
            unsigned socket = m.socketOf(core);
            std::vector<unsigned> local;
            for (unsigned o = 0; o < num_orch; ++o)
                if (m.socketOf(orchs_[o].core) == socket)
                    local.push_back(o);
            if (local.empty())
                sim::fatal("socket %u has executors but no orchestrator",
                           socket);
            chosen = local[execs_.size() % local.size()];
        } else {
            chosen = static_cast<unsigned>(execs_.size()) % num_orch;
        }
        exec.orch = chosen;
        execs_.push_back(exec);
    }

    // Dispatch sets: every orchestrator balances over all executors of
    // its own socket (the paper's "group of executors in proximity",
    // §3.3/§6.3); JBSQ outstanding counters are shared state.
    jbsq_ = JbsqDispatch(static_cast<unsigned>(execs_.size()));
    for (unsigned o = 0; o < num_orch; ++o) {
        std::vector<unsigned> set;
        std::vector<Cycles> miss_cost;
        for (unsigned e = 0; e < execs_.size(); ++e) {
            if (!cfg_.perSocketOrchestrators ||
                m.socketOf(orchs_[o].core) ==
                    m.socketOf(execs_[e].core)) {
                set.push_back(e);
                miss_cost.push_back(mesh_->roundTrip(
                    orchs_[o].core, execs_[e].core, noc::MsgKind::Data));
            }
        }
        if (set.empty())
            sim::fatal("orchestrator %u manages no executors", o);
        jbsq_.addOrch(std::move(set), std::move(miss_cost));
    }

    // --- Deploy functions and runtime code ----------------------------
    unsigned boot_core = orchs_[0].core;
    registry_.deploy(*privlib_, boot_core);
    privlib::PrivResult rt = privlib_->mmapFor(
        boot_core, privlib::PrivLib::kRootPd, 64 << 10, uat::Perm::rx());
    if (!rt.ok)
        sim::fatal("failed to create runtime code VMA");
    runtimeCodeVma_ = rt.value;

    ntcConcurrency_.assign(registry_.size(), 0);
    ntcProvisioned_.assign(registry_.size(),
                           cfg_.provisioning.preProvisioned);

    // --- Failure handling ---------------------------------------------
    std::vector<std::string> fn_names;
    fn_names.reserve(registry_.size());
    for (const DeployedFunction &f : registry_.all())
        fn_names.push_back(f.spec.name);
    injector_.configure(cfg_.faultPlan, fn_names, cfg_.seed);
    if (cfg_.timeoutUs > 0)
        timeoutCycles_ = sim::usToCycles(cfg_.timeoutUs,
                                         cfg_.machine.freqGhz);
}

WorkerServer::~WorkerServer() = default;

// --- Observability ----------------------------------------------------------

void
WorkerServer::setTracer(trace::Tracer *tracer)
{
    tracer_ = tracer;
    uat_->setTracer(tracer);
    if (checker_)
        checker_->setTracer(tracer);
    if (!tracer)
        return;
    tracer->setClock([this] { return events_.curTick(); });
    tracer->setMeta("system", systemName(cfg_.system));
    tracer->setMeta("seed", std::to_string(cfg_.seed));
    for (const OrchState &o : orchs_)
        tracer->setTrackName(o.core, "core " + std::to_string(o.core) +
                                         " (orchestrator)");
    for (const ExecState &e : execs_)
        tracer->setTrackName(e.core, "core " + std::to_string(e.core) +
                                         " (executor)");
}

void
WorkerServer::attachMetrics(trace::MetricsRegistry &registry,
                            const std::string &prefix)
{
    metrics_.externalRequests =
        &registry.counter(prefix + "runtime.requests.external");
    metrics_.completedRequests =
        &registry.counter(prefix + "runtime.requests.completed");
    metrics_.invocations =
        &registry.counter(prefix + "runtime.invocations");
    metrics_.dispatches =
        &registry.counter(prefix + "runtime.dispatch.count");
    metrics_.dispatchScanNs =
        &registry.distribution(prefix + "runtime.dispatch.scan_ns");
    metrics_.serviceNs =
        &registry.distribution(prefix + "runtime.service_ns");
    metrics_.busyExecutors =
        &registry.gauge(prefix + "runtime.executors.busy");
    metrics_.liveInvocations =
        &registry.gauge(prefix + "runtime.invocations.live");
    metrics_.failedRequests =
        &registry.counter(prefix + "runtime.requests.failed");
    metrics_.timedOutRequests =
        &registry.counter(prefix + "runtime.requests.timed_out");
    metrics_.shedRequests =
        &registry.counter(prefix + "runtime.requests.shed");
    metrics_.retries = &registry.counter(prefix + "runtime.retries");
    metrics_.faultsInjected =
        &registry.counter(prefix + "runtime.faults.injected");
    metrics_.abortedInvocations =
        &registry.counter(prefix + "runtime.invocations.aborted");
    metrics_.retryDelayNs =
        &registry.distribution(prefix + "runtime.retry.delay_ns");
    privlib_->attachMetrics(registry, prefix);
    uat_->attachMetrics(registry, prefix);
    if (checker_)
        checker_->attachMetrics(registry, prefix);
}

void
WorkerServer::setPmu(prof::Pmu *pmu)
{
    pmu_ = pmu;
    coherence_->setPmu(pmu);
    uat_->setPmu(pmu);
    privlib_->setPmu(pmu);
}

void
WorkerServer::profSample(std::vector<prof::CoreSample> &cores,
                         prof::GlobalSample &global)
{
    global.livePds = privlib_->numLivePds();
    global.liveArgBufs = static_cast<std::size_t>(liveArgBufs_);
    global.liveInvocations = live_.size();

    for (const OrchState &o : orchs_) {
        prof::CoreSample cs;
        cs.core = o.core;
        cs.orchestrator = true;
        cs.busy = o.dispatching;
        cs.queueDepth = o.external.size() + o.internal.size() +
                        o.completions.size();
        cores.push_back(std::move(cs));
    }
    for (unsigned exec = 0; exec < execs_.size(); ++exec) {
        const ExecState &e = execs_[exec];
        prof::CoreSample cs;
        cs.core = e.core;
        cs.busy = e.busy;
        cs.queueDepth = e.queue.size() + e.resumable.size();
        cs.outstanding = jbsq_.outstanding(exec);
        cs.domainDepth = privlib_->domainDepth(e.core);
        cs.vlbIOccupancy = uat_->ivlb(e.core).occupancy();
        cs.vlbICapacity = uat_->ivlb(e.core).capacity();
        cs.vlbDOccupancy = uat_->dvlb(e.core).occupancy();
        cs.vlbDCapacity = uat_->dvlb(e.core).capacity();
        if (e.busy && e.running) {
            auto it = live_.find(e.running);
            if (it != live_.end()) {
                const Invocation *inv = it->second.get();
                cs.pd = inv->pd;
                cs.fn = registry_.at(inv->req.fn).spec.name;
                // Fold the nested-ccall chain root-first by walking
                // parent links up to the external entry function.
                const Invocation *cur = inv;
                while (true) {
                    cs.stack.push_back(
                        registry_.at(cur->req.fn).spec.name);
                    if (!cur->req.internal)
                        break;
                    auto pit = live_.find(cur->req.parent);
                    if (pit == live_.end())
                        break;
                    cur = pit->second.get();
                }
                std::reverse(cs.stack.begin(), cs.stack.end());
            }
        }
        cores.push_back(std::move(cs));
    }
}

void
WorkerServer::traceSpan(const char *name, trace::Category category,
                        unsigned core, Tick start, Cycles dur,
                        const Invocation &inv)
{
    tracer_->complete(name, category, core, start, dur, inv.span,
                      spanArgs(inv.req));
}

void
WorkerServer::noteExecBusy(bool busy)
{
    if (metrics_.busyExecutors)
        metrics_.busyExecutors->add(busy ? 1.0 : -1.0,
                                    events_.curTick());
}

void
WorkerServer::noteLiveInvocations()
{
    if (metrics_.liveInvocations)
        metrics_.liveInvocations->set(
            static_cast<double>(live_.size()), events_.curTick());
}

// --- Load generation -------------------------------------------------------

FunctionId
WorkerServer::sampleEntry()
{
    double pick = rng_.uniform() * mixTotal_;
    double acc = 0;
    for (const auto &[fn, weight] : mix_) {
        acc += weight;
        if (pick < acc)
            return fn;
    }
    return mix_.back().first;
}

void
WorkerServer::scheduleNextArrival()
{
    if (externalLeft_ == 0)
        return;
    --externalLeft_;
    events_.scheduleAfter(arrivals_.nextGapCycles(rng_),
                          [this] { onExternalArrival(); });
}

void
WorkerServer::onExternalArrival()
{
    const FunctionSpec &spec = registry_.at(sampleEntry()).spec;
    Request req;
    req.id = nextRequestId_++;
    req.fn = spec.id;
    req.argBytes = spec.argBytes;
    req.orch = rrOrch_;
    req.measured = generated_ >= warmupRequests_;
    ++generated_;
    rrOrch_ = (rrOrch_ + 1) % orchs_.size();
    if (metrics_.externalRequests)
        metrics_.externalRequests->add();
    if (tracer_) {
        // The request lifecycle span stays open until the orchestrator
        // processes the response; nested invoke spans parent into it.
        req.span = tracer_->begin(spec.name, trace::Category::Request,
                                  orchs_[req.orch].core,
                                  events_.curTick(), 0, spanArgs(req));
    }
    if (timeoutCycles_ > 0) {
        // Deadline timer: one orchestrator-side timer event per
        // external request, spanning all retry attempts.
        req.deadline = events_.curTick() + timeoutCycles_;
        RequestId id = req.id;
        unsigned orch = req.orch;
        deadlineEvents_[id] = events_.schedule(
            req.deadline, [this, orch, id] { onDeadline(orch, id); });
    }
    orchEnqueue(req.orch, std::move(req));
    scheduleNextArrival();
}

// --- Orchestrator -----------------------------------------------------------

void
WorkerServer::orchEnqueue(unsigned orch, Request req)
{
    OrchState &o = orchs_[orch];
    req.arrival = events_.curTick();
    if (req.firstArrival == 0)
        req.firstArrival = req.arrival;
    if (!req.internal) {
        if (req.deadline && req.arrival >= req.deadline) {
            // Expired during retry backoff or in transit: settle it
            // here rather than queueing doomed work.
            Cycles busy = 0;
            if (req.argBuf && cfg_.system != SystemKind::NightCore) {
                privlib::PrivResult un = privlib_->munmap(
                    o.core, req.argBuf, req.argBytes);
                if (!un.ok)
                    sim::panic("expired-request munmap failed: %s",
                               uat::faultName(un.fault));
                busy += un.latency;
                --liveArgBufs_;
                if (checker_)
                    checker_->argBufFreed(req.argBuf);
            }
            recordTerminalFailure(req, Outcome::TimedOut,
                                  events_.curTick() + busy);
            return;
        }
        if (cfg_.shedCap && o.external.size() >= cfg_.shedCap) {
            // Admission control (tentpole): shed from the external
            // queue only — internal requests always enqueue, keeping
            // the §3.3 deadlock-freedom argument intact.
            if (req.argBuf && cfg_.system != SystemKind::NightCore) {
                privlib::PrivResult un = privlib_->munmap(
                    o.core, req.argBuf, req.argBytes);
                if (!un.ok)
                    sim::panic("shed munmap failed: %s",
                               uat::faultName(un.fault));
                --liveArgBufs_;
                if (checker_)
                    checker_->argBufFreed(req.argBuf);
            }
            cancelDeadline(req.id);
            if (result_ && req.measured)
                ++result_->shedRequests;
            if (metrics_.shedRequests)
                metrics_.shedRequests->add();
            if (tracer_ && req.span) {
                tracer_->complete("outcome.shed",
                                  trace::Category::Runtime, o.core,
                                  events_.curTick(), 0, req.span,
                                  spanArgs(req));
                tracer_->end(req.span, events_.curTick());
            }
            return;
        }
    }
    if (req.internal)
        o.internal.push_back(std::move(req));
    else
        o.external.push_back(std::move(req));
    orchDispatchStep(orch);
}

void
WorkerServer::orchDispatchStep(unsigned orch)
{
    OrchState &o = orchs_[orch];
    if (o.dispatching)
        return;

    Cycles busy = 0;
    // Attribution window for this serialized orchestrator stretch: any
    // stall-bucket cycles the memory/UAT hooks charge for o.core while
    // it is open stay in their buckets; the remainder of `busy` closes
    // into Retire. The JBSQ-hold early return discards its busy in the
    // timing model but still closes the window with the scan work — a
    // deliberate, negligible over-attribution (the scan happened).
    prof::PmuWindow pmu_window(pmu_, o.core, busy);
    bool progressed = false;

    if (!o.completions.empty()) {
        // Finish a completed external request: read the response out of
        // the ArgBuf and release it.
        RequestId id = o.completions.front();
        o.completions.pop_front();
        auto it = live_.find(id);
        if (it != live_.end()) {
            Invocation &inv = *it->second;
            busy += kCompletionCycles;
            Outcome outcome = inv.outcome;
            if (outcome == Outcome::Ok && inv.req.deadline &&
                events_.curTick() > inv.req.deadline) {
                // Completed, but after the client gave up.
                outcome = Outcome::TimedOut;
            }
            if (outcome == Outcome::Ok) {
                if (cfg_.system == SystemKind::NightCore) {
                    busy += cfg_.pipeCosts.recvBusy(inv.req.argBytes);
                } else if (inv.req.argBuf) {
                    // The response leaves through the NIC by DMA; the
                    // orchestrator only releases the ArgBuf.
                    privlib::PrivResult res = privlib_->munmap(
                        o.core, inv.req.argBuf, inv.req.argBytes);
                    busy += res.latency;
                    --liveArgBufs_;
                    if (checker_)
                        checker_->argBufFreed(inv.req.argBuf);
                }
                if (inv.req.measured && result_) {
                    double us = sim::cyclesToUs(
                        events_.curTick() + busy - inv.req.firstArrival,
                        cfg_.machine.freqGhz);
                    result_->latencyUs.record(us);
                    ++result_->completedRequests;
                }
                if (tracer_ && inv.req.span)
                    tracer_->end(inv.req.span, events_.curTick() + busy);
                if (metrics_.completedRequests)
                    metrics_.completedRequests->add();
                cancelDeadline(id);
                live_.erase(it);
                noteLiveInvocations();
            } else {
                // Failed attempt: retry with backoff or settle.
                Request req = std::move(inv.req);
                live_.erase(it);
                noteLiveInvocations();
                busy += settleFailedAttempt(std::move(req), outcome,
                                            busy);
            }
        }
        progressed = true;
    } else {
        // Dispatch: internal requests strictly before external ones to
        // guarantee forward progress for nested invocations (§3.3).
        bool internal = !o.internal.empty();
        std::deque<Request> &queue = internal ? o.internal : o.external;
        if (!queue.empty()) {
            Request &req = queue.front();
            Tick base = events_.curTick();

            // External intake: materialise the request's ArgBuf.
            if (!internal && req.argBuf == 0 &&
                cfg_.system != SystemKind::NightCore) {
                Cycles intake_start = busy;
                privlib::PrivResult res = privlib_->mmap(
                    o.core, req.argBytes, uat::Perm::rw());
                if (!res.ok)
                    sim::panic("orchestrator ArgBuf mmap failed: %s",
                               uat::faultName(res.fault));
                req.argBuf = res.value;
                req.producerCore = o.core;
                ++liveArgBufs_;
                if (checker_)
                    checker_->argBufMapped(req.argBuf, req.argBytes,
                                           req.id);
                busy += res.latency;
                busy += touchArgBuf(o.core, req.argBuf, req.argBytes,
                                    true);
                if (tracer_)
                    tracer_->complete("argbuf.intake",
                                      trace::Category::Runtime, o.core,
                                      base + intake_start,
                                      busy - intake_start, req.span,
                                      spanArgs(req));
            }

            JbsqDispatch::Pick pick =
                jbsq_.scan(orch, cfg_.dispatchMlp);
            unsigned chosen = pick.exec;
            Cycles scan = pick.lat;
            busy += scan;
            if (pmu_) {
                pmu_->add(o.core, prof::PmuCounter::DispatchScans);
                pmu_->charge(o.core, prof::PmuBucket::DispatchWait,
                             scan);
            }

            if (!internal &&
                jbsq_.outstanding(chosen) >= cfg_.jbsqBound) {
                // JBSQ bound reached: hold external dispatch until an
                // executor frees up (completions will kick us).
                return;
            }

            Request out = std::move(queue.front());
            queue.pop_front();
            out.dispatchCycles = scan + kQueueOpCycles;

            if (cfg_.system == SystemKind::NightCore &&
                injector_.enabled() &&
                injector_.pipeDrop(out.id, out.attempt, out.fn)) {
                // The dispatch pipe write is lost; the orchestrator
                // detects it on the (modelled) pipe error path and
                // fails the attempt without ever reaching an executor.
                Cycles drop = cfg_.pipeCosts.sendBusy(out.argBytes) +
                              cfg_.pipeCosts.recvLatency();
                busy += drop;
                if (result_)
                    ++result_->faultsInjected;
                if (metrics_.faultsInjected)
                    metrics_.faultsInjected->add();
                if (tracer_)
                    tracer_->complete("pipe.drop",
                                      trace::Category::Pipe, o.core,
                                      base + busy - drop, drop,
                                      out.span, spanArgs(out));
                if (out.internal) {
                    // A lost nested call must still unblock the
                    // waiting parent: deliver a failed result instead
                    // of deadlocking its join.
                    RequestId parent = out.parent;
                    events_.scheduleAfter(busy, [this, parent] {
                        auto pit = live_.find(parent);
                        if (pit == live_.end())
                            sim::panic("pipe drop: parent vanished");
                        onChildComplete(*pit->second,
                                        ChildResult{0, 0, 0, true});
                    });
                } else {
                    busy += settleFailedAttempt(std::move(out),
                                                Outcome::Crashed, busy);
                }
                o.dispatching = true;
                events_.scheduleAfter(
                    std::max<Cycles>(busy, 1), [this, orch] {
                        orchs_[orch].dispatching = false;
                        orchDispatchStep(orch);
                    });
                return;
            }

            if (result_ && out.measured && !out.internal) {
                result_->dispatchNs.record(
                    sim::cyclesToNs(scan, cfg_.machine.freqGhz));
            }
            if (metrics_.dispatches)
                metrics_.dispatches->add();
            if (metrics_.dispatchScanNs)
                metrics_.dispatchScanNs->record(
                    static_cast<std::uint64_t>(sim::cyclesToNs(
                        scan, cfg_.machine.freqGhz)));
            if (tracer_) {
                // Mirrors the bd.dispatch charge the invocation will
                // take in its prologue (scan + queue push).
                trace::SpanId parent = out.span;
                if (out.internal) {
                    auto pit = live_.find(out.parent);
                    if (pit != live_.end())
                        parent = pit->second->span;
                }
                tracer_->complete("dispatch",
                                  trace::Category::Dispatch, o.core,
                                  base + busy - scan,
                                  scan + kQueueOpCycles, parent,
                                  spanArgs(out));
            }
            if (cfg_.system == SystemKind::NightCore) {
                busy += cfg_.pipeCosts.sendBusy(out.argBytes);
            }

            ExecState &e = execs_[chosen];
            jbsq_.add(chosen, +1);
            busy += coherence_->write(o.core, e.queueLine).latency;
            busy += kQueueOpCycles;

            Cycles visible =
                busy + mesh_->latency(o.core, e.core,
                                      noc::MsgKind::Control);
            events_.scheduleAfter(
                visible, [this, chosen, r = std::move(out)]() mutable {
                    execs_[chosen].queue.push_back(std::move(r));
                    execWake(chosen);
                });
            progressed = true;
        }
    }

    if (!progressed)
        return;
    o.dispatching = true;
    events_.scheduleAfter(std::max<Cycles>(busy, 1), [this, orch] {
        orchs_[orch].dispatching = false;
        orchDispatchStep(orch);
    });
}

// --- Executor ---------------------------------------------------------------

void
WorkerServer::execWake(unsigned exec)
{
    execStep(exec);
}

void
WorkerServer::execStep(unsigned exec)
{
    ExecState &e = execs_[exec];
    if (e.busy)
        return;

    if (!e.resumable.empty()) {
        RequestId id = e.resumable.front();
        e.resumable.pop_front();
        auto it = live_.find(id);
        if (it == live_.end())
            sim::panic("resumable invocation %llu vanished",
                       static_cast<unsigned long long>(id));
        e.busy = true;
        noteExecBusy(true);
        resumeInvocation(exec, *it->second);
        return;
    }
    if (!e.queue.empty()) {
        Request req = std::move(e.queue.front());
        e.queue.pop_front();
        jbsq_.markDirty(exec);
        e.busy = true;
        noteExecBusy(true);
        startInvocation(exec, std::move(req));
        return;
    }
}

Cycles
WorkerServer::drawExec(const FunctionSpec &spec)
{
    double cv = std::max(0.01, spec.execCv);
    double sigma2 = std::log(1.0 + cv * cv);
    double mu = std::log(std::max(1e-3, spec.execMeanUs)) - sigma2 / 2;
    double us = rng_.lognormal(mu, std::sqrt(sigma2));
    return sim::usToCycles(us, cfg_.machine.freqGhz);
}

Cycles
WorkerServer::touchArgBuf(unsigned core, Addr va, std::uint64_t bytes,
                          bool write)
{
    if (cfg_.system == SystemKind::NightCore || va == 0)
        return 0;
    Cycles lat = 0;
    Cycles mem_lat = 0;
    unsigned blocks = static_cast<unsigned>(
        std::min<std::uint64_t>((bytes + sim::kCacheBlockBytes - 1) /
                                    sim::kCacheBlockBytes,
                                cfg_.argBlockCap));
    uat::Perm need = write ? uat::Perm(uat::Perm::W) : uat::Perm::r();
    for (unsigned i = 0; i < blocks; ++i) {
        uat::UatAccess acc = uat_->dataAccess(
            core, va + i * sim::kCacheBlockBytes, need);
        if (!acc.ok())
            sim::panic("runtime ArgBuf access fault: %s (va=%llx)",
                       uat::faultName(acc.fault),
                       static_cast<unsigned long long>(va));
        lat += acc.latency + 1;
        mem::Access macc = write ? coherence_->write(core, acc.pa)
                                 : coherence_->read(core, acc.pa);
        mem_lat += macc.latency;
    }
    // Streaming accesses to independent lines overlap in the LSQ/store
    // buffer; memory-level parallelism hides most inter-block latency.
    unsigned mlp = std::min(blocks, 4u);
    if (mlp > 0)
        lat += mem_lat / mlp;
    return lat;
}

Cycles
WorkerServer::invocationPrologue(Invocation &inv, Tick at)
{
    const FunctionSpec &spec = registry_.at(inv.req.fn).spec;
    Addr code_vma = registry_.at(inv.req.fn).codeVma;
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = kQueueOpCycles; // dequeue bookkeeping

    switch (cfg_.system) {
      case SystemKind::Jord:
      case SystemKind::JordBT: {
        // Fig. 4: allocate PD, allocate stack/heap, copy code perm,
        // transfer ArgBuf perm, enter the PD.
        uat::UatAccess gate = uat_->fetch(core, privlib_->privCodeBase());
        busy += gate.latency;
        privlib::PrivResult pd = privlib_->cget(core);
        if (!pd.ok)
            sim::panic("cget failed: %s", uat::faultName(pd.fault));
        inv.pd = static_cast<uat::PdId>(pd.value);
        busy += pd.latency;

        privlib::PrivResult sh = privlib_->mmapFor(
            core, inv.pd, spec.stackHeapBytes, uat::Perm::rw());
        if (!sh.ok)
            sim::panic("stack/heap mmap failed: %s",
                       uat::faultName(sh.fault));
        inv.stackHeapVma = sh.value;
        busy += sh.latency;

        privlib::PrivResult code = privlib_->pcopy(core, code_vma,
                                                   inv.pd,
                                                   uat::Perm::rx());
        if (!code.ok)
            sim::panic("code pcopy failed: %s",
                       uat::faultName(code.fault));
        busy += code.latency;

        if (inv.req.argBuf) {
            // Transfer the ArgBuf permission from its producer's PD
            // into the fresh PD (Fig. 4's "Transfer ArgBuf Perm").
            privlib::PrivResult ab = privlib_->pmoveBetween(
                core, inv.req.argBuf, inv.req.argOwner, inv.pd,
                uat::Perm::rw());
            if (!ab.ok)
                sim::panic("ArgBuf pmove failed: %s",
                           uat::faultName(ab.fault));
            busy += ab.latency;
        }

        privlib::PrivResult cc = privlib_->ccall(core, inv.pd);
        if (!cc.ok)
            sim::panic("ccall failed: %s", uat::faultName(cc.fault));
        busy += cc.latency;
        inv.bd.isolation += busy - kQueueOpCycles;
        if (tracer_)
            traceSpan("pd_setup", trace::Category::Isolation, core,
                      at + kQueueOpCycles, busy - kQueueOpCycles, inv);

        // Enter the function: I-VLB fetch + read the input ArgBuf.
        Cycles comm_start = busy;
        uat::UatAccess fn_fetch = uat_->fetch(core, code_vma);
        if (!fn_fetch.ok())
            sim::panic("function fetch fault: %s",
                       uat::faultName(fn_fetch.fault));
        busy += fn_fetch.latency;
        Cycles comm = touchArgBuf(core, inv.req.argBuf, inv.req.argBytes,
                                  false);
        busy += comm;
        inv.bd.comm += comm + fn_fetch.latency;
        if (tracer_)
            traceSpan("argbuf.read", trace::Category::Comm, core,
                      at + comm_start, busy - comm_start, inv);
        break;
      }
      case SystemKind::JordNI: {
        // No PDs or permission transfers, but PrivLib still manages the
        // memory: the invocation gets its private stack/heap VMA and
        // the ArgBuf stays zero-copy shared memory (§5).
        privlib::PrivResult sh = privlib_->mmap(
            core, spec.stackHeapBytes, uat::Perm::rw());
        if (!sh.ok)
            sim::panic("NI stack/heap mmap failed");
        inv.stackHeapVma = sh.value;
        busy += sh.latency;
        inv.bd.isolation += sh.latency;
        if (tracer_)
            traceSpan("vma_setup", trace::Category::Isolation, core,
                      at + busy - sh.latency, sh.latency, inv);
        Cycles comm_start = busy;
        uat::UatAccess fn_fetch = uat_->fetch(core, code_vma);
        busy += fn_fetch.latency;
        Cycles comm = touchArgBuf(core, inv.req.argBuf, inv.req.argBytes,
                                  false);
        busy += comm;
        inv.bd.comm += comm + fn_fetch.latency;
        if (tracer_)
            traceSpan("argbuf.read", trace::Category::Comm, core,
                      at + comm_start, busy - comm_start, inv);
        break;
      }
      case SystemKind::NightCore: {
        FunctionId fn = inv.req.fn;
        ++ntcConcurrency_[fn];
        if (ntcConcurrency_[fn] > ntcProvisioned_[fn]) {
            // Scale out: prepare another worker for this function.
            ++ntcProvisioned_[fn];
            busy += cfg_.provisioning.provisionCycles;
            if (tracer_)
                traceSpan("provision", trace::Category::Runtime, core,
                          at + busy - cfg_.provisioning.provisionCycles,
                          cfg_.provisioning.provisionCycles, inv);
        }
        Cycles pipe = cfg_.pipeCosts.recvBusy(inv.req.argBytes) +
                      cfg_.pipeCosts.recvLatency();
        busy += pipe;
        inv.bd.pipe += pipe;
        if (tracer_)
            traceSpan("pipe.recv", trace::Category::Pipe, core,
                      at + busy - pipe, pipe, inv);
        break;
      }
    }

    inv.bd.dispatch += inv.req.dispatchCycles;
    return busy;
}

unsigned
WorkerServer::m_socketOfCore(unsigned core) const
{
    return cfg_.machine.socketOf(core);
}

unsigned
WorkerServer::pickOrch(unsigned socket)
{
    for (unsigned i = 0; i < orchs_.size(); ++i) {
        unsigned o = (rrOrch_ + i) % static_cast<unsigned>(orchs_.size());
        if (!cfg_.perSocketOrchestrators ||
            cfg_.machine.socketOf(orchs_[o].core) == socket) {
            rrOrch_ = (o + 1) % static_cast<unsigned>(orchs_.size());
            return o;
        }
    }
    return 0;
}

Cycles
WorkerServer::issueChild(Invocation &inv, const CallSpec &call,
                         Cycles offset, Tick at)
{
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;

    Request child;
    child.id = nextRequestId_++;
    child.fn = call.target;
    child.argBytes = call.argBytes;
    child.internal = true;
    child.parent = inv.req.id;
    child.producerCore = core;
    // Spread nested requests round-robin across the socket's
    // orchestrators so a wide fan-out (Media's ReadPage) does not
    // serialize on one dispatch loop.
    child.orch = pickOrch(m_socketOfCore(core));
    child.measured = inv.req.measured;
    // Children inherit the root request's deadline: once the client's
    // budget is gone, nested work is abandoned at the next boundary.
    child.deadline = inv.req.deadline;

    switch (cfg_.system) {
      case SystemKind::Jord:
      case SystemKind::JordBT: {
        // The function allocates the output ArgBuf in its own PD
        // (Listing 1), populates it, and the runtime hands its
        // permission to the root domain for dispatch.
        uat::UatAccess gate = uat_->fetch(core, privlib_->privCodeBase());
        busy += gate.latency;
        privlib::PrivResult ab = privlib_->mmap(core, call.argBytes,
                                                uat::Perm::rw());
        if (!ab.ok)
            sim::panic("child ArgBuf mmap failed: %s",
                       uat::faultName(ab.fault));
        child.argBuf = ab.value;
        ++liveArgBufs_;
        if (checker_)
            checker_->argBufMapped(child.argBuf, call.argBytes,
                                   child.id);
        busy += ab.latency;
        inv.bd.isolation += ab.latency + gate.latency;
        if (tracer_)
            traceSpan("child_argbuf", trace::Category::Isolation, core,
                      at, ab.latency + gate.latency, inv);

        Cycles comm = touchArgBuf(core, child.argBuf, call.argBytes,
                                  true);
        busy += comm;
        inv.bd.comm += comm;
        if (tracer_)
            traceSpan("argbuf.write", trace::Category::Comm, core,
                      at + busy - comm, comm, inv);
        // The permission stays with this PD; the child's executor
        // transfers it directly into the child's PD at dispatch.
        child.argOwner = inv.pd;

        uat::UatAccess back = uat_->fetch(
            core, registry_.at(inv.req.fn).codeVma);
        busy += back.latency;
        break;
      }
      case SystemKind::JordNI: {
        privlib::PrivResult ab = privlib_->mmap(core, call.argBytes,
                                                uat::Perm::rw());
        if (!ab.ok)
            sim::panic("child ArgBuf mmap failed (NI)");
        child.argBuf = ab.value;
        ++liveArgBufs_;
        if (checker_)
            checker_->argBufMapped(child.argBuf, call.argBytes,
                                   child.id);
        busy += ab.latency;
        inv.bd.isolation += ab.latency;
        if (tracer_)
            traceSpan("child_argbuf", trace::Category::Isolation, core,
                      at, ab.latency, inv);
        Cycles comm = touchArgBuf(core, child.argBuf, call.argBytes,
                                  true);
        busy += comm;
        inv.bd.comm += comm;
        if (tracer_)
            traceSpan("argbuf.write", trace::Category::Comm, core,
                      at + busy - comm, comm, inv);
        break;
      }
      case SystemKind::NightCore: {
        Cycles pipe = cfg_.pipeCosts.sendBusy(call.argBytes);
        busy += pipe;
        inv.bd.pipe += pipe;
        if (tracer_)
            traceSpan("pipe.send", trace::Category::Pipe, core, at,
                      pipe, inv);
        break;
      }
    }

    ++inv.pendingChildren;
    unsigned orch = child.orch;
    Cycles when = offset + busy +
                  mesh_->latency(core, orchs_[orch].core,
                                 noc::MsgKind::Control);
    events_.scheduleAfter(when,
                          [this, orch, c = std::move(child)]() mutable {
                              orchEnqueue(orch, std::move(c));
                          });
    return busy;
}

Cycles
WorkerServer::consumeChildResults(Invocation &inv, Tick at,
                                  bool &child_failed)
{
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;
    Cycles iso_total = 0;
    Cycles comm_total = 0;
    Cycles pipe_total = 0;
    // The children's epilogues already returned each ArgBuf permission
    // to this PD; re-enter the domain, then read + free every response.
    if (isolated() && !inv.childResults.empty()) {
        privlib::PrivResult ce = privlib_->center(core, inv.pd);
        if (!ce.ok)
            sim::panic("center failed: %s", uat::faultName(ce.fault));
        busy += ce.latency;
        inv.bd.isolation += ce.latency;
        iso_total += ce.latency;
    }
    for (ChildResult &result : inv.childResults) {
        if (result.failed)
            child_failed = true;
        switch (cfg_.system) {
          case SystemKind::Jord:
          case SystemKind::JordBT:
          case SystemKind::JordNI: {
            if (!result.failed) {
                // Failed children carried no valid response; skip the
                // read but still release the buffer below.
                Cycles comm = touchArgBuf(core, result.argBuf,
                                          result.argBytes, false);
                busy += comm;
                inv.bd.comm += comm;
                comm_total += comm;
            }
            if (result.argBuf) {
                privlib::PrivResult un = privlib_->munmap(
                    core, result.argBuf, result.argBytes);
                if (!un.ok)
                    sim::panic("result munmap failed: %s",
                               uat::faultName(un.fault));
                busy += un.latency;
                inv.bd.isolation += un.latency;
                iso_total += un.latency;
                --liveArgBufs_;
                if (checker_)
                    checker_->argBufFreed(result.argBuf);
            }
            break;
          }
          case SystemKind::NightCore: {
            if (result.failed)
                break; // nothing arrived on the pipe
            Cycles pipe = cfg_.pipeCosts.recvBusy(result.argBytes);
            busy += pipe;
            inv.bd.pipe += pipe;
            pipe_total += pipe;
            break;
          }
        }
    }
    if (tracer_ && !inv.childResults.empty()) {
        // One composite span per category (center + per-child munmap /
        // reads interleave; the totals are exact, the layout is not).
        if (iso_total)
            traceSpan("join.isolation", trace::Category::Isolation,
                      core, at, iso_total, inv);
        if (comm_total)
            traceSpan("join.read", trace::Category::Comm, core,
                      at + iso_total, comm_total, inv);
        if (pipe_total)
            traceSpan("join.pipe", trace::Category::Pipe, core, at,
                      pipe_total, inv);
    }
    inv.childResults.clear();
    return busy;
}

Cycles
WorkerServer::invocationEpilogue(Invocation &inv, Tick at)
{
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;

    switch (cfg_.system) {
      case SystemKind::Jord:
      case SystemKind::JordBT: {
        // Write the response, hand the ArgBuf back to root, revoke the
        // code permission, leave the PD and tear everything down.
        Cycles comm = touchArgBuf(core, inv.req.argBuf, inv.req.argBytes,
                                  true);
        busy += comm;
        inv.bd.comm += comm;
        if (tracer_)
            traceSpan("argbuf.respond", trace::Category::Comm, core,
                      at, comm, inv);

        uat::UatAccess gate = uat_->fetch(core, privlib_->privCodeBase());
        busy += gate.latency;
        Cycles iso = gate.latency;

        privlib::PrivResult ex = privlib_->cexit(core);
        if (!ex.ok)
            sim::panic("cexit failed: %s", uat::faultName(ex.fault));
        busy += ex.latency;
        iso += ex.latency;

        if (inv.req.argBuf) {
            // Hand the ArgBuf (now holding the response) back to the
            // PD it came from.
            privlib::PrivResult mv = privlib_->pmoveBetween(
                core, inv.req.argBuf, inv.pd, inv.req.argOwner,
                uat::Perm::rw());
            if (!mv.ok)
                sim::panic("epilogue ArgBuf pmove failed: %s",
                           uat::faultName(mv.fault));
            busy += mv.latency;
            iso += mv.latency;
        }
        privlib::PrivResult code = privlib_->pmoveBetween(
            core, registry_.at(inv.req.fn).codeVma, inv.pd,
            privlib::PrivLib::kRootPd, uat::Perm::rx());
        if (!code.ok)
            sim::panic("code revoke failed: %s",
                       uat::faultName(code.fault));
        busy += code.latency;
        iso += code.latency;

        privlib::PrivResult un = privlib_->munmap(
            core, inv.stackHeapVma,
            registry_.at(inv.req.fn).spec.stackHeapBytes);
        if (!un.ok)
            sim::panic("stack/heap munmap failed: %s",
                       uat::faultName(un.fault));
        busy += un.latency;
        iso += un.latency;

        privlib::PrivResult put = privlib_->cput(core, inv.pd);
        if (!put.ok)
            sim::panic("cput failed: %s", uat::faultName(put.fault));
        busy += put.latency;
        iso += put.latency;
        inv.bd.isolation += iso;
        if (tracer_)
            traceSpan("pd_teardown", trace::Category::Isolation, core,
                      at + busy - iso, iso, inv);
        break;
      }
      case SystemKind::JordNI: {
        Cycles comm = touchArgBuf(core, inv.req.argBuf, inv.req.argBytes,
                                  true);
        busy += comm;
        inv.bd.comm += comm;
        if (tracer_)
            traceSpan("argbuf.respond", trace::Category::Comm, core,
                      at, comm, inv);
        privlib::PrivResult un = privlib_->munmap(
            core, inv.stackHeapVma,
            registry_.at(inv.req.fn).spec.stackHeapBytes);
        if (!un.ok)
            sim::panic("NI stack/heap munmap failed");
        busy += un.latency;
        inv.bd.isolation += un.latency;
        if (tracer_)
            traceSpan("vma_teardown", trace::Category::Isolation, core,
                      at + busy - un.latency, un.latency, inv);
        break;
      }
      case SystemKind::NightCore: {
        Cycles pipe = cfg_.pipeCosts.sendBusy(inv.req.argBytes);
        busy += pipe;
        inv.bd.pipe += pipe;
        if (tracer_)
            traceSpan("pipe.respond", trace::Category::Pipe, core, at,
                      pipe, inv);
        break;
      }
    }
    busy += kQueueOpCycles; // completion notification
    return busy;
}

Cycles
WorkerServer::runUntilBlocked(Invocation &inv, Tick at)
{
    const FunctionSpec &spec = registry_.at(inv.req.fn).spec;
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;
    unsigned num_calls = static_cast<unsigned>(spec.calls.size());

    while (inv.nextCall <= num_calls) {
        unsigned i = inv.nextCall;
        if (i == num_calls && inv.pendingChildren > 0) {
            // Final join: wait for every outstanding async child
            // (Listing 1's jord::wait) before the last segment.
            if (isolated()) {
                privlib::PrivResult ex = privlib_->cexit(core);
                if (!ex.ok)
                    sim::panic("join cexit failed: %s",
                               uat::faultName(ex.fault));
                busy += ex.latency;
                inv.bd.isolation += ex.latency;
                if (tracer_)
                    traceSpan("suspend.cexit",
                              trace::Category::Isolation, core,
                              at + busy - ex.latency, ex.latency, inv);
            }
            inv.state = InvState::Suspended;
            inv.resumeThreshold = 0;
            return busy;
        }

        if (inv.crashSeg == static_cast<int>(i) ||
            inv.violationSeg == static_cast<int>(i)) {
            // Injected fault: the function aborts partway through this
            // compute segment instead of finishing it.
            Cycles part = static_cast<Cycles>(
                static_cast<double>(inv.segments[i]) * inv.injectFrac);
            busy += part;
            inv.bd.exec += part;
            if (inv.violationSeg == static_cast<int>(i)) {
                // Drive a *real* out-of-bound ArgBuf access through the
                // UAT so the abort is triggered by the actual hardware
                // permission check, not by fiat.
                uat::UatAccess acc{};
                acc.fault = uat::Fault::None;
                if (inv.req.argBuf)
                    acc = uat_->dataAccess(
                        core, inv.req.argBuf + inv.req.argBytes,
                        uat::Perm(uat::Perm::W));
                if (acc.ok()) {
                    // The rounded-up VMA absorbed the overrun (or
                    // isolation is bypassed): escalate to a privileged
                    // address, which no function may ever touch.
                    acc = uat_->dataAccess(core,
                                           privlib_->privDataBase(),
                                           uat::Perm(uat::Perm::W));
                }
                busy += acc.latency;
                if (acc.ok()) {
                    // Isolation bypassed end to end (Jord_NI with no
                    // privileged VMAs hit): the wild write corrupts
                    // state and the process model treats it as a crash.
                    inv.outcome = Outcome::Crashed;
                } else {
                    inv.fault = acc.fault;
                    inv.outcome = Outcome::Faulted;
                }
            } else {
                inv.outcome = Outcome::Crashed;
            }
            if (result_)
                ++result_->faultsInjected;
            if (metrics_.faultsInjected)
                metrics_.faultsInjected->add();
            if (tracer_)
                traceSpan("fault.inject", trace::Category::Runtime,
                          core, at + busy - part, part, inv);
            if (inv.pendingChildren > 0) {
                // Outstanding children still hold permissions rooted
                // in this PD; wait for them, then reclaim at resume.
                if (isolated()) {
                    privlib::PrivResult ex = privlib_->cexit(core);
                    if (!ex.ok)
                        sim::panic("abort cexit failed: %s",
                                   uat::faultName(ex.fault));
                    busy += ex.latency;
                    inv.bd.isolation += ex.latency;
                }
                inv.abortPending = true;
                inv.state = InvState::Suspended;
                inv.resumeThreshold = 0;
                return busy;
            }
            busy += abortReclaim(inv, at + busy, true);
            inv.state = InvState::Done;
            return busy;
        }

        Cycles seg_start = busy;
        Cycles seg = inv.segments[i];
        busy += seg;
        inv.bd.exec += seg;

        // Touch the private stack/heap once per segment (D-VLB work).
        if (inv.stackHeapVma) {
            const FunctionSpec &fs = spec;
            uat::UatAccess s = uat_->dataAccess(core, inv.stackHeapVma,
                                                uat::Perm(uat::Perm::W));
            uat::UatAccess h = uat_->dataAccess(
                core, inv.stackHeapVma + fs.stackHeapBytes / 2,
                uat::Perm(uat::Perm::W));
            if (!s.ok() || !h.ok())
                sim::panic("stack/heap access fault");
            busy += s.latency + h.latency;
            inv.bd.exec += s.latency + h.latency;
        }
        if (tracer_)
            traceSpan("exec", trace::Category::Exec, core,
                      at + seg_start, busy - seg_start, inv);

        if (i < num_calls) {
            const CallSpec &call = spec.calls[i];
            busy += issueChild(inv, call, busy, at + busy);
            inv.nextCall = i + 1;
            if (call.sync) {
                // jord::call: suspend until this child completes.
                Cycles iso = 0;
                if (isolated()) {
                    privlib::PrivResult ex = privlib_->cexit(core);
                    if (!ex.ok)
                        sim::panic("suspend cexit failed");
                    iso = ex.latency;
                    busy += iso;
                    inv.bd.isolation += iso;
                    if (tracer_)
                        traceSpan("suspend.cexit",
                                  trace::Category::Isolation, core,
                                  at + busy - iso, iso, inv);
                }
                inv.state = InvState::Suspended;
                inv.resumeThreshold = inv.pendingChildren - 1;
                return busy;
            }
        } else {
            inv.nextCall = i + 1;
        }
    }

    busy += invocationEpilogue(inv, at + busy);
    inv.state = InvState::Done;
    return busy;
}

void
WorkerServer::startInvocation(unsigned exec, Request req)
{
    auto owned = std::make_unique<Invocation>();
    Invocation &inv = *owned;
    inv.req = std::move(req);
    inv.exec = exec;
    inv.serviceStart = events_.curTick();
    live_[inv.req.id] = std::move(owned);
    execs_[exec].running = inv.req.id;
    noteLiveInvocations();
    Cycles busy = 0;
    prof::PmuWindow pmu_window(pmu_, coreOfExec(exec), busy);
    if (tracer_) {
        // Parent the invoke span under the request span (external) or
        // the parent's invoke span (nested ccall), building the
        // per-request span tree across the nested call chain.
        trace::SpanId parent = inv.req.span;
        if (inv.req.internal) {
            auto pit = live_.find(inv.req.parent);
            if (pit != live_.end())
                parent = pit->second->span;
        }
        inv.span = tracer_->begin(registry_.at(inv.req.fn).spec.name,
                                  trace::Category::Invoke,
                                  coreOfExec(exec), inv.serviceStart,
                                  parent, spanArgs(inv.req));
    }

    if (inv.req.deadline && events_.curTick() >= inv.req.deadline) {
        // Dead on arrival: the deadline expired while the request sat
        // in the executor queue. Don't waste a PD on it.
        inv.outcome = Outcome::TimedOut;
        inv.state = InvState::Done;
        busy = kQueueOpCycles;
        scheduleExecCompletion(exec, inv.req.id, busy);
        return;
    }

    const FunctionSpec &spec = registry_.at(inv.req.fn).spec;
    Cycles total = drawExec(spec);
    unsigned segs = static_cast<unsigned>(spec.calls.size()) + 1;
    if (spec.segmentWeights.empty()) {
        inv.segments.assign(segs, total / segs);
        inv.segments[0] += total % segs;
    } else {
        if (spec.segmentWeights.size() != segs)
            sim::panic("%s: %zu segment weights for %u segments",
                       spec.name.c_str(), spec.segmentWeights.size(),
                       segs);
        double weight_total = 0;
        for (double weight : spec.segmentWeights)
            weight_total += weight;
        inv.segments.assign(segs, 0);
        Cycles used = 0;
        for (unsigned i = 0; i + 1 < segs; ++i) {
            inv.segments[i] = weight_total > 0
                                  ? static_cast<Cycles>(
                                        static_cast<double>(total) *
                                        spec.segmentWeights[i] /
                                        weight_total)
                                  : 0;
            used += inv.segments[i];
        }
        inv.segments[segs - 1] = total - used;
    }

    if (injector_.enabled()) {
        fault::Decision d = injector_.decide(inv.req.id,
                                             inv.req.attempt,
                                             inv.req.fn, segs);
        if (d.spikeMult > 1.0) {
            for (Cycles &seg : inv.segments)
                seg = static_cast<Cycles>(static_cast<double>(seg) *
                                          d.spikeMult);
        }
        inv.crashSeg = d.crashSegment;
        inv.violationSeg = d.violationSegment;
        inv.injectFrac = d.fraction;
        if (cfg_.system == SystemKind::NightCore &&
            inv.violationSeg >= 0) {
            // No UAT to raise the fault: a wild store in a NightCore
            // worker thread simply crashes it.
            inv.crashSeg = inv.violationSeg;
            inv.violationSeg = -1;
        }
    }

    Tick base = events_.curTick();
    if (checker_)
        checker_->setCoreContext(coreOfExec(exec), inv.req.id,
                                 inv.span);
    busy = invocationPrologue(inv, base);
    inv.prologueDone = true;
    busy += runUntilBlocked(inv, base + busy);
    if (checker_)
        checker_->clearCoreContext(coreOfExec(exec));
    scheduleExecCompletion(exec, inv.req.id, busy);
}

void
WorkerServer::resumeInvocation(unsigned exec, Invocation &inv)
{
    ExecState &e = execs_[exec];
    jbsq_.add(exec, +1);
    e.running = inv.req.id;
    inv.state = InvState::Running;
    Cycles busy = 0;
    prof::PmuWindow pmu_window(pmu_, coreOfExec(exec), busy);

    Tick base = events_.curTick();
    if (checker_)
        checker_->setCoreContext(coreOfExec(exec), inv.req.id,
                                 inv.span);
    bool child_failed = false;
    busy = consumeChildResults(inv, base, child_failed);

    bool abort = inv.abortPending || inv.timedOut || child_failed ||
                 (inv.req.deadline && base >= inv.req.deadline);
    if (abort) {
        if (inv.outcome == Outcome::Ok)
            inv.outcome = child_failed ? Outcome::ChildFailed
                                       : Outcome::TimedOut;
        if (inv.pendingChildren > 0) {
            // Still-outstanding children hold permissions rooted in
            // this PD; suspend again and reclaim once they drain.
            if (isolated()) {
                unsigned core = coreOfExec(exec);
                privlib::PrivResult ex = privlib_->cexit(core);
                if (!ex.ok)
                    sim::panic("abort cexit failed: %s",
                               uat::faultName(ex.fault));
                busy += ex.latency;
                inv.bd.isolation += ex.latency;
            }
            inv.abortPending = true;
            inv.state = InvState::Suspended;
            inv.resumeThreshold = 0;
        } else {
            busy += abortReclaim(inv, base + busy, true);
            inv.state = InvState::Done;
        }
        if (checker_)
            checker_->clearCoreContext(coreOfExec(exec));
        scheduleExecCompletion(exec, inv.req.id, busy);
        return;
    }

    busy += runUntilBlocked(inv, base + busy);
    if (checker_)
        checker_->clearCoreContext(coreOfExec(exec));
    scheduleExecCompletion(exec, inv.req.id, busy);
}

void
WorkerServer::scheduleExecCompletion(unsigned exec, RequestId id,
                                     Cycles busy)
{
    events_.scheduleAfter(
        std::max<Cycles>(busy, 1), [this, exec, id] {
            ExecState &e = execs_[exec];
            e.busy = false;
            e.running = 0;
            noteExecBusy(false);
            auto it = live_.find(id);
            if (it != live_.end() &&
                it->second->state == InvState::Done) {
                finishInvocation(*it->second);
            } else {
                // Suspended: free the JBSQ slot.
                jbsq_.add(exec, -1);
                orchDispatchStep(execs_[exec].orch);
            }
            execStep(exec);
        });
}

void
WorkerServer::accountInvocation(Invocation &inv)
{
    if (metrics_.serviceNs && inv.req.measured)
        metrics_.serviceNs->record(static_cast<std::uint64_t>(
            sim::cyclesToNs(events_.curTick() - inv.serviceStart,
                            cfg_.machine.freqGhz)));
    if (!result_ || !inv.req.measured)
        return;
    Cycles service = events_.curTick() - inv.serviceStart;
    double us = sim::cyclesToUs(service, cfg_.machine.freqGhz);
    result_->serviceUs.record(us);
    FunctionId fn = inv.req.fn;
    result_->perFunctionServiceUs[fn].record(us);

    Breakdown bd = inv.bd;
    Cycles accounted = bd.exec + bd.isolation + bd.dispatch + bd.comm +
                       bd.pipe;
    bd.queue = service > accounted ? service - accounted : 0;
    if (pmu_)
        pmu_->add(coreOfExec(inv.exec),
                  prof::PmuCounter::QueueWaitCycles, bd.queue);
    ++result_->perFunctionCount[fn];
    result_->totals += bd;
    ++result_->invocations;
}

void
WorkerServer::finishInvocation(Invocation &inv)
{
    // The internal path below erases inv; note its home orchestrator.
    unsigned home_orch = execs_[inv.exec].orch;
    jbsq_.add(inv.exec, -1);
    if (cfg_.system == SystemKind::NightCore && inv.prologueDone) {
        // The worker slot frees at actual completion time, not when the
        // epilogue's costs were computed. Aborted-before-start
        // invocations never took a slot.
        --ntcConcurrency_[inv.req.fn];
    }
    if (tracer_ && inv.span)
        tracer_->end(inv.span, events_.curTick());
    if (inv.outcome == Outcome::Ok) {
        if (metrics_.invocations)
            metrics_.invocations->add();
        accountInvocation(inv);
    }

    unsigned core = coreOfExec(inv.exec);
    if (inv.req.internal) {
        ChildResult result{inv.req.argBuf, inv.req.argBytes, core,
                           inv.outcome != Outcome::Ok};
        RequestId parent = inv.req.parent;
        // Completion notification to the parent's executor.
        auto pit = live_.find(parent);
        if (pit == live_.end())
            sim::panic("orphan child completion");
        unsigned parent_core = coreOfExec(pit->second->exec);
        Cycles notify = mesh_->latency(core, parent_core,
                                       noc::MsgKind::Control) +
                        kQueueOpCycles;
        live_.erase(inv.req.id);
        noteLiveInvocations();
        events_.scheduleAfter(notify, [this, parent, result] {
            auto it = live_.find(parent);
            if (it == live_.end())
                sim::panic("parent vanished before child completion");
            onChildComplete(*it->second, result);
        });
    } else {
        unsigned orch = inv.req.orch;
        OrchState &o = orchs_[orch];
        Cycles notify = coherence_->write(core, o.completionLine).latency +
                        mesh_->latency(core, o.core,
                                       noc::MsgKind::Control);
        RequestId id = inv.req.id;
        events_.scheduleAfter(notify, [this, orch, id] {
            orchs_[orch].completions.push_back(id);
            orchDispatchStep(orch);
        });
    }
    orchDispatchStep(home_orch);
}

void
WorkerServer::onChildComplete(Invocation &parent, ChildResult result)
{
    if (parent.pendingChildren == 0)
        sim::panic("child completion with no pending children");
    --parent.pendingChildren;
    parent.childResults.push_back(result);
    if (parent.state == InvState::Suspended &&
        parent.pendingChildren <= parent.resumeThreshold) {
        parent.state = InvState::Resumable;
        execs_[parent.exec].resumable.push_back(parent.req.id);
        execWake(parent.exec);
    }
}

// --- Failure handling -------------------------------------------------------

Cycles
WorkerServer::retryDelayCycles(unsigned attempt) const
{
    Cycles base = sim::usToCycles(cfg_.retryBackoffUs,
                                  cfg_.machine.freqGhz);
    unsigned shift = attempt > 0 ? attempt - 1 : 0;
    // Cap the exponent so a large budget cannot overflow the delay.
    shift = std::min(shift, 20u);
    return std::max<Cycles>(base, 1) << shift;
}

Cycles
WorkerServer::abortReclaim(Invocation &inv, Tick at, bool in_pd)
{
    if (!inv.prologueDone)
        return 0; // nothing was materialised for this invocation
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;

    switch (cfg_.system) {
      case SystemKind::Jord:
      case SystemKind::JordBT: {
        // Mirror the epilogue without the response write-back: the PD
        // must shed every permission before cput accepts it.
        if (!in_pd) {
            privlib::PrivResult ce = privlib_->center(core, inv.pd);
            if (!ce.ok)
                sim::panic("abort center failed: %s",
                           uat::faultName(ce.fault));
            busy += ce.latency;
        }
        for (ChildResult &r : inv.childResults) {
            if (!r.argBuf)
                continue;
            privlib::PrivResult un = privlib_->munmap(core, r.argBuf,
                                                      r.argBytes);
            if (!un.ok)
                sim::panic("abort result munmap failed: %s",
                           uat::faultName(un.fault));
            busy += un.latency;
            --liveArgBufs_;
            if (checker_)
                checker_->argBufFreed(r.argBuf);
        }
        inv.childResults.clear();

        uat::UatAccess gate = uat_->fetch(core,
                                          privlib_->privCodeBase());
        busy += gate.latency;
        privlib::PrivResult ex = privlib_->cexit(core);
        if (!ex.ok)
            sim::panic("abort cexit failed: %s",
                       uat::faultName(ex.fault));
        busy += ex.latency;

        if (inv.req.argBuf) {
            // The input ArgBuf goes back to its owner (root for
            // external requests — it is reused verbatim on retry).
            privlib::PrivResult mv = privlib_->pmoveBetween(
                core, inv.req.argBuf, inv.pd, inv.req.argOwner,
                uat::Perm::rw());
            if (!mv.ok)
                sim::panic("abort ArgBuf pmove failed: %s",
                           uat::faultName(mv.fault));
            busy += mv.latency;
        }
        privlib::PrivResult code = privlib_->pmoveBetween(
            core, registry_.at(inv.req.fn).codeVma, inv.pd,
            privlib::PrivLib::kRootPd, uat::Perm::rx());
        if (!code.ok)
            sim::panic("abort code revoke failed: %s",
                       uat::faultName(code.fault));
        busy += code.latency;

        privlib::PrivResult un = privlib_->munmap(
            core, inv.stackHeapVma,
            registry_.at(inv.req.fn).spec.stackHeapBytes);
        if (!un.ok)
            sim::panic("abort stack/heap munmap failed: %s",
                       uat::faultName(un.fault));
        busy += un.latency;

        privlib::PrivResult put = privlib_->cput(core, inv.pd);
        if (!put.ok)
            sim::panic("abort cput failed: %s",
                       uat::faultName(put.fault));
        busy += put.latency;
        break;
      }
      case SystemKind::JordNI: {
        for (ChildResult &r : inv.childResults) {
            if (!r.argBuf)
                continue;
            privlib::PrivResult un = privlib_->munmap(core, r.argBuf,
                                                      r.argBytes);
            if (!un.ok)
                sim::panic("abort result munmap failed (NI)");
            busy += un.latency;
            --liveArgBufs_;
            if (checker_)
                checker_->argBufFreed(r.argBuf);
        }
        inv.childResults.clear();
        privlib::PrivResult un = privlib_->munmap(
            core, inv.stackHeapVma,
            registry_.at(inv.req.fn).spec.stackHeapBytes);
        if (!un.ok)
            sim::panic("abort stack/heap munmap failed (NI)");
        busy += un.latency;
        break;
      }
      case SystemKind::NightCore:
        // Process/thread state dies with the worker slot; the slot
        // itself is released in finishInvocation.
        break;
    }

    inv.bd.isolation += busy;
    if (result_ && inv.req.measured)
        ++result_->abortedInvocations;
    if (metrics_.abortedInvocations)
        metrics_.abortedInvocations->add();
    if (tracer_)
        traceSpan("abort.reclaim", trace::Category::Isolation, core,
                  at, busy, inv);
    return busy;
}

void
WorkerServer::cancelDeadline(RequestId id)
{
    auto it = deadlineEvents_.find(id);
    if (it == deadlineEvents_.end())
        return;
    events_.cancel(it->second);
    deadlineEvents_.erase(it);
}

void
WorkerServer::onDeadline(unsigned orch, RequestId id)
{
    deadlineEvents_.erase(id);
    auto it = live_.find(id);
    if (it != live_.end()) {
        // In flight: mark it and let the next scheduling point
        // (segment boundary, resume, completion) abort and reclaim.
        if (it->second->state != InvState::Done)
            it->second->timedOut = true;
        return;
    }
    // Not yet dispatched: if it still sits in the orchestrator's
    // external queue, drop it there. Any other position (executor
    // queue, in transit, retry backoff) is caught lazily by the
    // deadline checks on those paths.
    OrchState &o = orchs_[orch];
    for (auto qit = o.external.begin(); qit != o.external.end();
         ++qit) {
        if (qit->id != id)
            continue;
        Request req = std::move(*qit);
        o.external.erase(qit);
        Cycles busy = 0;
        if (req.argBuf && cfg_.system != SystemKind::NightCore) {
            privlib::PrivResult un = privlib_->munmap(
                o.core, req.argBuf, req.argBytes);
            if (!un.ok)
                sim::panic("deadline munmap failed: %s",
                           uat::faultName(un.fault));
            busy += un.latency;
            --liveArgBufs_;
            if (checker_)
                checker_->argBufFreed(req.argBuf);
        }
        recordTerminalFailure(req, Outcome::TimedOut,
                              events_.curTick() + busy);
        return;
    }
}

Cycles
WorkerServer::settleFailedAttempt(Request req, Outcome outcome,
                                  Cycles busy)
{
    OrchState &o = orchs_[req.orch];
    bool expired = req.deadline && events_.curTick() >= req.deadline;
    if (outcome != Outcome::TimedOut && !expired &&
        req.attempt < cfg_.maxRetries) {
        ++req.attempt;
        Cycles delay = retryDelayCycles(req.attempt);
        double delay_us = sim::cyclesToUs(delay, cfg_.machine.freqGhz);
        if (result_ && req.measured) {
            ++result_->retries;
            result_->retryDelayUs.record(delay_us);
        }
        if (metrics_.retries)
            metrics_.retries->add();
        if (metrics_.retryDelayNs)
            metrics_.retryDelayNs->record(
                static_cast<std::uint64_t>(delay_us * 1000.0));
        if (tracer_ && req.span)
            tracer_->complete("retry", trace::Category::Runtime,
                              o.core, events_.curTick() + busy, delay,
                              req.span, spanArgs(req));
        req.dispatchCycles = 0;
        unsigned target = req.orch;
        events_.scheduleAfter(
            busy + delay, [this, target, r = std::move(req)]() mutable {
                orchEnqueue(target, std::move(r));
            });
        return 0;
    }

    Cycles extra = 0;
    if (req.argBuf && cfg_.system != SystemKind::NightCore) {
        privlib::PrivResult un = privlib_->munmap(o.core, req.argBuf,
                                                  req.argBytes);
        if (!un.ok)
            sim::panic("terminal-failure munmap failed: %s",
                       uat::faultName(un.fault));
        extra += un.latency;
        --liveArgBufs_;
        if (checker_)
            checker_->argBufFreed(req.argBuf);
    }
    if (expired) {
        // Whatever killed the last attempt, the client saw a timeout.
        outcome = Outcome::TimedOut;
    }
    recordTerminalFailure(req, outcome,
                          events_.curTick() + busy + extra);
    return extra;
}

void
WorkerServer::recordTerminalFailure(const Request &req, Outcome outcome,
                                    Tick done)
{
    cancelDeadline(req.id);
    if (result_ && req.measured) {
        double us = sim::cyclesToUs(done - req.firstArrival,
                                    cfg_.machine.freqGhz);
        if (outcome == Outcome::TimedOut) {
            ++result_->timedOutRequests;
            result_->timedOutUs.record(us);
        } else {
            ++result_->failedRequests;
            result_->failedUs.record(us);
        }
    }
    if (outcome == Outcome::TimedOut) {
        if (metrics_.timedOutRequests)
            metrics_.timedOutRequests->add();
    } else if (metrics_.failedRequests) {
        metrics_.failedRequests->add();
    }
    if (tracer_ && req.span) {
        tracer_->complete(outcome == Outcome::TimedOut
                              ? "outcome.timeout"
                              : "outcome.failed",
                          trace::Category::Runtime,
                          orchs_[req.orch].core, done, 0, req.span,
                          spanArgs(req));
        tracer_->end(req.span, done);
    }
}

void
WorkerServer::verifyQuiescent()
{
    for (const OrchState &o : orchs_) {
        if (!o.external.empty() || !o.internal.empty() ||
            !o.completions.empty())
            sim::panic("run drained with queued work on orchestrator "
                       "core %u", o.core);
    }
    for (unsigned exec = 0; exec < execs_.size(); ++exec) {
        const ExecState &e = execs_[exec];
        if (!e.queue.empty() || !e.resumable.empty() || e.busy ||
            jbsq_.outstanding(exec) != 0)
            sim::panic("run drained with executor core %u not idle",
                       e.core);
    }
    if (!live_.empty())
        sim::panic("run drained with %zu live invocations",
                   live_.size());
    if (liveArgBufs_ != 0)
        sim::panic("ArgBuf leak: %llu VMAs still mapped",
                   static_cast<unsigned long long>(liveArgBufs_));
    if (!deadlineEvents_.empty())
        sim::panic("stale deadline timers after drain: %zu",
                   deadlineEvents_.size());
    // Only the root PD may remain (PrivLib counts it as live).
    if (isJordFamily() && privlib_->numLivePds() != 1)
        sim::panic("PD leak: %u protection domains still live "
                   "(expected only root)", privlib_->numLivePds());
    if (checker_)
        checker_->onRunEnd();
}

double
WorkerServer::measureDispatchScanNs()
{
    for (unsigned e = 0; e < execs_.size(); ++e)
        jbsq_.markDirty(e);
    return sim::cyclesToNs(jbsq_.scan(0, cfg_.dispatchMlp).lat,
                           cfg_.machine.freqGhz);
}

// --- Run loop ----------------------------------------------------------------

RunResult
WorkerServer::run(double mrps, std::uint64_t num_requests,
                  const EntryMix &mix, double warmup_frac)
{
    if (mix.empty())
        sim::fatal("empty entry mix");
    if (mrps <= 0)
        sim::fatal("offered load must be positive");

    RunResult result;
    result.offeredMrps = mrps;
    result.perFunctionServiceUs.resize(registry_.size());
    result.perFunctionCount.assign(registry_.size(), 0);

    mix_ = mix;
    mixTotal_ = 0;
    for (const auto &[fn, weight] : mix_)
        mixTotal_ += weight;

    events_.reset();
    live_.clear();
    liveArgBufs_ = 0;
    deadlineEvents_.clear();
    for (auto &o : orchs_) {
        o.external.clear();
        o.internal.clear();
        o.completions.clear();
        o.dispatching = false;
    }
    for (auto &e : execs_) {
        e.queue.clear();
        e.resumable.clear();
        e.busy = false;
        e.running = 0;
    }
    jbsq_.reset();

    arrivals_ =
        sim::PoissonArrivals::fromMrps(mrps, cfg_.machine.freqGhz);
    externalLeft_ = num_requests;
    generated_ = 0;
    warmupRequests_ = static_cast<std::uint64_t>(
        static_cast<double>(num_requests) * warmup_frac);
    result_ = &result;
    uat_->shootdownLatency().reset();
    if (pmu_)
        pmu_->reset();

    Tick start = events_.curTick();
    scheduleNextArrival();
    if (profiler_)
        profiler_->arm();
    events_.run();
    // Measure to the last *work* event: a trailing profiler sample
    // (a daemon event) must not stretch the run window.
    Tick end = events_.lastWorkTick();
    if (pmu_)
        pmu_->finalize(end - start);

    // Leak invariant: every abort path must have returned its PD and
    // ArgBufs; a drained run leaves no runtime state behind.
    verifyQuiescent();

    result_ = nullptr;
    double elapsed_us =
        sim::cyclesToUs(end - start, cfg_.machine.freqGhz);
    double measured_frac =
        num_requests
            ? static_cast<double>(num_requests - warmupRequests_) /
                  static_cast<double>(num_requests)
            : 0;
    if (elapsed_us > 0) {
        result.achievedMrps =
            static_cast<double>(result.completedRequests) /
            (elapsed_us * measured_frac + 1e-9);
        const Breakdown &bd = result.totals;
        double busy_us = sim::cyclesToUs(bd.exec + bd.isolation +
                                             bd.comm + bd.pipe,
                                         cfg_.machine.freqGhz);
        result.executorUtilization =
            busy_us / (elapsed_us * measured_frac *
                           static_cast<double>(execs_.size()) +
                       1e-9);
    }
    result.shootdownNs.merge(uat_->shootdownLatency());
    return result;
}

} // namespace jord::runtime
