/**
 * @file
 * Layer probes: constructor and hot-call timings of the simulator's
 * components, built standalone (like bench/common.hh's Stack) at a
 * workload's machine shape, with inputs drawn from the workload seed.
 * Inputs are generated before each timed loop so only the layer's
 * call is timed; every probe reports the median of several batches.
 */

#include <algorithm>
#include <memory>

#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "os/kernel.hh"
#include "perfbench.hh"
#include "privlib/privlib.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "uat/uat_system.hh"
#include "uat/vma_table.hh"

namespace perfbench {

namespace {

using namespace jord;

constexpr unsigned kBatches = 5;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over kBatches of @p f's host seconds, divided by @p per. */
template <typename F>
double
medianPer(double per, F &&f)
{
    std::vector<double> samples;
    for (unsigned b = 0; b < kBatches; ++b) {
        Clock::time_point t0 = Clock::now();
        f();
        samples.push_back(seconds(t0, Clock::now()) / per);
    }
    return median(samples);
}

/** The Jord stack of one worker, members in construction order. */
struct Stack {
    std::unique_ptr<noc::Mesh> mesh;
    std::unique_ptr<mem::CoherenceEngine> coherence;
    std::unique_ptr<uat::VmaTableBase> table;
    std::unique_ptr<uat::UatSystem> uat;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<privlib::PrivLib> privlib;
};

/** Build a stack, timing each constructor into @p times. */
Stack
buildStack(const sim::MachineConfig &machine,
           std::map<std::string, std::vector<double>> &times)
{
    Stack s;
    auto timed = [&times](const char *name, auto &&make) {
        Clock::time_point t0 = Clock::now();
        make();
        times[name].push_back(seconds(t0, Clock::now()));
    };
    timed("noc.construct_s",
          [&] { s.mesh = std::make_unique<noc::Mesh>(machine); });
    timed("mem.construct_s", [&] {
        s.coherence =
            std::make_unique<mem::CoherenceEngine>(machine, *s.mesh);
    });
    timed("uat.table_construct_s", [&] {
        s.table = std::make_unique<uat::PlainListVmaTable>(
            uat::VaEncoding{});
    });
    timed("uat.construct_s", [&] {
        s.uat = std::make_unique<uat::UatSystem>(machine, *s.coherence,
                                                 *s.table);
    });
    timed("os.construct_s",
          [&] { s.kernel = std::make_unique<os::Kernel>(machine); });
    timed("privlib.construct_s", [&] {
        s.privlib = std::make_unique<privlib::PrivLib>(
            machine, *s.coherence, *s.uat, *s.table, *s.kernel);
    });
    return s;
}

void
probeSim(unsigned cores, sim::Rng &rng, Metrics &out)
{
    // Keep a queue as deep as a loaded worker's (a few pending events
    // per core); each step retires one event and schedules one.
    constexpr unsigned kSteps = 1 << 17;
    std::vector<sim::Cycles> delays(kSteps);
    for (sim::Cycles &d : delays)
        d = 1 + rng.uniformInt(std::uint64_t{4000});
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    for (unsigned i = 0; i < 4 * cores; ++i)
        queue.schedule(delays[i], [&fired] { ++fired; });
    out["sim.schedule_step_ns"] = 1e9 * medianPer(kSteps, [&] {
        for (unsigned i = 0; i < kSteps; ++i) {
            queue.step();
            queue.scheduleAfter(delays[i], [&fired] { ++fired; });
        }
    });
    if (fired == 0)
        sim::fatal("sim probe dispatched no events");
}

void
probeNoc(const noc::Mesh &mesh, unsigned cores, sim::Rng &rng,
         Metrics &out)
{
    constexpr unsigned kCalls = 1 << 17;
    struct Msg {
        unsigned src, dst;
        noc::MsgKind kind;
    };
    std::vector<Msg> msgs(kCalls);
    for (Msg &m : msgs) {
        m.src = static_cast<unsigned>(rng.uniformInt(std::uint64_t{cores}));
        m.dst = static_cast<unsigned>(rng.uniformInt(std::uint64_t{cores}));
        m.kind = rng.uniform() < 0.5 ? noc::MsgKind::Control
                                     : noc::MsgKind::Data;
    }
    std::uint64_t sink = 0;
    out["noc.latency_ns"] = 1e9 * medianPer(kCalls, [&] {
        for (const Msg &m : msgs)
            sink += mesh.latency(m.src, m.dst, m.kind);
    });
    if (sink == 0)
        sim::fatal("noc probe measured zero latency");
}

void
probeMem(mem::CoherenceEngine &coherence, unsigned cores, sim::Rng &rng,
         Metrics &out)
{
    // A shared working set larger than an L1, a quarter writes: hits,
    // LLC fills, forwards and invalidations all occur.
    constexpr unsigned kCalls = 1 << 16;
    constexpr std::uint64_t kBlocks = 1 << 14;
    constexpr sim::Addr kBase = 0x4000'0000;
    struct Op {
        unsigned core;
        sim::Addr addr;
        bool write;
    };
    std::vector<Op> ops(kCalls);
    for (Op &op : ops) {
        op.core = static_cast<unsigned>(rng.uniformInt(std::uint64_t{cores}));
        op.addr = kBase + 64 * rng.uniformInt(kBlocks);
        op.write = rng.uniform() < 0.25;
    }
    std::uint64_t sink = 0;
    out["mem.access_ns"] = 1e9 * medianPer(kCalls, [&] {
        for (const Op &op : ops)
            sink += op.write ? coherence.write(op.core, op.addr).latency
                             : coherence.read(op.core, op.addr).latency;
    });
    if (sink == 0)
        sim::fatal("mem probe measured zero latency");
}

void
probeUat(Stack &s, unsigned cores, sim::Rng &rng, Metrics &out)
{
    // Root-PD data VMAs touched from every core: VLB hits, misses and
    // VTW walks through the coherent VMA table.
    constexpr unsigned kVmas = 64;
    constexpr std::uint64_t kVmaBytes = 16 << 10;
    constexpr unsigned kCalls = 1 << 16;
    std::vector<sim::Addr> vmas;
    for (unsigned i = 0; i < kVmas; ++i) {
        privlib::PrivResult r = s.privlib->mmap(0, kVmaBytes,
                                                uat::Perm::rw());
        if (!r.ok)
            sim::fatal("uat probe: mmap failed");
        vmas.push_back(r.value);
    }
    struct Op {
        unsigned core;
        sim::Addr va;
    };
    std::vector<Op> ops(kCalls);
    for (Op &op : ops) {
        op.core = static_cast<unsigned>(rng.uniformInt(std::uint64_t{cores}));
        op.va = vmas[rng.uniformInt(std::uint64_t{kVmas})] +
                64 * rng.uniformInt(kVmaBytes / 64);
    }
    std::uint64_t faults = 0;
    out["uat.data_access_ns"] = 1e9 * medianPer(kCalls, [&] {
        for (const Op &op : ops)
            faults += !s.uat->dataAccess(op.core, op.va, uat::Perm::r()).ok();
    });
    if (faults)
        sim::fatal("uat probe: %llu accesses faulted",
                   static_cast<unsigned long long>(faults));
    for (sim::Addr va : vmas)
        s.privlib->munmap(0, va, kVmaBytes);
}

void
probePrivlib(privlib::PrivLib &pl, unsigned cores, sim::Rng &rng,
             Metrics &out)
{
    constexpr unsigned kBatch = 256;
    std::vector<unsigned> core(kBatch);
    std::vector<sim::Addr> va(kBatch);
    std::vector<uat::PdId> pd(kBatch);
    std::map<std::string, std::vector<double>> ns;
    unsigned failed = 0;
    auto timed = [&](const char *name, auto &&op) {
        Clock::time_point t0 = Clock::now();
        for (unsigned i = 0; i < kBatch; ++i)
            failed += !op(i);
        ns[name].push_back(1e9 * seconds(t0, Clock::now()) / kBatch);
    };
    for (unsigned b = 0; b < kBatches; ++b) {
        for (unsigned &c : core)
            c = static_cast<unsigned>(rng.uniformInt(std::uint64_t{cores}));
        timed("privlib.mmap_ns", [&](unsigned i) {
            privlib::PrivResult r =
                pl.mmap(core[i], 4096, uat::Perm::rw());
            va[i] = r.value;
            return r.ok;
        });
        timed("privlib.munmap_ns", [&](unsigned i) {
            return pl.munmap(core[i], va[i], 4096).ok;
        });
        timed("privlib.cget_ns", [&](unsigned i) {
            privlib::PrivResult r = pl.cget(core[i]);
            pd[i] = static_cast<uat::PdId>(r.value);
            return r.ok;
        });
        // A ccall is timed with the cexit that returns from it.
        timed("privlib.ccall_ns", [&](unsigned i) {
            return pl.ccall(core[i], pd[i]).ok && pl.cexit(core[i]).ok;
        });
        timed("privlib.cput_ns", [&](unsigned i) {
            return pl.cput(core[i], pd[i]).ok;
        });
    }
    if (failed)
        sim::fatal("privlib probe: %u operations failed", failed);
    for (auto &[name, samples] : ns)
        out[name] = median(samples);
}

} // namespace

void
runProbes(unsigned cores, unsigned sockets, std::uint64_t seed,
          Metrics &out)
{
    sim::MachineConfig machine =
        cores == 32 && sockets == 1
            ? sim::MachineConfig::isca25Default()
            : sim::MachineConfig::scaled(cores, sockets);
    sim::Rng rng(seed);

    std::map<std::string, std::vector<double>> ctor;
    for (unsigned b = 0; b + 1 < kBatches; ++b)
        buildStack(machine, ctor);
    Stack stack = buildStack(machine, ctor);
    for (auto &[name, samples] : ctor)
        out[name] = median(samples);

    probeSim(cores, rng, out);
    probeNoc(*stack.mesh, cores, rng, out);
    probeMem(*stack.coherence, cores, rng, out);
    probeUat(stack, cores, rng, out);
    probePrivlib(*stack.privlib, cores, rng, out);
}

} // namespace perfbench
