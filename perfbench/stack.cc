#include "stack.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>

#include "client/fleet_generator.hh"
#include "client/load_generator.hh"
#include "client/storm_generator.hh"
#include "core/profile.hh"
#include "core/tenant_metrics.hh"
#include "sim/logging.hh"
#include "workload/machine.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

SetupSpans &
SetupSpans::operator+=(const SetupSpans &o)
{
    simNs += o.simNs;
    workloadNs += o.workloadNs;
    clientNs += o.clientNs;
    agentNs += o.agentNs;
    return *this;
}

namespace {

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Host time between the first and the last probe on a tracepoint. */
struct ProbeClock
{
    Clock::time_point start{};
    double ns = 0.0;
    std::uint64_t fires = 0;
};

constexpr std::array<kernel::TracepointId, kernel::kTracepointCount>
    kPoints = {kernel::TracepointId::SysEnter,
               kernel::TracepointId::SysExit,
               kernel::TracepointId::NetRxEnqueue,
               kernel::TracepointId::SockAccept,
               kernel::TracepointId::TcpRetransmit,
               kernel::TracepointId::SchedWakeup,
               kernel::TracepointId::SchedWakeupNew,
               kernel::TracepointId::SchedSwitch};

/**
 * One experiment's stack, built in the harness's construction order.
 * Members are declared in that order too, so teardown runs in reverse.
 */
struct Stack
{
    std::unique_ptr<sim::Simulation> sim;
    std::vector<std::unique_ptr<workload::Machine>> machines;
    std::unique_ptr<client::LoadGenerator> gen;
    std::vector<std::unique_ptr<client::FleetLoadGenerator>> fleetGens;
    std::vector<std::unique_ptr<client::StormGenerator>> storms;
    std::unique_ptr<core::ObservabilityAgent> agent;
    std::vector<std::unique_ptr<core::MultiTenantAgent>> agents;
    sim::Tick horizon = 0;
    SetupSpans spans;

    /** Probe brackets (traced runs only). */
    ProbeClock clock;
    struct Bracket
    {
        kernel::Kernel *kernel = nullptr;
        std::array<kernel::ProbeHandle, kernel::kTracepointCount> first{};
    };
    std::vector<Bracket> brackets;

    std::vector<ebpf::EbpfRuntime *> runtimes()
    {
        std::vector<ebpf::EbpfRuntime *> out;
        if (agent)
            out.push_back(&agent->runtime());
        for (auto &a : agents)
            out.push_back(&a->runtime());
        return out;
    }
};

/** Attach the leading bracket probe on every tracepoint of @p k. */
void
attachFirst(Stack &s, kernel::Kernel &k)
{
    Stack::Bracket b;
    b.kernel = &k;
    ProbeClock *pc = &s.clock;
    for (std::size_t i = 0; i < kPoints.size(); ++i) {
        b.first[i] = k.tracepoints().attach(
            kPoints[i], [pc](const kernel::RawSyscallEvent &) {
                ++pc->fires;
                pc->start = Clock::now();
                return sim::Tick{0};
            });
    }
    s.brackets.push_back(b);
}

/**
 * After the agents attached: close each bracket with a trailing probe
 * where agent probes sit, and drop the leading probe elsewhere.
 */
void
closeBrackets(Stack &s)
{
    ProbeClock *pc = &s.clock;
    for (Stack::Bracket &b : s.brackets) {
        kernel::TracepointRegistry &reg = b.kernel->tracepoints();
        for (std::size_t i = 0; i < kPoints.size(); ++i) {
            if (reg.probeCount(kPoints[i]) <= 1) {
                reg.detach(b.first[i]);
                continue;
            }
            reg.attach(kPoints[i], [pc](const kernel::RawSyscallEvent &) {
                pc->ns += nsSince(pc->start);
                return sim::Tick{0};
            });
        }
    }
}

/** runExperiment()'s construction; see core/experiment.cc. */
void
buildSingle(const core::ExperimentConfig &config, bool traced, Stack &s)
{
    if (config.fault.any() || config.supervised || !config.attachAgent)
        sim::fatal("perfbench: the mirror covers clean, agent-attached, "
                   "unsupervised single-machine runs only");

    auto t0 = Clock::now();
    s.sim = std::make_unique<sim::Simulation>(config.seed);
    s.spans.simNs += nsSince(t0);

    t0 = Clock::now();
    kernel::KernelConfig kc;
    kc.cpu = config.system.toCpuConfig();
    s.machines.push_back(std::make_unique<workload::Machine>(*s.sim, kc));
    workload::Machine &machine = *s.machines.back();
    workload::ServerApp &app = machine.addTenant(config.workload);
    s.spans.workloadNs += nsSince(t0);

    t0 = Clock::now();
    client::ClientConfig cc;
    cc.offeredRps = config.offeredRps;
    cc.maxRequests = config.requests;
    cc.warmup = config.warmup;
    cc.qosLatency = config.qosLatency > 0
                        ? config.qosLatency
                        : core::defaultQosLatency(config.workload,
                                                  config.netem);
    s.gen = std::make_unique<client::LoadGenerator>(
        *s.sim, app, config.netem, config.tcp, cc, nullptr);
    s.spans.clientNs += nsSince(t0);

    if (config.frontDoor.enabled) {
        t0 = Clock::now();
        machine.enableFrontDoor(config.frontDoor.door);
        const unsigned n = std::max(1u, config.frontDoor.listeners);
        std::vector<unsigned> ids;
        for (unsigned i = 0; i < n; ++i)
            ids.push_back(
                machine.addFrontDoorListener(0, config.frontDoor.listener));
        s.spans.workloadNs += nsSince(t0);
        if (config.frontDoor.stormEnabled) {
            t0 = Clock::now();
            for (unsigned id : ids) {
                client::StormConfig sc = config.frontDoor.storm;
                sc.connRps /= n;
                sc.listener = id;
                s.storms.push_back(std::make_unique<client::StormGenerator>(
                    *s.sim, *machine.frontDoor(), config.netem, config.tcp,
                    sc));
            }
            s.spans.clientNs += nsSince(t0);
        }
    }

    t0 = Clock::now();
    s.agent = std::make_unique<core::ObservabilityAgent>(
        machine.kernel(), app.frontPid(), core::profileFor(config.workload),
        config.agent);
    s.agent->runtime().setFaultInjector(nullptr);
    s.spans.agentNs += nsSince(t0);

    if (traced)
        attachFirst(s, machine.kernel());

    t0 = Clock::now();
    machine.start();
    s.spans.workloadNs += nsSince(t0);

    t0 = Clock::now();
    s.agent->start();
    s.spans.agentNs += nsSince(t0);

    if (traced)
        closeBrackets(s);

    t0 = Clock::now();
    s.gen->start();
    for (auto &storm : s.storms)
        storm->start();
    s.spans.clientNs += nsSince(t0);

    const double offered_seconds =
        static_cast<double>(config.requests) / config.offeredRps;
    const sim::Tick grace = std::max<sim::Tick>(
        sim::milliseconds(500), 4 * cc.qosLatency + 8 * config.netem.delay);
    s.horizon = config.warmup +
                static_cast<sim::Tick>(offered_seconds * 1.05 * 1e9) + grace;
}

/** runClusterExperiment()'s serial construction; see core/cluster.cc. */
void
buildCluster(const core::ClusterExperimentConfig &config, bool traced,
             Stack &s)
{
    if (core::isDegenerateCluster(config) || config.controller.enabled ||
        !config.attachAgents)
        sim::fatal("perfbench: the mirror covers non-degenerate, "
                   "agent-attached cluster runs without a controller");
    for (const core::ClusterTenantSpec &t : config.tenants)
        if (!t.loadProfile.empty())
            sim::fatal("perfbench: the mirror has no load profiles");

    auto t0 = Clock::now();
    s.sim = std::make_unique<sim::Simulation>(config.seed);
    s.spans.simNs += nsSince(t0);

    t0 = Clock::now();
    for (unsigned m = 0; m < config.machines; ++m) {
        kernel::KernelConfig kc;
        kc.cpu = config.system.toCpuConfig();
        kc.cpu.sched = config.sched;
        if (config.schedQuantum > 0)
            kc.cpu.quantum = config.schedQuantum;
        if (!config.machineSpeedFactors.empty())
            kc.cpu.speed *= config.machineSpeedFactors[m];
        s.machines.push_back(
            std::make_unique<workload::Machine>(*s.sim, kc));
    }
    for (auto &machine : s.machines) {
        for (const core::ClusterTenantSpec &t : config.tenants)
            machine->addTenant(t.workload);
        if (config.antagonist)
            machine->addAntagonist(config.antagonistConfig);
    }
    s.spans.workloadNs += nsSince(t0);

    t0 = Clock::now();
    sim::Tick max_qos = 0;
    double max_offered_seconds = 0.0;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        const core::ClusterTenantSpec &spec = config.tenants[t];
        std::vector<workload::ServerApp *> backends;
        for (auto &machine : s.machines)
            backends.push_back(&machine->tenant(t));
        client::ClientConfig cc;
        cc.offeredRps = spec.offeredRps;
        cc.maxRequests = spec.requests;
        cc.warmup = config.warmup;
        cc.qosLatency = config.qosLatency > 0
                            ? config.qosLatency
                            : core::defaultQosLatency(spec.workload,
                                                      config.netem);
        max_qos = std::max(max_qos, cc.qosLatency);
        max_offered_seconds =
            std::max(max_offered_seconds,
                     static_cast<double>(spec.requests) / spec.offeredRps);
        s.fleetGens.push_back(std::make_unique<client::FleetLoadGenerator>(
            *s.sim, std::move(backends), config.netem, config.tcp, cc,
            config.lbPolicy));
    }
    s.spans.clientNs += nsSince(t0);

    t0 = Clock::now();
    for (auto &machine : s.machines) {
        std::vector<core::TenantBinding> bindings;
        for (std::size_t t = 0; t < config.tenants.size(); ++t) {
            core::TenantBinding b;
            b.name = config.tenants[t].workload.name;
            b.tgid = machine->tenant(t).frontPid();
            b.profile = core::profileFor(config.tenants[t].workload);
            bindings.push_back(std::move(b));
        }
        s.agents.push_back(std::make_unique<core::MultiTenantAgent>(
            machine->kernel(), std::move(bindings), config.agent));
    }
    s.spans.agentNs += nsSince(t0);

    if (traced)
        for (auto &machine : s.machines)
            attachFirst(s, machine->kernel());

    t0 = Clock::now();
    for (auto &machine : s.machines)
        machine->start();
    s.spans.workloadNs += nsSince(t0);

    t0 = Clock::now();
    for (auto &agent : s.agents)
        agent->start();
    s.spans.agentNs += nsSince(t0);

    if (traced)
        closeBrackets(s);

    t0 = Clock::now();
    for (auto &gen : s.fleetGens)
        gen->start();
    s.spans.clientNs += nsSince(t0);

    const sim::Tick grace = std::max<sim::Tick>(
        sim::milliseconds(500), 4 * max_qos + 8 * config.netem.delay);
    s.horizon = config.warmup +
                static_cast<sim::Tick>(max_offered_seconds * 1.05 * 1e9) +
                grace;
}

void
build(const Experiment &e, bool traced, Stack &s)
{
    if (e.cluster)
        buildCluster(e.multi, traced, s);
    else
        buildSingle(e.single, traced, s);
}

/** Events between two samples of the CPU models' occupancy. */
constexpr std::uint64_t kOccupancyStride = 64;

/** Step to the horizon, one timed event at a time. */
void
stepTraced(Stack &s, LayerTrace &trace)
{
    std::vector<kernel::CpuModel *> cpus;
    for (auto &machine : s.machines)
        cpus.push_back(&machine->kernel().cpu());
    auto completed = [&cpus] {
        std::uint64_t n = 0;
        for (kernel::CpuModel *cpu : cpus)
            n += cpu->completedJobs();
        return n;
    };

    // Each event's span covers the queue's own look-ahead (which also
    // drops cancelled events) as well as the event itself.
    sim::EventQueue &queue = s.sim->events();
    const auto span0 = Clock::now();
    std::uint64_t jobs = completed();
    for (;;) {
        const double probe_before = s.clock.ns;
        const auto t0 = Clock::now();
        if (queue.nextTick() > s.horizon)
            break;
        s.sim->step();
        const double dt = nsSince(t0);
        const double self = dt - (s.clock.ns - probe_before);

        ++trace.events;
        trace.eventSpanNs += dt;
        trace.eventSelfNs += self;
        const std::uint64_t jobs_after = completed();
        if (jobs_after != jobs) {
            ++trace.cpuEvents;
            trace.cpuEventSelfNs += self;
            jobs = jobs_after;
        }
        if (trace.events % kOccupancyStride == 0) {
            for (kernel::CpuModel *cpu : cpus) {
                const std::uint64_t active = cpu->activeJobs();
                trace.activeSum += static_cast<double>(active);
                trace.activeMax = std::max(trace.activeMax, active);
            }
            trace.activeSamples += cpus.size();
        }
    }
    // Leaves the clock where the harness's runUntil(horizon) leaves it.
    s.sim->runUntil(s.horizon);
    trace.runSpanNs += nsSince(span0);
    trace.probeNs += s.clock.ns;
    trace.fires += s.clock.fires;
}

void
countSamples(const std::vector<core::MetricsSample> &samples,
             LayerTrace &trace)
{
    for (const core::MetricsSample &m : samples) {
        ++trace.samples;
        if (m.health.degraded())
            ++trace.degradedSamples;
    }
}

/** Read outputs the way the harness does, plus the layer counters. */
Outputs
readOut(const Experiment &e, Stack &s, LayerTrace &trace)
{
    Outputs o;
    for (auto &machine : s.machines) {
        kernel::Kernel &k = machine->kernel();
        o.syscalls += k.syscallCount();
        trace.cpuJobs += k.cpu().completedJobs();
        trace.cpuDispatches += k.cpu().dispatches();
        trace.cpuPreemptions += k.cpu().preemptions();
        for (std::size_t t = 0; t < machine->tenantCount(); ++t)
            trace.stalls += machine->tenant(t).contentionStalls();
    }
    trace.syscalls += o.syscalls;
    for (ebpf::EbpfRuntime *rt : s.runtimes()) {
        o.probeEvents += rt->eventsProcessed();
        o.probeInsns += rt->insnsInterpreted();
        o.probeCostNs += rt->totalProbeCost();
        o.mapUpdateFails += rt->mapUpdateFails();
        o.ringbufDrops += rt->ringbufDrops();
    }
    o.lossCounted = true;
    trace.probeRuns += o.probeEvents;
    trace.probeInsns += o.probeInsns;
    trace.probeSimCostNs += static_cast<double>(o.probeCostNs);
    trace.mapUpdateFails += o.mapUpdateFails;
    trace.ringbufDrops += o.ringbufDrops;

    if (!e.cluster) {
        client::LoadGenerator &gen = *s.gen;
        TenantOutputs t;
        t.completed = gen.completed();
        t.p99Ns = gen.latencies().p99();
        t.achievedRps = gen.achievedRps();
        t.observedRps = s.agent->overallObservedRps();
        t.sendBound = e.single.requests;
        for (const core::MetricsSample &m : s.agent->samples())
            t.probeSends += m.send.count;
        t.kernelSyscalls = o.syscalls;
        o.tenants.push_back(t);
        countSamples(s.agent->samples(), trace);
        trace.clientSent += gen.sent();
        trace.clientCompleted += gen.completed();

        if (net::FrontDoor *door = s.machines[0]->frontDoor()) {
            o.door = true;
            o.doorCounts = door->totals();
            trace.doorSyns += o.doorCounts.syns;
            trace.doorAccepted += o.doorCounts.accepted;
            trace.doorDrops += o.doorCounts.drops();
            trace.doorRetransmits += o.doorCounts.retransmits;
        }
        for (auto &storm : s.storms) {
            o.stormEstablished += storm->established();
            o.stormFailed += storm->failed();
            trace.stormAttempted += storm->attempted();
            trace.stormFailed += storm->failed();
        }
        return o;
    }

    for (std::size_t t = 0; t < s.fleetGens.size(); ++t) {
        const client::FleetLoadGenerator &gen = *s.fleetGens[t];
        TenantOutputs to;
        to.completed = gen.completed();
        to.p99Ns = gen.latencies().p99();
        to.achievedRps = gen.achievedRps();
        to.sendBound = gen.arrivals();
        for (std::size_t m = 0; m < s.machines.size(); ++m) {
            const core::MultiTenantAgent &agent = *s.agents[m];
            to.kernelSyscalls += s.machines[m]->kernel().syscallCountFor(
                s.machines[m]->tenant(t).frontPid());
            to.observedRps += agent.overallObservedRps(t);
            to.probeSends += agent.sendSyscalls(t);
            countSamples(agent.tenant(t).samples(), trace);
        }
        o.tenants.push_back(to);
        trace.clientSent += gen.sent();
        trace.clientCompleted += gen.completed();
    }
    return o;
}

void
countPrograms(Stack &s, std::uint64_t &loaded, std::uint64_t &native)
{
    for (ebpf::EbpfRuntime *rt : s.runtimes()) {
        loaded += rt->loadedPrograms();
        native += rt->nativePrograms();
    }
}

} // namespace

BuildOnly
buildOnly(const Experiment &e)
{
    BuildOnly out;
    Stack s;
    build(e, /*traced=*/false, s);
    out.spans = s.spans;
    countPrograms(s, out.loadedPrograms, out.nativePrograms);
    return out;
}

Outputs
runTraced(const Experiment &e, LayerTrace &trace)
{
    Stack s;
    build(e, /*traced=*/true, s);
    trace.setup += s.spans;
    countPrograms(s, trace.loadedPrograms, trace.nativePrograms);
    stepTraced(s, trace);
    Outputs o = readOut(e, s, trace);
    if (s.agent)
        s.agent->stop();
    for (auto &agent : s.agents)
        agent->stop();
    return o;
}

} // namespace perfbench
