#include "core/cluster.hh"

#include <algorithm>
#include <memory>

#include "client/fleet_generator.hh"
#include "core/parallel.hh"
#include "core/profile.hh"
#include "sim/logging.hh"

namespace reqobs::core {

bool
isDegenerateCluster(const ClusterExperimentConfig &config)
{
    const bool uniform_speed =
        config.machineSpeedFactors.empty() ||
        (config.machineSpeedFactors.size() == 1 &&
         config.machineSpeedFactors[0] == 1.0);
    // A discrete-sched config is never degenerate: runExperiment() has
    // no scheduler knob to carry it through.
    return config.machines == 1 && config.tenants.size() == 1 &&
           config.tenants[0].loadProfile.empty() && !config.antagonist &&
           !config.controller.enabled && uniform_speed &&
           config.sched == kernel::SchedModel::Gps;
}

namespace {

/**
 * Lift a single-machine ExperimentResult into the cluster shape. Used
 * on the degenerate path so runClusterExperiment() is runExperiment()
 * plus relabelling, never a parallel implementation that could drift.
 */
ClusterExperimentResult
liftDegenerate(const ClusterExperimentConfig &config,
               const ExperimentResult &res)
{
    ClusterExperimentResult out;
    ClusterTenantResult t;
    t.name = config.tenants[0].workload.name;
    t.offeredRps = res.offeredRps;
    t.achievedRps = res.achievedRps;
    t.observedRps = res.observedRps;
    t.completed = res.completed;
    t.p50Ns = res.p50Ns;
    t.p95Ns = res.p95Ns;
    t.p99Ns = res.p99Ns;
    t.qosViolated = res.qosViolated;

    TenantMachineResult m;
    m.observedRps = res.observedRps;
    m.achievedRps = res.achievedRps;
    m.completed = res.completed;
    m.sendVarNs2 = res.sendVarNs2;
    m.pollMeanDurNs = res.pollMeanDurNs;
    // The single-tenant agent doesn't expose its cumulative map counter
    // through ExperimentResult; the windowed sum is the close equivalent.
    for (const MetricsSample &s : res.samples)
        m.probeSendSyscalls += s.send.count;
    m.kernelSyscalls = res.syscalls;
    m.samples = res.samples.size();
    t.machines.push_back(m);

    if (!res.samples.empty()) {
        FleetAggregator agg(1, std::max<sim::Tick>(
                                   1, config.agent.samplePeriod));
        agg.addSeries(0, res.samples);
        t.fleetSeries = agg.merged();
    }

    out.fleetOfferedRps = res.offeredRps;
    out.fleetAchievedRps = res.achievedRps;
    out.fleetObservedRps = res.observedRps;
    out.syscalls = res.syscalls;
    out.probeEvents = res.probeEvents;
    out.probeInsns = res.probeInsns;
    out.probeCostNs = res.probeCostNs;
    out.tenants.push_back(std::move(t));
    return out;
}

} // namespace

ClusterExperimentResult
runClusterExperiment(const ClusterExperimentConfig &config)
{
    if (config.tenants.empty())
        sim::fatal("runClusterExperiment: need at least one tenant");
    if (config.machines == 0)
        sim::fatal("runClusterExperiment: need at least one machine");
    if (!config.machineSpeedFactors.empty() &&
        config.machineSpeedFactors.size() != config.machines)
        sim::fatal("runClusterExperiment: machineSpeedFactors size mismatch");
    for (const ClusterTenantSpec &t : config.tenants) {
        if (t.offeredRps <= 0.0)
            sim::fatal("runClusterExperiment: tenant offeredRps must be set");
        for (const LoadPhase &p : t.loadProfile)
            if (p.factor <= 0.0)
                sim::fatal("runClusterExperiment: load factor must be > 0");
    }
    if (config.controller.enabled && !config.attachAgents)
        sim::fatal("runClusterExperiment: the controller needs agents");

    if (isDegenerateCluster(config)) {
        ExperimentConfig single;
        single.workload = config.tenants[0].workload;
        single.system = config.system;
        single.netem = config.netem;
        single.tcp = config.tcp;
        single.offeredRps = config.tenants[0].offeredRps;
        single.requests = config.tenants[0].requests;
        single.warmup = config.warmup;
        single.qosLatency = config.qosLatency;
        single.seed = config.seed;
        single.attachAgent = config.attachAgents;
        single.agent = config.agent;
        return liftDegenerate(config, runExperiment(single));
    }

    sim::Simulation sim(config.seed);

    // Machines first (each owns a Kernel), machine-major tenant
    // placement after — the RNG fork order is part of the contract.
    std::vector<std::unique_ptr<workload::Machine>> machines;
    machines.reserve(config.machines);
    for (unsigned m = 0; m < config.machines; ++m) {
        kernel::KernelConfig kc;
        kc.cpu = config.system.toCpuConfig();
        kc.cpu.sched = config.sched;
        if (config.schedQuantum > 0)
            kc.cpu.quantum = config.schedQuantum;
        if (!config.machineSpeedFactors.empty())
            kc.cpu.speed *= config.machineSpeedFactors[m];
        machines.push_back(std::make_unique<workload::Machine>(sim, kc));
    }
    for (auto &machine : machines) {
        for (const ClusterTenantSpec &t : config.tenants)
            machine->addTenant(t.workload);
        if (config.antagonist)
            machine->addAntagonist(config.antagonistConfig);
    }

    // One load-balanced client population per tenant.
    std::vector<std::unique_ptr<client::FleetLoadGenerator>> gens;
    gens.reserve(config.tenants.size());
    sim::Tick max_qos = 0;
    double max_offered_seconds = 0.0;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        const ClusterTenantSpec &spec = config.tenants[t];
        std::vector<workload::ServerApp *> backends;
        backends.reserve(machines.size());
        for (auto &machine : machines)
            backends.push_back(&machine->tenant(t));
        client::ClientConfig cc;
        cc.offeredRps = spec.offeredRps;
        cc.maxRequests = spec.requests;
        cc.warmup = config.warmup;
        cc.qosLatency = config.qosLatency > 0
                            ? config.qosLatency
                            : defaultQosLatency(spec.workload, config.netem);
        max_qos = std::max(max_qos, cc.qosLatency);
        max_offered_seconds =
            std::max(max_offered_seconds,
                     static_cast<double>(spec.requests) / spec.offeredRps);
        gens.push_back(std::make_unique<client::FleetLoadGenerator>(
            sim, std::move(backends), config.netem, config.tcp, cc,
            config.lbPolicy));
    }

    // Offered-load schedules (diurnal curves, flash crowds). Phases are
    // scheduled up front; an empty profile schedules nothing, keeping the
    // constant-rate path untouched.
    double min_load_factor = 1.0;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        const ClusterTenantSpec &spec = config.tenants[t];
        client::FleetLoadGenerator *gen = gens[t].get();
        for (const LoadPhase &phase : spec.loadProfile) {
            min_load_factor = std::min(min_load_factor, phase.factor);
            const double rps = spec.offeredRps * phase.factor;
            sim.scheduleAt(phase.at, [gen, rps] { gen->setOfferedRps(rps); });
        }
    }

    // One multi-tenant agent per machine: one probe set, T stats slots.
    std::vector<std::unique_ptr<MultiTenantAgent>> agents;
    if (config.attachAgents) {
        agents.reserve(machines.size());
        for (auto &machine : machines) {
            std::vector<TenantBinding> bindings;
            bindings.reserve(config.tenants.size());
            for (std::size_t t = 0; t < config.tenants.size(); ++t) {
                TenantBinding b;
                b.name = config.tenants[t].workload.name;
                b.tgid = machine->tenant(t).frontPid();
                b.profile = profileFor(config.tenants[t].workload);
                bindings.push_back(std::move(b));
            }
            agents.push_back(std::make_unique<MultiTenantAgent>(
                machine->kernel(), std::move(bindings), config.agent));
        }
    }

    // Closed-loop controller (disabled by default: nothing below runs,
    // nothing is scheduled, existing runs are bit-identical).
    std::unique_ptr<FleetController> controller;
    if (config.controller.enabled) {
        // Pre-provision scalable worker pools before the machines start:
        // workers cannot be spawned mid-run, only parked and unparked.
        for (auto &machine : machines)
            for (std::size_t t = 0; t < config.tenants.size(); ++t)
                if (config.tenants[t].workload.model ==
                    workload::ThreadingModel::DispatcherWorkers)
                    machine->tenant(t).enableWorkerScaling(
                        config.controller.maxWorkers);

        FleetActuators act;
        act.setShed = [&gens](std::size_t t, double p, sim::Tick retry) {
            gens[t]->setAdmission(p, retry);
        };
        act.setDrained = [&gens](std::size_t m, bool drained) {
            for (auto &gen : gens)
                gen->balancer().setDrained(m, drained);
        };
        act.setWorkerTarget = [&machines, &config](std::size_t m,
                                                   unsigned workers) {
            // setWorkerTarget is a no-op on non-DispatcherWorkers apps.
            for (std::size_t t = 0; t < config.tenants.size(); ++t)
                machines[m]->tenant(t).setWorkerTarget(workers);
        };
        controller = std::make_unique<FleetController>(
            sim, config.controller, config.machines, config.tenants.size(),
            std::move(act));
        controller->setInputProvider([&agents, &config] {
            std::vector<ControllerInput> inputs;
            inputs.reserve(agents.size() * config.tenants.size());
            for (std::size_t m = 0; m < agents.size(); ++m) {
                for (std::size_t t = 0; t < config.tenants.size(); ++t) {
                    const TenantMetrics &tm = agents[m]->tenant(t);
                    ControllerInput in;
                    in.machine = m;
                    in.tenant = t;
                    if (!tm.samples().empty()) {
                        const MetricsSample &s = tm.samples().back();
                        in.t = s.t;
                        in.slack = s.slack;
                        in.saturated = s.saturated;
                        in.sendCount = s.send.count;
                        in.degraded = s.health.degraded();
                        in.varianceRatio = tm.saturation().varianceRatio();
                    }
                    inputs.push_back(in);
                }
            }
            return inputs;
        });
    }

    for (auto &machine : machines)
        machine->start();
    for (auto &agent : agents)
        agent->start();
    for (auto &gen : gens)
        gen->start();
    if (controller)
        controller->start();

    sim::Tick grace = std::max<sim::Tick>(
        sim::milliseconds(500), 4 * max_qos + 8 * config.netem.delay);
    // Shed-retry backoff can hold the last admitted requests for seconds.
    if (config.controller.enabled)
        grace += sim::seconds(4);
    // A load profile stretches the arrival schedule by up to the inverse
    // of its lowest factor (the budget drains slowest at the trough).
    const sim::Tick horizon =
        config.warmup +
        static_cast<sim::Tick>(max_offered_seconds / min_load_factor * 1.05 *
                               1e9) +
        grace;
    sim.runUntil(horizon);

    ClusterExperimentResult out;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        const client::FleetLoadGenerator &gen = *gens[t];
        ClusterTenantResult tr;
        tr.name = config.tenants[t].workload.name;
        tr.offeredRps = config.tenants[t].offeredRps;
        tr.achievedRps = gen.achievedRps();
        tr.completed = gen.completed();
        tr.p50Ns = gen.latencies().p50();
        tr.p95Ns = gen.latencies().p95();
        tr.p99Ns = gen.latencies().p99();
        tr.qosViolated = gen.qosViolated();
        tr.arrivals = gen.arrivals();
        tr.shedded = gen.shedded();
        tr.shedDropped = gen.shedDropped();

        FleetAggregator agg(config.machines,
                            std::max<sim::Tick>(1,
                                                config.agent.samplePeriod));
        for (unsigned m = 0; m < config.machines; ++m) {
            TenantMachineResult mr;
            mr.achievedRps = gen.backendAchievedRps(m);
            mr.completed = gen.backendCompleted(m);
            mr.kernelSyscalls =
                machines[m]->kernel().syscallCountFor(
                    machines[m]->tenant(t).frontPid());
            if (!agents.empty()) {
                const MultiTenantAgent &agent = *agents[m];
                mr.observedRps = agent.overallObservedRps(t);
                mr.sendVarNs2 = agent.overallSendVariance(t);
                mr.pollMeanDurNs = agent.overallPollMeanDurationNs(t);
                mr.probeSendSyscalls = agent.sendSyscalls(t);
                mr.samples = agent.tenant(t).samples().size();
                mr.runqP99Ns = agent.overallRunqP99Ns(t);
                agg.addSeries(m, agent.tenant(t).samples());
                tr.observedRps += mr.observedRps;
                tr.runqP99Ns = std::max(tr.runqP99Ns, mr.runqP99Ns);
            }
            tr.machines.push_back(mr);
        }
        tr.fleetSeries = agg.merged();

        out.fleetOfferedRps += tr.offeredRps;
        out.fleetAchievedRps += tr.achievedRps;
        out.fleetObservedRps += tr.observedRps;
        out.tenants.push_back(std::move(tr));
    }
    for (auto &machine : machines)
        out.syscalls += machine->kernel().syscallCount();
    if (controller) {
        controller->stop();
        out.controller = controller->stats();
    }
    for (auto &agent : agents) {
        out.probeEvents += agent->runtime().eventsProcessed();
        out.probeInsns += agent->runtime().insnsInterpreted();
        out.probeCostNs += agent->runtime().totalProbeCost();
        agent->stop();
    }
    for (auto &gen : gens)
        gen->stop();
    return out;
}

std::vector<ClusterExperimentResult>
runClusterExperimentsParallel(
    const std::vector<ClusterExperimentConfig> &configs, unsigned threads)
{
    std::vector<ClusterExperimentResult> out(configs.size());
    poolRun(configs.size(), threads, [&](std::size_t i) {
        out[i] = runClusterExperiment(configs[i]);
    });
    return out;
}

} // namespace reqobs::core
