#include "core/experiment.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "client/load_generator.hh"
#include "core/parallel.hh"
#include "core/profile.hh"
#include "kernel/kernel.hh"
#include "sim/logging.hh"
#include "workload/machine.hh"
#include "workload/server_app.hh"

namespace reqobs::core {

sim::Tick
defaultQosLatency(const workload::WorkloadConfig &workload,
                  const net::NetemConfig &netem)
{
    // Latency-critical QoS targets sit an order of magnitude above the
    // mean service time, plus round-trip allowance for injected delay.
    const sim::Tick service = workload.meanDemand();
    return 12 * service + 4 * netem.delay + sim::milliseconds(1);
}

ExperimentResult
runExperiment(const ExperimentConfig &config)
{
    if (config.offeredRps <= 0.0)
        sim::fatal("runExperiment: offeredRps must be set");

    sim::Simulation sim(config.seed);

    // The injector (and its RNG fork) exists only when the plan enables
    // something: a zero plan must leave every other component's random
    // stream exactly where a fault-free build would.
    std::unique_ptr<fault::FaultInjector> inj;
    if (config.fault.any())
        inj = std::make_unique<fault::FaultInjector>(config.fault,
                                                     sim.forkRng());

    // The single-machine run is a one-tenant Machine: same Kernel and
    // ServerApp construction (and RNG-fork) order as the historical
    // fused harness, so results stay bit-identical.
    kernel::KernelConfig kc;
    kc.cpu = config.system.toCpuConfig();
    workload::Machine machine(sim, kc);
    kernel::Kernel &kernel = machine.kernel();
    kernel.setFaultInjector(inj.get());

    workload::ServerApp &app = machine.addTenant(config.workload);

    client::ClientConfig cc;
    cc.offeredRps = config.offeredRps;
    cc.maxRequests = config.requests;
    cc.warmup = config.warmup;
    cc.qosLatency = config.qosLatency > 0
                        ? config.qosLatency
                        : defaultQosLatency(config.workload, config.netem);
    client::LoadGenerator gen(sim, app, config.netem, config.tcp, cc,
                              inj.get());

    // Front door and storm sit strictly after the LoadGenerator in the
    // construction (RNG-fork) order; when disabled nothing is built, so
    // front-door-free runs keep their historical random streams.
    std::vector<std::unique_ptr<client::StormGenerator>> storms;
    if (config.frontDoor.enabled) {
        machine.enableFrontDoor(config.frontDoor.door);
        const unsigned n = std::max(1u, config.frontDoor.listeners);
        std::vector<unsigned> ids;
        for (unsigned i = 0; i < n; ++i)
            ids.push_back(
                machine.addFrontDoorListener(0, config.frontDoor.listener));
        if (config.frontDoor.stormEnabled) {
            for (unsigned id : ids) {
                client::StormConfig sc = config.frontDoor.storm;
                sc.connRps /= n;
                sc.listener = id;
                storms.push_back(std::make_unique<client::StormGenerator>(
                    sim, *machine.frontDoor(), config.netem, config.tcp,
                    sc));
            }
        }
    }

    // Agent-lifecycle faults only make sense under supervision: an
    // unsupervised crashed agent would simply end the metric stream.
    const bool lifecycle_faults = config.fault.agentCrashMtbf > 0 ||
                                  config.fault.samplerStallMtbf > 0 ||
                                  config.fault.mapWipeOnRestartProbability >
                                      0.0;
    std::unique_ptr<ObservabilityAgent> agent;
    std::unique_ptr<Supervisor> sup;
    if (config.attachAgent) {
        AgentConfig ac = config.agent;
        if (inj && config.autoHarden) {
            // Chaos runs get the hardened pipeline; clean runs keep the
            // exact paper configuration (and its probe cost model).
            ac.tolerateAttachFailures = true;
            ac.guardedProbes = true;
            ac.staleBackoff = true;
            ac.lossAware = true;
        }
        if (config.supervised || lifecycle_faults) {
            sup = std::make_unique<Supervisor>(
                kernel, app.frontPid(), profileFor(config.workload), ac,
                config.supervisor, inj.get(), sim.forkRng());
        } else {
            agent = std::make_unique<ObservabilityAgent>(
                kernel, app.frontPid(), profileFor(config.workload), ac);
            agent->runtime().setFaultInjector(inj.get());
        }
    }

    machine.start();
    if (agent)
        agent->start();
    if (sup)
        sup->start();
    gen.start();
    for (auto &s : storms)
        s->start();

    // Offered-load window plus grace for queues and retransmissions.
    const double offered_seconds =
        static_cast<double>(config.requests) / config.offeredRps;
    const sim::Tick grace = std::max<sim::Tick>(
        sim::milliseconds(500), 4 * cc.qosLatency + 8 * config.netem.delay);
    const sim::Tick horizon =
        config.warmup +
        static_cast<sim::Tick>(offered_seconds * 1.05 * 1e9) + grace;
    sim.runUntil(horizon);

    ExperimentResult res;
    res.offeredRps = config.offeredRps;
    res.achievedRps = gen.achievedRps();
    res.completed = gen.completed();
    res.p50Ns = gen.latencies().p50();
    res.p95Ns = gen.latencies().p95();
    res.p99Ns = gen.latencies().p99();
    res.qosViolated = gen.qosViolated();
    res.syscalls = kernel.syscallCount();

    res.tenantSyscalls = kernel.syscallCountFor(app.frontPid());

    if (agent || sup) {
        // The supervisor's counters fall back to its last map snapshot
        // when no incarnation is live.
        const FamilyCounters c = agent ? agent->counters() : sup->counters();
        res.observedRps = wholeRunRps(c.send);
        res.sendVarNs2 = diffStats({}, c.send).varianceNs2;
        res.recvVarNs2 = diffStats({}, c.recv).varianceNs2;
        res.pollMeanDurNs = wholeRunMeanNs(c.poll);
        res.probeSendSyscalls = c.send.count;
    }
    if (agent) {
        res.samples = agent->samples();
        res.probeEvents = agent->runtime().eventsProcessed();
        res.probeInsns = agent->runtime().insnsInterpreted();
        res.probeCostNs = agent->runtime().totalProbeCost();
        res.agentHealth = agent->health();
        res.probeMapUpdateFails = agent->runtime().mapUpdateFails();
        res.probeRingbufDrops = agent->runtime().ringbufDrops();
        agent->stop();
    } else if (sup) {
        res.samples = sup->samples();
        res.probeEvents = sup->probeEvents();
        res.probeInsns = sup->probeInsns();
        res.probeCostNs = sup->probeCost();
        res.agentHealth = sup->health();
        res.probeMapUpdateFails = sup->mapUpdateFails();
        res.probeRingbufDrops = sup->ringbufDrops();
        sup->stop();
        // After stop() so the final downtime segment is included.
        res.supervisorStats = sup->stats();
    }
    if (inj)
        res.faultCounts = inj->counts();
    if (machine.frontDoor()) {
        net::FrontDoor &door = *machine.frontDoor();
        res.frontDoorCounts = door.totals();
        // Listeners are symmetric; report the hottest one's quantiles.
        for (unsigned i = 0; i < door.listenerCount(); ++i) {
            const stats::LatencyHistogram &acc = door.acceptLatencies(i);
            res.frontDoorAcceptP50Ns =
                std::max(res.frontDoorAcceptP50Ns, acc.p50());
            res.frontDoorAcceptP99Ns =
                std::max(res.frontDoorAcceptP99Ns, acc.p99());
        }
    }
    for (auto &s : storms) {
        res.stormEstablished += s->established();
        res.stormFailed += s->failed();
        res.stormConnP99Ns =
            std::max(res.stormConnP99Ns, s->connLatencies().p99());
        s->stop();
    }
    gen.stop();
    return res;
}

ExperimentConfig
sweepPointConfig(const ExperimentConfig &base, double load_fraction,
                 const SweepScaling &scaling)
{
    ExperimentConfig cfg = base;
    cfg.offeredRps = load_fraction * base.workload.saturationRps;
    // Scale run length with rate: enough syscalls for stable windows
    // without letting fast workloads run forever.
    cfg.requests = static_cast<std::uint64_t>(std::clamp(
        cfg.offeredRps * scaling.requestsPerRps,
        static_cast<double>(scaling.minRequests),
        static_cast<double>(scaling.maxRequests)));
    const double window_s =
        static_cast<double>(cfg.requests) / cfg.offeredRps;
    if (scaling.scaleWarmup) {
        // Keep the warmup a small fraction of the offered-load window so
        // fast workloads (capped request counts) still measure steady
        // state.
        cfg.warmup = std::min<sim::Tick>(
            cfg.warmup, static_cast<sim::Tick>(window_s * 0.2 * 1e9));
    }
    if (scaling.scaleSampling) {
        // Sample fast enough for several estimates even in short runs.
        cfg.agent.samplePeriod = std::min<sim::Tick>(
            cfg.agent.samplePeriod,
            static_cast<sim::Tick>(window_s * 0.1 * 1e9));
    }
    if (scaling.perLevelSeedOffset)
        cfg.seed += static_cast<std::uint64_t>(load_fraction * 1000.0);
    return cfg;
}

unsigned
parallelJobsFromEnv()
{
    // More workers than this only thrash: each experiment already owns
    // a full simulation's working set.
    constexpr unsigned long kMaxJobs = 256;

    const char *name = "REQOBS_JOBS";
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return 0;
    // strtoul quietly accepts signs (wrapping negatives) and trailing
    // garbage; require a plain unsigned decimal integer.
    errno = 0;
    char *end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (env[0] == '-' || env[0] == '+' || end == env || *end != '\0' ||
        errno == ERANGE) {
        std::fprintf(stderr,
                     "reqobs: ignoring %s='%s' (not an unsigned integer)\n",
                     name, env);
        return 0;
    }
    if (v > kMaxJobs) {
        std::fprintf(stderr, "reqobs: clamping %s=%lu to %lu\n", name, v,
                     kMaxJobs);
        return kMaxJobs;
    }
    return static_cast<unsigned>(v);
}

unsigned
effectiveParallelJobs(std::size_t jobs)
{
    return resolveWorkerCount(0, jobs);
}

std::vector<ExperimentResult>
runExperimentsParallel(const std::vector<ExperimentConfig> &configs,
                       unsigned threads)
{
    // Each experiment owns a whole Simulation, so runs are independent;
    // indexed output slots make the result order (and content) identical
    // to a serial loop regardless of scheduling.
    std::vector<ExperimentResult> out(configs.size());
    poolRun(configs.size(), threads,
            [&](std::size_t i) { out[i] = runExperiment(configs[i]); });
    return out;
}

std::vector<SweepPoint>
runSweepParallel(const ExperimentConfig &base,
                 const std::vector<double> &load_fractions,
                 const SweepScaling &scaling, unsigned threads)
{
    std::vector<ExperimentConfig> configs;
    configs.reserve(load_fractions.size());
    for (double frac : load_fractions)
        configs.push_back(sweepPointConfig(base, frac, scaling));

    std::vector<ExperimentResult> results =
        runExperimentsParallel(configs, threads);

    std::vector<SweepPoint> out;
    out.reserve(load_fractions.size());
    for (std::size_t i = 0; i < load_fractions.size(); ++i) {
        SweepPoint p;
        p.loadFraction = load_fractions[i];
        p.result = std::move(results[i]);
        out.push_back(std::move(p));
    }
    return out;
}

} // namespace reqobs::core
