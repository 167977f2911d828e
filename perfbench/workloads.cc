#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/agent.hh"
#include "workload/config.hh"

namespace perfbench {

namespace {

/** The figure benches' sweep profile (bench::benchScaling()). */
core::SweepScaling
figureScaling()
{
    core::SweepScaling s;
    s.requestsPerRps = 4.0;
    s.minRequests = 2500;
    s.maxRequests = 25000;
    s.scaleWarmup = true;
    s.scaleSampling = true;
    s.perLevelSeedOffset = true;
    return s;
}

std::uint64_t
scaled(std::uint64_t requests, double scale)
{
    return std::max<std::uint64_t>(
        50, static_cast<std::uint64_t>(static_cast<double>(requests) * scale));
}

std::uint64_t
levelSeed(std::uint64_t seed, double frac)
{
    return seed + static_cast<std::uint64_t>(frac * 1000.0);
}

/** fig2-sweep: nine paper workloads x ten load levels, one machine. */
std::vector<Experiment>
fig2Sweep(std::uint64_t seed, double scale)
{
    std::vector<Experiment> out;
    for (const auto &wl : workload::paperWorkloads()) {
        core::ExperimentConfig base;
        base.workload = wl;
        base.seed = seed;
        base.agent.minWindowSyscalls = 512;
        for (int i = 1; i <= 10; ++i) {
            Experiment e;
            e.single = core::sweepPointConfig(base, 0.1 * i, figureScaling());
            e.single.requests = scaled(e.single.requests, scale);
            out.push_back(std::move(e));
        }
    }
    return out;
}

/** Cluster config for two co-located tenants at @p frac of capacity. */
core::ClusterExperimentConfig
twoTenants(double frac, double capacity, std::uint64_t min_requests,
           std::uint64_t max_requests, double scale)
{
    core::ClusterExperimentConfig cfg;
    for (const char *name : {"img-dnn", "xapian"}) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(name);
        t.offeredRps = frac * t.workload.saturationRps * capacity / 2.0;
        t.requests = scaled(
            static_cast<std::uint64_t>(std::clamp(
                t.offeredRps * 4.0, static_cast<double>(min_requests),
                static_cast<double>(max_requests))),
            scale);
        cfg.tenants.push_back(std::move(t));
    }
    cfg.agent.minWindowSyscalls = 256;
    return cfg;
}

/** colo-antag: bench_colocation's "2t+antag" mix, one machine. */
std::vector<Experiment>
coloAntag(std::uint64_t seed, double scale)
{
    std::vector<Experiment> out;
    for (double frac : {0.4, 0.6, 0.8, 1.0}) {
        Experiment e;
        e.cluster = true;
        e.multi = twoTenants(frac, 1.0, 1500, 12000, scale);
        e.multi.machines = 1;
        e.multi.antagonist = true;
        e.multi.antagonistConfig.threads = 48;
        e.multi.seed = levelSeed(seed, frac);
        out.push_back(std::move(e));
    }
    return out;
}

/** fleet-discrete: 4 heterogeneous machines x 2 tenants, run queues. */
std::vector<Experiment>
fleetDiscrete(std::uint64_t seed, double scale)
{
    const std::vector<double> speed = {1.0, 1.0, 0.8, 0.6};
    double capacity = 0.0;
    for (double s : speed)
        capacity += s;
    std::vector<Experiment> out;
    for (double frac : {0.5, 0.9}) {
        Experiment e;
        e.cluster = true;
        e.multi = twoTenants(frac, capacity, 2500, 12000, scale);
        e.multi.machines = static_cast<unsigned>(speed.size());
        e.multi.machineSpeedFactors = speed;
        e.multi.lbPolicy = net::LbPolicy::LeastConnections;
        e.multi.sched = kernel::SchedModel::Discrete;
        e.multi.agent.runqlatHistogram = true;
        e.multi.seed = levelSeed(seed, frac);
        out.push_back(std::move(e));
    }
    return out;
}

/** door-storm: bench_frontdoor's storm sweep at its two storm levels. */
std::vector<Experiment>
doorStorm(std::uint64_t seed, double scale)
{
    // bench_frontdoor's 8-core edge host.
    kernel::SystemSpec edge = kernel::amdEpyc7302();
    edge.sockets = 1;
    edge.coresPerSocket = 8;
    edge.threadsPerCore = 1;

    std::vector<Experiment> out;
    for (double storm_cps : {2000.0, 5000.0}) {
        const auto wl = workload::workloadByName("data-caching");
        Experiment e;
        core::ExperimentConfig &cfg = e.single;
        cfg.workload = wl;
        cfg.seed = seed;
        cfg.agent.minWindowSyscalls = 512;
        cfg.system = edge;
        cfg.offeredRps = 0.95 * wl.saturationRps;
        cfg.requests = scaled(30000, scale);
        cfg.warmup = sim::milliseconds(200);
        cfg.frontDoor.enabled = true;
        cfg.frontDoor.listener.serviceDemand = sim::microseconds(200);
        cfg.frontDoor.listeners = 2;
        cfg.frontDoor.stormEnabled = true;
        cfg.frontDoor.storm.connRps = storm_cps;
        cfg.frontDoor.storm.warmup = cfg.warmup;
        out.push_back(std::move(e));
    }
    return out;
}

} // namespace

std::uint64_t
defaultSeed(const std::string &name)
{
    return name == "door-storm" ? 21 : 7;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, double scale,
             Workload &out)
{
    out.name = name;
    out.seed = seed;
    out.sched = kernel::SchedModel::Gps;
    if (name == "fig2-sweep") {
        out.experiments = fig2Sweep(seed, scale);
    } else if (name == "colo-antag") {
        out.experiments = coloAntag(seed, scale);
    } else if (name == "fleet-discrete") {
        out.experiments = fleetDiscrete(seed, scale);
        out.sched = kernel::SchedModel::Discrete;
    } else if (name == "door-storm") {
        out.experiments = doorStorm(seed, scale);
    } else {
        return false;
    }
    return true;
}

Outputs
runHarness(const Experiment &e)
{
    Outputs o;
    if (!e.cluster) {
        const core::ExperimentResult r = core::runExperiment(e.single);
        o.syscalls = r.syscalls;
        o.probeEvents = r.probeEvents;
        o.probeInsns = r.probeInsns;
        o.probeCostNs = r.probeCostNs;
        TenantOutputs t;
        t.completed = r.completed;
        t.p99Ns = r.p99Ns;
        t.achievedRps = r.achievedRps;
        t.observedRps = r.observedRps;
        t.sendBound = e.single.requests;
        for (const core::MetricsSample &s : r.samples)
            t.probeSends += s.send.count;
        t.kernelSyscalls = r.syscalls;
        o.tenants.push_back(t);
        o.lossCounted = true;
        o.mapUpdateFails = r.probeMapUpdateFails;
        o.ringbufDrops = r.probeRingbufDrops;
        o.door = e.single.frontDoor.enabled;
        o.doorCounts = r.frontDoorCounts;
        o.stormEstablished = r.stormEstablished;
        o.stormFailed = r.stormFailed;
        return o;
    }
    const core::ClusterExperimentResult r =
        core::runClusterExperiment(e.multi);
    o.syscalls = r.syscalls;
    o.probeEvents = r.probeEvents;
    o.probeInsns = r.probeInsns;
    o.probeCostNs = r.probeCostNs;
    for (const core::ClusterTenantResult &tr : r.tenants) {
        TenantOutputs t;
        t.completed = tr.completed;
        t.p99Ns = tr.p99Ns;
        t.achievedRps = tr.achievedRps;
        t.observedRps = tr.observedRps;
        t.sendBound = tr.arrivals;
        for (const core::TenantMachineResult &m : tr.machines) {
            t.probeSends += m.probeSendSyscalls;
            t.kernelSyscalls += m.kernelSyscalls;
        }
        o.tenants.push_back(t);
    }
    return o;
}

std::string
selfCheck(const Outputs &o)
{
    for (std::size_t i = 0; i < o.tenants.size(); ++i) {
        const TenantOutputs &t = o.tenants[i];
        if (t.completed > t.sendBound)
            return "tenant " + std::to_string(i) + ": completed > sent";
        if (t.probeSends > t.kernelSyscalls)
            return "tenant " + std::to_string(i) +
                   ": probe-attributed sends > kernel syscalls";
    }
    if (o.lossCounted && (o.mapUpdateFails > 0 || o.ringbufDrops > 0))
        return "map-update failures or ring-buffer drops in a clean run";
    if (o.door) {
        // frontdoor_test's identities, in the form that holds for a run
        // cut at its horizon: flows still waiting on a retransmit timer
        // turn "drops == retransmits + failed" into ">=", and "syns ==
        // flows + retransmits" into a bound on resolved flows.
        const net::FrontDoorCounts &c = o.doorCounts;
        if (c.retransmits > c.syns)
            return "front door: retransmits > syns";
        if (c.drops() < c.retransmits + c.failed)
            return "front door: drops < retransmits + failed";
        if (c.accepted + c.failed > c.syns - c.retransmits)
            return "front door: more flows resolved than started";
        if (o.stormEstablished > c.accepted || o.stormFailed > c.failed)
            return "front door: storm outcomes exceed door counters";
    }
    return {};
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

} // namespace

std::uint64_t
digest(const Outputs &o)
{
    std::uint64_t h = 14695981039346656037ull;
    h = fold(h, o.syscalls);
    h = fold(h, o.probeEvents);
    h = fold(h, o.probeInsns);
    h = fold(h, static_cast<std::uint64_t>(o.probeCostNs));
    for (const TenantOutputs &t : o.tenants) {
        h = fold(h, t.completed);
        h = fold(h, t.p99Ns);
        h = fold(h, bits(t.achievedRps));
        h = fold(h, bits(t.observedRps));
        h = fold(h, t.probeSends);
        h = fold(h, t.kernelSyscalls);
    }
    if (o.door) {
        h = fold(h, o.doorCounts.syns);
        h = fold(h, o.doorCounts.drops());
        h = fold(h, o.doorCounts.retransmits);
        h = fold(h, o.doorCounts.accepted);
        h = fold(h, o.stormEstablished);
        h = fold(h, o.stormFailed);
    }
    return h;
}

void
appendRpsErrors(const Outputs &o, std::vector<double> &out)
{
    for (const TenantOutputs &t : o.tenants) {
        if (t.achievedRps > 0.0)
            out.push_back(100.0 * std::fabs(t.observedRps - t.achievedRps) /
                          t.achievedRps);
    }
}

} // namespace perfbench
