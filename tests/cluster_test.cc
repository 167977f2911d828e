/**
 * @file
 * Fleet-layer tests: tenant-scoped probe bytecode (verified tgid
 * attribution), the load balancer, fleet sample aggregation, the
 * tenant-scoped agent's loss reporting, torn windows and heavy-hitter
 * ranking, the cluster experiment harness (including its degenerate
 * single-machine equivalence with runExperiment), and cluster sweeps on
 * the worker pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "client/load_generator.hh"
#include "cluster_bytes.hh"
#include "core/cluster.hh"
#include "core/parallel.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "fault/fault.hh"
#include "kernel/kernel.hh"
#include "net/load_balancer.hh"
#include "sim/simulation.hh"
#include "workload/machine.hh"

namespace reqobs {
namespace {

using ebpf::probes::SyscallStats;
using kernel::Kernel;
using kernel::Pid;
using kernel::Syscall;
using kernel::syscallId;
using kernel::Task;
using kernel::Tid;

// ---------------------------------------------------------------------
// Tenant-scoped probes: attribution decided by verified bytecode.

struct TenantHarness
{
    sim::Simulation sim{11};
    Kernel kernel{sim};
    ebpf::EbpfRuntime rt{kernel};
    Pid tenantA = kernel.createProcess("tenant-a");
    Pid tenantB = kernel.createProcess("tenant-b");
    Pid foreign = kernel.createProcess("foreign");

    ebpf::probes::TenantSet
    tenants() const
    {
        ebpf::probes::TenantSet set;
        set.tgids = {static_cast<std::uint32_t>(tenantA),
                     static_cast<std::uint32_t>(tenantB)};
        set.pollSyscalls = {syscallId(Syscall::Nanosleep),
                            syscallId(Syscall::Nanosleep)};
        return set;
    }

    void
    attach(ebpf::ProgramSpec spec, kernel::TracepointId point)
    {
        const auto vr = rt.loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    }

    /** Sleep @p n times on a fresh thread of @p pid. */
    void
    sleeper(Pid pid, int n, sim::Tick nap)
    {
        kernel.spawnThread(pid, [n, nap](Kernel &k, Tid tid) -> Task {
            for (int i = 0; i < n; ++i)
                co_await k.sleepFor(tid, nap);
        });
    }
};

TEST(TenantDeltaProbeTest, AttributesPerTenantSlots)
{
    TenantHarness h;
    const auto set = h.tenants();
    const auto maps = ebpf::probes::createTenantDeltaMaps(h.rt, 2, "d");
    h.attach(ebpf::probes::buildTenantDeltaExit(
                 h.rt, set, {syscallId(Syscall::Nanosleep)}, maps),
             kernel::TracepointId::SysExit);

    h.sleeper(h.tenantA, 5, sim::milliseconds(1));
    h.sleeper(h.tenantB, 9, sim::milliseconds(1));
    h.sleeper(h.foreign, 7, sim::milliseconds(1));
    h.sim.runFor(sim::milliseconds(30));

    // A delta probe records n-1 inter-syscall gaps for n syscalls.
    const auto a = h.rt.arrayAt(maps.statsFd).at<SyscallStats>(0);
    const auto b = h.rt.arrayAt(maps.statsFd).at<SyscallStats>(1);
    EXPECT_EQ(a.count, 4u);
    EXPECT_EQ(b.count, 8u);
    EXPECT_GT(a.sumNs, 0u);
    EXPECT_GT(b.sumNs, a.sumNs);
}

TEST(TenantDurationProbeTest, MeasuresPerTenantDurations)
{
    TenantHarness h;
    const auto set = h.tenants();
    const auto maps =
        ebpf::probes::createTenantDurationMaps(h.rt, 2, "poll");
    h.attach(ebpf::probes::buildTenantDurationEnter(h.rt, set, maps),
             kernel::TracepointId::SysEnter);
    h.attach(ebpf::probes::buildTenantDurationExit(h.rt, set, maps),
             kernel::TracepointId::SysExit);

    h.sleeper(h.tenantA, 3, sim::milliseconds(2));
    h.sleeper(h.tenantB, 2, sim::milliseconds(5));
    h.sleeper(h.foreign, 4, sim::milliseconds(3));
    h.sim.runFor(sim::milliseconds(40));

    const auto a = h.rt.arrayAt(maps.statsFd).at<SyscallStats>(0);
    const auto b = h.rt.arrayAt(maps.statsFd).at<SyscallStats>(1);
    EXPECT_EQ(a.count, 3u);
    EXPECT_EQ(b.count, 2u);
    // Durations include probe cost; just check the ordering is right.
    EXPECT_GT(b.sumNs, a.sumNs);
}

TEST(TenantProbeTest, ForeignTgidNeverLandsInAnySlot)
{
    TenantHarness h;
    const auto set = h.tenants();
    const auto maps = ebpf::probes::createTenantDeltaMaps(h.rt, 2, "d");
    h.attach(ebpf::probes::buildTenantDeltaExit(
                 h.rt, set, {syscallId(Syscall::Nanosleep)}, maps),
             kernel::TracepointId::SysExit);

    h.sleeper(h.foreign, 10, sim::milliseconds(1));
    h.sim.runFor(sim::milliseconds(20));

    EXPECT_EQ(h.rt.arrayAt(maps.statsFd).at<SyscallStats>(0).count, 0u);
    EXPECT_EQ(h.rt.arrayAt(maps.statsFd).at<SyscallStats>(1).count, 0u);
}

// ---------------------------------------------------------------------
// Load balancer.

TEST(LoadBalancerTest, RoundRobinCycles)
{
    net::LoadBalancer lb(net::LbPolicy::RoundRobin, 3);
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(lb.pick(), i % 3);
}

TEST(LoadBalancerTest, LeastConnectionsFollowsInflight)
{
    net::LoadBalancer lb(net::LbPolicy::LeastConnections, 3);
    // Load backend 0 and 1; the emptiest backend must win.
    lb.onDispatch(0);
    lb.onDispatch(0);
    lb.onDispatch(1);
    EXPECT_EQ(lb.pick(), 2u);
    lb.onDispatch(2);
    lb.onDispatch(2);
    // Now 1 is least loaded.
    EXPECT_EQ(lb.pick(), 1u);
    // Completions drain backend 0 below everyone else.
    lb.onComplete(0);
    lb.onComplete(0);
    EXPECT_EQ(lb.pick(), 0u);
    EXPECT_EQ(lb.inflight(0), 0u);
}

TEST(LoadBalancerTest, LeastConnectionsRotatesTies)
{
    net::LoadBalancer lb(net::LbPolicy::LeastConnections, 3);
    // All equal: consecutive picks must not pile onto one backend.
    const std::size_t first = lb.pick();
    lb.onDispatch(first);
    lb.onComplete(first);
    const std::size_t second = lb.pick();
    EXPECT_NE(first, second);
}

// ---------------------------------------------------------------------
// Fleet aggregation.

core::MetricsSample
sampleAt(sim::Tick t, double rps, std::uint64_t count, double var,
         double slack)
{
    core::MetricsSample s;
    s.t = t;
    s.rpsObsv = rps;
    s.send.count = count;
    s.send.varianceNs2 = var;
    s.slack = slack;
    return s;
}

TEST(FleetAggregatorTest, MergesBucketsAcrossMachines)
{
    core::FleetAggregator agg(2, sim::milliseconds(100));
    // Same bucket, both machines: rates add, slack takes the minimum,
    // variance pools by window count.
    agg.add(0, sampleAt(sim::milliseconds(100), 10.0, 100, 4.0, 0.5));
    agg.add(1, sampleAt(sim::milliseconds(150), 20.0, 300, 8.0, 0.2));
    // Later bucket, one machine only.
    agg.add(0, sampleAt(sim::milliseconds(210), 12.0, 120, 4.0, 0.6));

    const auto merged = agg.merged();
    ASSERT_EQ(merged.size(), 2u);

    EXPECT_EQ(merged[0].t, sim::milliseconds(100));
    EXPECT_DOUBLE_EQ(merged[0].rpsObsv, 30.0);
    EXPECT_EQ(merged[0].sendCount, 400u);
    EXPECT_EQ(merged[0].contributors, 2u);
    EXPECT_DOUBLE_EQ(merged[0].slack, 0.2);
    EXPECT_DOUBLE_EQ(merged[0].varianceNs2,
                     (100.0 * 4.0 + 300.0 * 8.0) / 400.0);

    EXPECT_EQ(merged[1].t, sim::milliseconds(200));
    EXPECT_EQ(merged[1].contributors, 1u);
    EXPECT_DOUBLE_EQ(merged[1].rpsObsv, 12.0);
}

TEST(FleetAggregatorTest, LatestSampleWinsWithinBucket)
{
    core::FleetAggregator agg(1, sim::milliseconds(100));
    agg.add(0, sampleAt(sim::milliseconds(110), 10.0, 100, 1.0, 0.9));
    agg.add(0, sampleAt(sim::milliseconds(190), 15.0, 150, 1.0, 0.8));
    const auto merged = agg.merged();
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_DOUBLE_EQ(merged[0].rpsObsv, 15.0);
}

// ---------------------------------------------------------------------
// Cluster harness.

TEST(TenantScopedAgentTest, StampsProbeLossOnEveryWindow)
{
    // Missed probe runs must reach every emitted sample's health whether
    // or not the loss-aware correction is on: FleetController's
    // staleness guard reads degraded() off the latest sample.
    sim::Simulation sim(5);
    workload::Machine machine(sim);
    const auto wl = workload::workloadByName("img-dnn");
    workload::ServerApp &app = machine.addTenant(wl);
    client::ClientConfig cc;
    cc.offeredRps = 0.5 * wl.saturationRps;
    cc.warmup = 0;
    client::LoadGenerator gen(sim, app, net::NetemConfig{}, net::TcpConfig{},
                              cc);
    fault::FaultPlan plan;
    plan.probeMissProbability = 0.05;
    fault::FaultInjector inj(plan, sim.forkRng());
    core::AgentConfig ac;
    ASSERT_FALSE(ac.lossAware);
    core::ObservabilityAgent agent(
        machine.kernel(), {{wl.name, app.frontPid(), core::profileFor(wl)}},
        ac);
    agent.runtime().setFaultInjector(&inj);
    machine.start();
    agent.start();
    gen.start();
    sim.runFor(sim::seconds(2));

    const std::vector<core::MetricsSample> &samples =
        agent.tenant(0).samples();
    ASSERT_FALSE(samples.empty());
    std::uint64_t prev = 0;
    for (const core::MetricsSample &s : samples) {
        EXPECT_TRUE(s.health.degraded());
        EXPECT_GT(s.health.probeMisses, prev);
        prev = s.health.probeMisses;
    }
    EXPECT_EQ(agent.health().probeMisses, prev);
    EXPECT_LE(prev, agent.runtime().probeMisses());
    EXPECT_EQ(agent.health().lossCorrectedEvents, 0u);
}

/** Two img-dnn tenants on one machine, at @p frac_a and @p frac_b of
 *  saturation, each behind its own client. */
struct TwoTenantMachine
{
    sim::Simulation sim{5};
    workload::Machine machine{sim};
    workload::WorkloadConfig wl = workload::workloadByName("img-dnn");
    workload::ServerApp &a = machine.addTenant(wl);
    workload::ServerApp &b = machine.addTenant(wl);
    client::LoadGenerator genA;
    client::LoadGenerator genB;

    TwoTenantMachine(double frac_a, double frac_b)
        : genA(sim, a, net::NetemConfig{}, net::TcpConfig{},
               clientAt(frac_a)),
          genB(sim, b, net::NetemConfig{}, net::TcpConfig{},
               clientAt(frac_b))
    {}

    client::ClientConfig
    clientAt(double frac) const
    {
        client::ClientConfig cc;
        cc.offeredRps = frac * wl.saturationRps;
        cc.warmup = 0;
        return cc;
    }

    std::vector<core::TenantBinding>
    bindings() const
    {
        return {{"a", a.frontPid(), core::profileFor(wl)},
                {"b", b.frontPid(), core::profileFor(wl)}};
    }

    void
    start(core::ObservabilityAgent &agent)
    {
        machine.start();
        agent.start();
        genA.start();
        genB.start();
    }
};

TEST(TenantScopedAgentTest, ZeroedSlotTearsExactlyOneTick)
{
    // A cumulative counter moving backwards (here one tenant's send slot
    // zeroed, as a wiped map would be) must tear that tick's windows:
    // one discontinuity and nothing emitted, rather than a wrapped
    // window reaching the estimators and the other tenants' loss shares.
    TwoTenantMachine m(0.3, 0.3);
    core::AgentConfig ac;
    ac.minWindowSyscalls = 32; // every tick emits for both tenants
    core::ObservabilityAgent agent(m.machine.kernel(), m.bindings(), ac);
    m.start(agent);
    m.sim.runFor(sim::milliseconds(1050));
    const std::size_t before[2] = {agent.tenant(0).samples().size(),
                                   agent.tenant(1).samples().size()};
    ASSERT_GT(before[0], 5u);
    ASSERT_GT(before[1], 5u);

    ebpf::EbpfRuntime::MapSnapshot wipe;
    wipe["send.stats"] = agent.runtime().snapshotMaps().at("send.stats");
    std::vector<std::uint8_t> &slot0 = wipe["send.stats"].entries.at(0).second;
    std::fill(slot0.begin(), slot0.end(), 0);
    agent.runtime().restoreMaps(wipe);
    const sim::Tick wiped_at = m.sim.now();
    m.sim.runFor(sim::seconds(1));

    EXPECT_EQ(agent.health().discontinuities, 1u);
    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        const std::vector<core::MetricsSample> &samples =
            agent.tenant(i).samples();
        EXPECT_GT(samples.size(), before[i] + 5);
        for (const core::MetricsSample &s : samples) {
            EXPECT_GT(s.rpsObsv, 0.0);
            EXPECT_FALSE(s.t > wiped_at && s.t <= wiped_at + ac.samplePeriod)
                << "window emitted at the torn tick " << s.t;
        }
    }
}

TEST(TenantScopedAgentTest, TopTenantsRanksTheNoisiestFirst)
{
    // Slot 1 sends at ten times slot 0's rate; the in-kernel sketch
    // must rank it first without userspace reading any stats slot.
    TwoTenantMachine m(0.05, 0.5);
    core::AgentConfig ac;
    ac.heavyHitterSketch = true;
    core::ObservabilityAgent agent(m.machine.kernel(), m.bindings(), ac);
    m.start(agent);
    m.sim.runFor(sim::seconds(1));

    const auto top = agent.topTenants(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].first, 1u);
    EXPECT_EQ(top[1].first, 0u);
    EXPECT_GT(top[0].second, 5 * top[1].second);
    EXPECT_GT(top[1].second, 0u);
    EXPECT_EQ(agent.topTenants(1).size(), 1u);
}

TEST(ClusterExperimentTest, DegenerateCaseMatchesRunExperimentExactly)
{
    core::ClusterExperimentConfig cc;
    core::ClusterTenantSpec spec;
    spec.workload = workload::workloadByName("img-dnn");
    spec.offeredRps = 500.0;
    spec.requests = 800;
    cc.tenants.push_back(spec);
    cc.seed = 11;
    ASSERT_TRUE(core::isDegenerateCluster(cc));

    core::ExperimentConfig ec;
    ec.workload = spec.workload;
    ec.offeredRps = spec.offeredRps;
    ec.requests = spec.requests;
    ec.seed = 11;

    const auto cluster = core::runClusterExperiment(cc);
    const auto single = core::runExperiment(ec);

    ASSERT_EQ(cluster.tenants.size(), 1u);
    const auto &t = cluster.tenants[0];
    EXPECT_DOUBLE_EQ(t.achievedRps, single.achievedRps);
    EXPECT_DOUBLE_EQ(t.observedRps, single.observedRps);
    EXPECT_EQ(t.completed, single.completed);
    EXPECT_EQ(t.p99Ns, single.p99Ns);
    EXPECT_EQ(cluster.syscalls, single.syscalls);
    EXPECT_EQ(cluster.probeEvents, single.probeEvents);
}

TEST(ClusterExperimentTest, DegenerateRunReportsSlotAndTenantCounts)
{
    // web-search runs a front and a back-end process. Like every other
    // cluster shape, the degenerate path must report the slot's
    // cumulative send count and the front process's own syscalls, not
    // the emitted windows' sum and the whole kernel's count.
    core::ClusterExperimentConfig cc;
    core::ClusterTenantSpec spec;
    spec.workload = workload::workloadByName("web-search");
    spec.offeredRps = 0.5 * spec.workload.saturationRps;
    spec.requests = 800;
    cc.tenants.push_back(spec);
    cc.seed = 5;
    ASSERT_TRUE(core::isDegenerateCluster(cc));

    core::ExperimentConfig ec;
    ec.workload = spec.workload;
    ec.offeredRps = spec.offeredRps;
    ec.requests = spec.requests;
    ec.seed = 5;

    const auto cluster = core::runClusterExperiment(cc);
    const auto single = core::runExperiment(ec);
    const core::TenantMachineResult &m = cluster.tenants.at(0).machines.at(0);

    std::uint64_t windowed = 0;
    for (const core::MetricsSample &s : single.samples)
        windowed += s.send.count;
    // The last window is still accumulating when the run ends.
    EXPECT_GT(m.probeSendSyscalls, windowed);
    EXPECT_LT(m.probeSendSyscalls, m.kernelSyscalls);
    // The back end's syscalls are not the tenant front's.
    EXPECT_GT(m.kernelSyscalls, 0u);
    EXPECT_LT(m.kernelSyscalls, cluster.syscalls);
}

TEST(ClusterExperimentTest, CoLocatedTenantsGetSeparateAccurateMetrics)
{
    core::ClusterExperimentConfig cc;
    for (const auto &spec :
         {std::pair<const char *, double>{"img-dnn", 400.0},
          std::pair<const char *, double>{"xapian", 250.0}}) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(spec.first);
        t.offeredRps = spec.second;
        t.requests = 900;
        cc.tenants.push_back(std::move(t));
    }
    cc.seed = 5;

    const auto res = core::runClusterExperiment(cc);
    ASSERT_EQ(res.tenants.size(), 2u);
    for (const auto &t : res.tenants) {
        ASSERT_EQ(t.machines.size(), 1u);
        const auto &m = t.machines[0];
        // The verified bytecode attributed events to this tenant's slot,
        // and they are a subset of the kernel's own per-tgid count.
        EXPECT_GT(m.probeSendSyscalls, 0u);
        EXPECT_LT(m.probeSendSyscalls, m.kernelSyscalls);
        // Eq. 1 per tenant tracks that tenant's achieved rate.
        EXPECT_GT(m.samples, 0u);
        EXPECT_NEAR(t.observedRps, t.achievedRps, 0.15 * t.achievedRps);
    }
    // The two tenants' estimates are genuinely separate streams.
    EXPECT_NEAR(res.tenants[0].observedRps, 400.0, 80.0);
    EXPECT_NEAR(res.tenants[1].observedRps, 250.0, 50.0);
}

TEST(ClusterExperimentTest, FleetSpreadsLoadAndAggregates)
{
    core::ClusterExperimentConfig cc;
    core::ClusterTenantSpec t;
    t.workload = workload::workloadByName("img-dnn");
    t.offeredRps = 900.0; // fleet aggregate over 2 machines
    t.requests = 1200;
    cc.tenants.push_back(std::move(t));
    cc.machines = 2;
    cc.seed = 13;

    const auto res = core::runClusterExperiment(cc);
    ASSERT_EQ(res.tenants.size(), 1u);
    const auto &tr = res.tenants[0];
    ASSERT_EQ(tr.machines.size(), 2u);
    // Round-robin splits the arrivals roughly evenly.
    for (const auto &m : tr.machines)
        EXPECT_NEAR(m.achievedRps, 450.0, 90.0);
    // The merged series carries full-fleet buckets whose rate is the
    // fleet rate, not one machine's.
    bool saw_full_bucket = false;
    for (const auto &s : tr.fleetSeries) {
        if (s.contributors == 2 && s.rpsObsv > 700.0)
            saw_full_bucket = true;
    }
    EXPECT_TRUE(saw_full_bucket);
    EXPECT_NEAR(tr.observedRps, tr.achievedRps, 0.15 * tr.achievedRps);
}

TEST(ClusterExperimentTest, AntagonistStaysOutOfTenantCounters)
{
    core::ClusterExperimentConfig cc;
    core::ClusterTenantSpec t;
    t.workload = workload::workloadByName("img-dnn");
    t.offeredRps = 400.0;
    t.requests = 700;
    cc.tenants.push_back(std::move(t));
    cc.antagonist = true; // busy co-resident with a foreign tgid
    cc.seed = 17;

    const auto res = core::runClusterExperiment(cc);
    const auto &m = res.tenants[0].machines[0];
    // The antagonist syscalls (nanosleep gaps) raise the machine's
    // total, but the tenant slot still only sees tenant traffic.
    EXPECT_GT(res.syscalls, m.kernelSyscalls);
    EXPECT_GT(m.probeSendSyscalls, 0u);
    EXPECT_NEAR(res.tenants[0].observedRps, res.tenants[0].achievedRps,
                0.15 * res.tenants[0].achievedRps);
}

// ---------------------------------------------------------------------
// Cluster sweeps on the worker pool.

/**
 * Three non-degenerate configs that exercise different cluster paths:
 * two tenants behind least-connections balancing over a lossy network,
 * a co-located CPU antagonist, and the discrete scheduler with runqlat
 * probes.
 */
std::vector<core::ClusterExperimentConfig>
batchConfigs()
{
    core::ClusterTenantSpec img;
    img.workload = workload::workloadByName("img-dnn");
    img.offeredRps = 400.0;
    img.requests = 500;
    core::ClusterTenantSpec xapian = img;
    xapian.workload = workload::workloadByName("xapian");
    xapian.offeredRps = 300.0;

    core::ClusterExperimentConfig base;
    base.tenants = {img};
    // Short runs: close windows early so every fleet series is filled.
    base.agent.minWindowSyscalls = 64;

    std::vector<core::ClusterExperimentConfig> out(3, base);
    out[0].tenants = {img, xapian};
    out[0].machines = 3;
    out[0].lbPolicy = net::LbPolicy::LeastConnections;
    out[0].netem.delay = sim::microseconds(100);
    out[0].netem.jitter = sim::microseconds(20);
    out[0].netem.lossProbability = 0.005;
    out[0].seed = 23;
    out[1].antagonist = true;
    out[1].seed = 29;
    out[2].machines = 2;
    out[2].sched = kernel::SchedModel::Discrete;
    out[2].agent.runqlatHistogram = true;
    out[2].seed = 31;
    return out;
}

TEST(ClusterBatchTest, PoolBatchesMatchSerialRunsAndNestInline)
{
    const auto configs = batchConfigs();
    std::vector<std::string> serial;
    for (const auto &cc : configs) {
        ASSERT_FALSE(core::isDegenerateCluster(cc));
        serial.push_back(test::clusterBytes(core::runClusterExperiment(cc)));
    }

    for (unsigned threads : {1u, 2u, 4u}) {
        const auto res = core::runClusterExperimentsParallel(configs, threads);
        ASSERT_EQ(res.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i)
            EXPECT_EQ(serial[i], test::clusterBytes(res[i]))
                << "threads=" << threads << " config=" << i;
    }

    // A cluster sweep launched from inside a pool job must run inline on
    // that job's thread instead of waiting on the busy pool.
    std::vector<std::vector<core::ClusterExperimentResult>> nested(2);
    core::poolRun(nested.size(), 2, [&](std::size_t j) {
        nested[j] = core::runClusterExperimentsParallel(configs, 4);
    });
    for (std::size_t j = 0; j < nested.size(); ++j) {
        ASSERT_EQ(nested[j].size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i)
            EXPECT_EQ(serial[i], test::clusterBytes(nested[j][i]))
                << "job=" << j << " config=" << i;
    }
}

} // namespace
} // namespace reqobs
