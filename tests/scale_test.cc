/**
 * @file
 * The batched event pipeline and its supporting cast: fireBatch versus
 * per-event dispatch must be observationally identical under both
 * engines (including the event-major fallback when probes share state),
 * the native compiler must cover the whole probe library and every
 * probe the agents build, per-CPU array shards must fold to the
 * unsharded totals, and the persistent worker pool must return
 * bit-identical experiment results across reuse while keeping each
 * batch to its thread budget, and experiments sharing the pool must
 * share no mutable state.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/agent.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "core/profile.hh"
#include "core/tenant_metrics.hh"
#include "ebpf/assembler.hh"
#include "ebpf/maps.hh"
#include "ebpf/native.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/config.hh"

namespace reqobs {
namespace {

using kernel::RawSyscallBatch;
using kernel::RawSyscallEvent;
using kernel::TracepointId;

constexpr std::int64_t kSendto = 44;
constexpr std::int64_t kEpollWait = 232;

/** A kernel + runtime with the tenant probe set attached. */
struct Rig
{
    sim::Simulation sim{1};
    std::unique_ptr<kernel::Kernel> kernel;
    std::unique_ptr<ebpf::EbpfRuntime> rt;
    ebpf::probes::DurationMaps dur;
    ebpf::probes::DeltaMaps delta;
    int sketchFd = -1;

    explicit Rig(ebpf::ExecEngine engine, bool shared_stats = false)
    {
        kernel = std::make_unique<kernel::Kernel>(sim);
        ebpf::RuntimeConfig rc;
        rc.engine = engine;
        rt = std::make_unique<ebpf::EbpfRuntime>(*kernel, rc);
        ebpf::probes::TenantSet ts;
        ts.tgids = {1000, 2000};
        ts.pollSyscalls = {kEpollWait, kEpollWait};
        dur = ebpf::probes::createTenantDurationMaps(*rt, 2, "scale.dur");
        delta = ebpf::probes::createTenantDeltaMaps(*rt, 2, "scale.delta");
        sketchFd = ebpf::probes::createTenantSketchMap(*rt, 2, 4, "scale");
        auto v1 = rt->loadAndAttach(
            ebpf::probes::buildTenantDurationEnter(*rt, ts, dur),
            TracepointId::SysEnter);
        auto v2 = rt->loadAndAttach(
            ebpf::probes::buildTenantDurationExit(*rt, ts, dur),
            TracepointId::SysExit);
        auto v3 = rt->loadAndAttach(
            ebpf::probes::buildTenantDeltaExit(*rt, ts, {kSendto}, delta),
            TracepointId::SysExit);
        // shared_stats attaches a second probe writing the SAME stats
        // array: overlapping stateRefs force the event-major fallback.
        auto v4 = shared_stats
                      ? rt->loadAndAttach(ebpf::probes::buildTenantDeltaExit(
                                              *rt, ts, {kEpollWait}, delta),
                                          TracepointId::SysExit)
                      : rt->loadAndAttach(
                            ebpf::probes::buildTenantHeavyHitter(
                                *rt, ts, {kSendto}, sketchFd),
                            TracepointId::SysExit);
        EXPECT_TRUE(v1.ok && v2.ok && v3.ok && v4.ok);
    }
};

/** The deterministic event columns both dispatch paths consume. */
struct Columns
{
    std::vector<std::int64_t> sys, rets;
    std::vector<kernel::PidTgid> pids;
    std::vector<sim::Tick> enterTs, exitTs;
};

Columns
makeColumns(std::size_t n)
{
    Columns c;
    for (std::size_t i = 0; i < n; ++i) {
        c.sys.push_back(i % 3 == 0 ? kEpollWait
                                   : (i % 3 == 1 ? kSendto : 7));
        c.pids.push_back(kernel::makePidTgid(
            i % 4 == 3 ? 9999 : (i % 2 ? 1000 : 2000),
            1 + static_cast<std::uint32_t>(i % 5)));
        c.rets.push_back(i % 6 == 0 ? -11 : 64);
        c.enterTs.push_back(1000 + static_cast<sim::Tick>(i) * 300);
        c.exitTs.push_back(1000 + static_cast<sim::Tick>(n + i) * 300);
    }
    return c;
}

void
fireScalar(Rig &r, const Columns &c)
{
    RawSyscallEvent ev;
    ev.point = TracepointId::SysEnter;
    for (std::size_t i = 0; i < c.sys.size(); ++i) {
        ev.syscall = c.sys[i];
        ev.pidTgid = c.pids[i];
        ev.timestamp = c.enterTs[i];
        r.kernel->tracepoints().fire(ev);
    }
    ev.point = TracepointId::SysExit;
    for (std::size_t i = 0; i < c.sys.size(); ++i) {
        ev.syscall = c.sys[i];
        ev.ret = c.rets[i];
        ev.pidTgid = c.pids[i];
        ev.timestamp = c.exitTs[i];
        r.kernel->tracepoints().fire(ev);
    }
}

void
fireBatched(Rig &r, const Columns &c)
{
    RawSyscallBatch en;
    en.point = TracepointId::SysEnter;
    en.n = c.sys.size();
    en.syscalls = c.sys.data();
    en.pidTgids = c.pids.data();
    en.timestamps = c.enterTs.data();
    RawSyscallBatch ex = en;
    ex.point = TracepointId::SysExit;
    ex.rets = c.rets.data();
    ex.timestamps = c.exitTs.data();
    r.kernel->dispatchRawBatch(en);
    r.kernel->dispatchRawBatch(ex);
}

void
expectRigsEqual(const Rig &a, const Rig &b)
{
    EXPECT_EQ(a.rt->eventsProcessed(), b.rt->eventsProcessed());
    EXPECT_EQ(a.rt->insnsInterpreted(), b.rt->insnsInterpreted());
    EXPECT_EQ(a.rt->totalProbeCost(), b.rt->totalProbeCost());
    EXPECT_EQ(a.rt->mapUpdateFails(), b.rt->mapUpdateFails());
    for (std::uint32_t slot = 0; slot < 2; ++slot) {
        const auto sa = a.rt->arrayAt(a.dur.statsFd)
                            .at<ebpf::probes::SyscallStats>(slot);
        const auto sb = b.rt->arrayAt(b.dur.statsFd)
                            .at<ebpf::probes::SyscallStats>(slot);
        EXPECT_EQ(0, std::memcmp(&sa, &sb, sizeof(sa))) << slot;
        const auto da = a.rt->arrayAt(a.delta.statsFd)
                            .at<ebpf::probes::SyscallStats>(slot);
        const auto db = b.rt->arrayAt(b.delta.statsFd)
                            .at<ebpf::probes::SyscallStats>(slot);
        EXPECT_EQ(0, std::memcmp(&da, &db, sizeof(da))) << slot;
    }
    EXPECT_EQ(a.rt->sketchAt(a.sketchFd).topK(4),
              b.rt->sketchAt(b.sketchFd).topK(4));
}

class BatchPipeline : public ::testing::TestWithParam<ebpf::ExecEngine>
{};

TEST_P(BatchPipeline, BatchDispatchMatchesScalarDispatch)
{
    Rig scalar(GetParam()), batched(GetParam());
    const Columns c = makeColumns(512);
    fireScalar(scalar, c);
    fireBatched(batched, c);
    EXPECT_GT(batched.rt->eventsProcessed(), 0u);
    expectRigsEqual(scalar, batched);
}

TEST_P(BatchPipeline, SharedStateFallsBackToEventMajorAndStillMatches)
{
    // Two probes on the same stats array: probe-major execution would
    // reorder their interleaving, so fireBatch must detect the overlap
    // and run event-major. Outputs still match scalar exactly.
    Rig scalar(GetParam(), /*shared_stats=*/true);
    Rig batched(GetParam(), /*shared_stats=*/true);
    const Columns c = makeColumns(512);
    fireScalar(scalar, c);
    fireBatched(batched, c);
    expectRigsEqual(scalar, batched);
}

INSTANTIATE_TEST_SUITE_P(Engines, BatchPipeline,
                         ::testing::Values(ebpf::ExecEngine::Reference,
                                           ebpf::ExecEngine::Native));

TEST(BatchPipeline, AttachBetweenBatchesInvalidatesThePlan)
{
    Rig r(ebpf::ExecEngine::Native);
    const Columns c = makeColumns(64);
    fireBatched(r, c);
    const std::uint64_t events_before = r.rt->eventsProcessed();

    // A probe attached after the first burst must see the next one.
    ebpf::probes::DurationMaps extra =
        ebpf::probes::createDurationMaps(*r.rt, "late");
    const auto vr = r.rt->loadAndAttach(
        ebpf::probes::buildDurationEnter(*r.rt, 1000, kEpollWait, extra),
        TracepointId::SysEnter);
    ASSERT_TRUE(vr.ok);
    fireBatched(r, c);
    const std::uint64_t per_burst = events_before;
    EXPECT_EQ(r.rt->eventsProcessed(), events_before + per_burst + 64);
}

TEST(BatchPipeline, BatchAccountingMatchesScalarKernelCounters)
{
    Rig r(ebpf::ExecEngine::Native);
    const Columns c = makeColumns(128);
    fireBatched(r, c);
    // dispatchRawBatch does the same per-syscall accounting fireEnter
    // does: total count and the per-tgid breakdown.
    EXPECT_EQ(r.kernel->syscallCount(), 128u);
    std::uint64_t by_tgid = 0;
    for (const auto &[tgid, n] : r.kernel->syscallsByTgid())
        by_tgid += n;
    EXPECT_EQ(by_tgid, 128u);
}

TEST(NativeEngine, CompilesTheEntireProbeLibrary)
{
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    ebpf::RuntimeConfig rc;
    rc.engine = ebpf::ExecEngine::Native;
    ebpf::EbpfRuntime rt(kernel, rc);
    ebpf::probes::TenantSet ts;
    ts.tgids = {1000, 2000, 3000};
    ts.pollSyscalls = {kEpollWait, kEpollWait, 7};
    const auto dur = ebpf::probes::createDurationMaps(rt, "lib");
    const auto durT = ebpf::probes::createTenantDurationMaps(rt, 3, "libt");
    const auto delta = ebpf::probes::createDeltaMaps(rt, "lib");
    const auto deltaT = ebpf::probes::createTenantDeltaMaps(rt, 3, "libtd");
    const auto stream = ebpf::probes::createStreamMaps(rt, 1 << 12, "lib");
    const int sketch = ebpf::probes::createTenantSketchMap(rt, 2, 8, "lib");

    std::vector<ebpf::ProgramSpec> lib;
    lib.push_back(ebpf::probes::buildDurationEnter(rt, 1000, 232, dur));
    lib.push_back(ebpf::probes::buildDurationExit(rt, 1000, 232, dur));
    lib.push_back(ebpf::probes::buildDurationExit(
        rt, 1000, 232, dur, ebpf::probes::kDeltaShift, true));
    lib.push_back(ebpf::probes::buildDeltaExit(rt, 1000, {44, 45}, delta));
    lib.push_back(ebpf::probes::buildDeltaExit(
        rt, 1000, {44, 45}, delta, ebpf::probes::kDeltaShift, true));
    lib.push_back(
        ebpf::probes::buildTenantDeltaExit(rt, ts, {44, 45}, deltaT));
    lib.push_back(ebpf::probes::buildTenantDeltaExit(
        rt, ts, {44}, deltaT, ebpf::probes::kDeltaShift, true));
    lib.push_back(ebpf::probes::buildTenantDurationEnter(rt, ts, durT));
    lib.push_back(ebpf::probes::buildTenantDurationExit(rt, ts, durT));
    lib.push_back(ebpf::probes::buildTenantDurationExit(
        rt, ts, durT, ebpf::probes::kDeltaShift, true));
    lib.push_back(
        ebpf::probes::buildTenantHeavyHitter(rt, ts, {44, 45}, sketch));
    lib.push_back(ebpf::probes::buildStreamProbe(rt, 1000, false, stream));
    lib.push_back(ebpf::probes::buildStreamProbe(rt, 1000, true, stream));

    for (auto &spec : lib) {
        ebpf::NativeProgram np;
        EXPECT_TRUE(ebpf::compileNative(spec, &np)) << spec.name;
        EXPECT_NE(np.fn, nullptr) << spec.name;
        const auto point = spec.name.find("enter") != std::string::npos
                               ? TracepointId::SysEnter
                               : TracepointId::SysExit;
        const auto vr = rt.loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    }
    EXPECT_EQ(rt.nativePrograms(), rt.loadedPrograms());
    EXPECT_EQ(rt.loadedPrograms(), lib.size());
}

/**
 * Every probe the agents build compiles native, whatever name the
 * agent gives it: the single-tenant agent's four and the multi-tenant
 * agent's eight (sketch and runqlat pair included), plain and guarded.
 */
TEST(NativeEngine, EveryAgentProbeCompilesNative)
{
    auto expectAllNative = [](ebpf::EbpfRuntime &rt, std::size_t n) {
        EXPECT_EQ(rt.loadedPrograms(), n);
        EXPECT_EQ(rt.nativePrograms(), rt.loadedPrograms());
        for (const auto &pc : rt.probeCounters())
            EXPECT_FALSE(pc.shape.empty()) << pc.name << " interpreted";
    };
    for (bool guarded : {false, true}) {
        SCOPED_TRACE(guarded ? "guarded" : "plain");
        sim::Simulation sim(1);
        kernel::Kernel kernel(sim);
        core::AgentConfig cfg;
        cfg.guardedProbes = guarded;
        cfg.heavyHitterSketch = true;
        cfg.runqlatHistogram = true;

        core::ObservabilityAgent single(
            kernel, 1000,
            core::profileFor(workload::workloadByName("data-caching")), cfg);
        single.start();
        expectAllNative(single.runtime(), 4);

        std::vector<core::TenantBinding> tenants;
        kernel::Pid tgid = 2000;
        for (const char *name : {"img-dnn", "xapian", "silo"}) {
            tenants.push_back({name, tgid++,
                               core::profileFor(
                                   workload::workloadByName(name))});
        }
        core::MultiTenantAgent multi(kernel, tenants, cfg);
        multi.start();
        expectAllNative(multi.runtime(), 8);
    }
}

TEST(NativeEngine, NonLibraryProgramFallsBackToTheInterpreter)
{
    // A verified but non-library program under the Native engine must
    // run on the reference interpreter with identical observations.
    auto runOne = [](ebpf::ExecEngine engine) {
        sim::Simulation sim(1);
        kernel::Kernel kernel(sim);
        ebpf::RuntimeConfig rc;
        rc.engine = engine;
        auto rt = std::make_unique<ebpf::EbpfRuntime>(kernel, rc);
        // ctx->id into r0 via two redundant moves: semantically trivial
        // but byte-matching no library probe.
        ebpf::ProgramSpec spec;
        spec.name = "custom";
        ebpf::ProgramBuilder b;
        b.ldxdw(ebpf::R2, ebpf::R1, 0)
            .mov(ebpf::R3, ebpf::R2)
            .mov(ebpf::R0, ebpf::R3)
            .exit_();
        spec.insns = b.build();
        const auto vr = rt->loadAndAttach(std::move(spec),
                                          TracepointId::SysEnter);
        EXPECT_TRUE(vr.ok) << vr.error;
        RawSyscallEvent ev;
        ev.syscall = 1;
        ev.pidTgid = kernel::makePidTgid(10, 11);
        for (int i = 0; i < 50; ++i) {
            ev.timestamp = 100 + i;
            kernel.tracepoints().fire(ev);
        }
        struct Out
        {
            std::size_t native;
            std::string shape;
            std::uint64_t events, insns;
            std::int64_t cost;
        };
        return Out{rt->nativePrograms(), rt->probeCounters().at(0).shape,
                   rt->eventsProcessed(), rt->insnsInterpreted(),
                   rt->totalProbeCost()};
    };
    const auto nat = runOne(ebpf::ExecEngine::Native);
    const auto ref = runOne(ebpf::ExecEngine::Reference);
    EXPECT_EQ(nat.native, 0u);
    EXPECT_EQ(nat.shape, "");
    EXPECT_EQ(nat.events, 50u);
    EXPECT_EQ(nat.events, ref.events);
    EXPECT_EQ(nat.insns, ref.insns);
    EXPECT_EQ(nat.cost, ref.cost);
}

TEST(PerCpuArrayMapTest, ShardsAreIndependentAndFoldToTheTotal)
{
    ebpf::PerCpuArrayMap m(8, 2, 4, "t");
    EXPECT_EQ(m.cpus(), 4u);

    // Userspace update writes every shard (bpf syscall semantics).
    const std::uint32_t key = 1;
    const std::uint64_t seed = 100;
    EXPECT_EQ(0, m.put(key, seed));
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu)
        EXPECT_EQ(m.shardAt<std::uint64_t>(cpu, key), seed);

    // In-kernel writes through lookupShard stay shard-private.
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
        auto *p = m.lookupShard(
            reinterpret_cast<const std::uint8_t *>(&key), cpu);
        ASSERT_NE(p, nullptr);
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        v += cpu;
        std::memcpy(p, &v, 8);
    }
    std::uint64_t total = 0;
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu)
        total += m.shardAt<std::uint64_t>(cpu, key);
    EXPECT_EQ(total, 4 * seed + 0 + 1 + 2 + 3);

    // lookup() is shard 0; cpu wraps mod cpus; erase is -EINVAL.
    std::uint64_t shard0;
    std::memcpy(&shard0,
                m.lookup(reinterpret_cast<const std::uint8_t *>(&key)), 8);
    EXPECT_EQ(shard0, seed);
    EXPECT_EQ(m.shardAt<std::uint64_t>(5, key),
              m.shardAt<std::uint64_t>(1, key));
    EXPECT_EQ(m.remove(key), -22);

    // Out-of-range slot: null lookup, update rejected with -E2BIG.
    const std::uint32_t bad = 7;
    EXPECT_EQ(m.lookupShard(reinterpret_cast<const std::uint8_t *>(&bad),
                            0),
              nullptr);
    EXPECT_EQ(m.put(bad, seed), -7);
}

TEST(WorkerPoolTest, ReusedPoolReturnsBitIdenticalResults)
{
    core::ExperimentConfig base;
    base.workload = workload::workloadByName("img-dnn");
    base.seed = 3;
    base.offeredRps = 0.25 * base.workload.saturationRps;
    base.requests = 400;
    base.warmup = sim::milliseconds(20);

    std::vector<core::ExperimentConfig> configs;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        configs.push_back(base);
        configs.back().seed = s;
    }

    const auto serial = core::runExperimentsParallel(configs, 1);
    // Two parallel calls back to back reuse the persistent pool's
    // threads; both must match the serial run exactly.
    const auto par1 = core::runExperimentsParallel(configs, 3);
    const auto par2 = core::runExperimentsParallel(configs, 3);
    ASSERT_EQ(serial.size(), 3u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].completed, par1[i].completed) << i;
        EXPECT_EQ(serial[i].p99Ns, par1[i].p99Ns) << i;
        EXPECT_EQ(serial[i].syscalls, par1[i].syscalls) << i;
        EXPECT_EQ(serial[i].probeInsns, par1[i].probeInsns) << i;
        EXPECT_EQ(par1[i].completed, par2[i].completed) << i;
        EXPECT_EQ(par1[i].p99Ns, par2[i].p99Ns) << i;
        EXPECT_EQ(par1[i].syscalls, par2[i].syscalls) << i;
        EXPECT_EQ(par1[i].probeInsns, par2[i].probeInsns) << i;
    }
    EXPECT_GE(core::effectiveParallelJobs(3), 1u);
    EXPECT_LE(core::effectiveParallelJobs(3), 3u);
}

TEST(WorkerPoolTest, NarrowBatchAfterWideBatchKeepsItsThreadBudget)
{
    // Ids of the threads that ran any index of one poolRun batch.
    auto threadsUsed = [](unsigned threads) {
        std::mutex mu;
        std::set<std::thread::id> ids;
        core::poolRun(64, threads, [&](std::size_t) {
            // Long enough for every woken pool thread to claim an index.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        });
        return ids;
    };

    threadsUsed(4); // grows the pool to three threads besides the caller
    EXPECT_LE(threadsUsed(2).size(), 2u);
    const auto one = threadsUsed(1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(*one.begin(), std::this_thread::get_id());
}

/** Exact rendering of one experiment's results (hex floats). */
std::string
experimentBytes(const core::ExperimentResult &r)
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%a %a %a c=%llu p=%llu/%llu/%llu v=%a/%a poll=%a "
                  "sys=%llu pe=%llu pi=%llu pc=%lld\n",
                  r.offeredRps, r.achievedRps, r.observedRps,
                  (unsigned long long)r.completed,
                  (unsigned long long)r.p50Ns, (unsigned long long)r.p95Ns,
                  (unsigned long long)r.p99Ns, r.sendVarNs2, r.recvVarNs2,
                  r.pollMeanDurNs, (unsigned long long)r.syscalls,
                  (unsigned long long)r.probeEvents,
                  (unsigned long long)r.probeInsns, (long long)r.probeCostNs);
    out += buf;
    for (const core::MetricsSample &m : r.samples) {
        std::snprintf(buf, sizeof(buf), " t=%lld %a %llu %a %a %a %d\n",
                      (long long)m.t, m.rpsObsv,
                      (unsigned long long)m.send.count, m.send.varianceNs2,
                      m.pollMeanDurNs, m.slack, (int)m.saturated);
        out += buf;
    }
    return out;
}

TEST(WorkerPoolTest, TwoStageSweepOnPoolThreadsMatchesSerialRuns)
{
    // web-search's two-stage server links its stages with
    // Kernel::socketPair, whose connection ids are per-kernel state:
    // concurrent experiments must neither race on them nor see ids that
    // depend on what ran before (TSan checks the former here).
    core::ExperimentConfig base;
    base.workload = workload::workloadByName("web-search");
    base.seed = 5;
    base.warmup = sim::milliseconds(10);
    core::SweepScaling scaling;
    scaling.requestsPerRps = 0.0;
    scaling.minRequests = 250;
    scaling.maxRequests = 250;
    const std::vector<double> fractions = {0.3, 0.6, 0.9, 1.2};

    const auto serial = core::runSweepParallel(base, fractions, scaling, 1);
    const auto pooled = core::runSweepParallel(base, fractions, scaling, 2);
    ASSERT_EQ(serial.size(), fractions.size());
    ASSERT_EQ(pooled.size(), fractions.size());
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        EXPECT_GT(serial[i].result.completed, 0u) << i;
        EXPECT_EQ(experimentBytes(pooled[i].result),
                  experimentBytes(serial[i].result))
            << i;
    }
}

} // namespace
} // namespace reqobs
