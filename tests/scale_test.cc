/**
 * @file
 * Native-engine coverage and the persistent worker pool: the native
 * compiler must cover the whole probe library and every probe the
 * agents build, a non-library program must fall back to the reference
 * interpreter with identical observations, and the worker pool must
 * return bit-identical experiment results across reuse while keeping
 * each batch to its thread budget, and experiments sharing the pool
 * must share no mutable state.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
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
#include "ebpf/native.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/config.hh"

namespace reqobs {
namespace {

using kernel::RawSyscallEvent;
using kernel::TracepointId;

constexpr std::int64_t kEpollWait = 232;

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
