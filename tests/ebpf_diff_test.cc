/**
 * @file
 * Differential test between the two eBPF execution engines: the
 * reference interpreter (decode-per-execution, the oracle) and the
 * native engine (library probes compiled to shape-specialised C++
 * kernels, everything else on the interpreter). The engines must be
 * observationally identical: same r0, same retired-instruction counts
 * (the probe cost model feeds on them), same map contents, same
 * ring-buffer payloads, same failure counters.
 *
 * Two angles:
 *  - the probe library end to end: one simulated kernel per engine, fed
 *    an identical syscall event stream through the full library —
 *    Listing-1 duration pair (plain and guarded), delta and
 *    tenant-delta probes, tenant duration pair, heavy-hitter sketch,
 *    stream probes and the runqlat pair — including clock-inverted and
 *    negative-ret events so the guarded skip paths execute;
 *  - whole harness runs: a figure-sweep point, a front-door storm, a
 *    fault-injected run, a co-location cluster and a discrete-sched
 *    fleet, each run once per engine and required to produce
 *    byte-identical results.
 *
 * Fuzzed programs never compile native; tests/ebpf_fuzz_test.cc checks
 * that the recognisers reject them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster_bytes.hh"
#include "core/cluster.hh"
#include "core/experiment.hh"
#include "ebpf/maps.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/config.hh"

namespace reqobs::ebpf {
namespace {

/** Full content snapshot of a hash map, in key order. */
std::map<std::string, std::string>
hashSnapshot(const HashMap &m)
{
    std::map<std::string, std::string> out;
    const std::uint32_t ks = m.keySize(), vs = m.valueSize();
    m.forEach([&](const std::uint8_t *k, const std::uint8_t *v) {
        out.emplace(std::string(reinterpret_cast<const char *>(k), ks),
                    std::string(reinterpret_cast<const char *>(v), vs));
    });
    return out;
}

/** Full content snapshot of an array map. */
std::vector<std::string>
arraySnapshot(ArrayMap &m)
{
    std::vector<std::string> out;
    for (std::uint32_t i = 0; i < m.maxEntries(); ++i) {
        const std::uint8_t *v =
            m.lookup(reinterpret_cast<const std::uint8_t *>(&i));
        out.emplace_back(reinterpret_cast<const char *>(v), m.valueSize());
    }
    return out;
}

/**
 * Slot-exact snapshot of a sketch, in stage-major slot order. Eviction
 * decisions depend on resident counts, so the slightest divergence in
 * update order or arithmetic between the engines shows up here.
 */
std::vector<std::pair<std::string, std::string>>
sketchSnapshot(const SketchMap &m)
{
    std::vector<std::pair<std::string, std::string>> out;
    const std::uint32_t ks = m.keySize();
    m.forEach([&](const std::uint8_t *k, const std::uint8_t *c) {
        out.emplace_back(std::string(reinterpret_cast<const char *>(k), ks),
                         std::string(reinterpret_cast<const char *>(c), 8));
    });
    return out;
}

/** One engine's full probe-library stack fed by raw syscall events. */
struct ProbeStack
{
    sim::Simulation sim{1};
    std::unique_ptr<kernel::Kernel> kernel;
    std::unique_ptr<EbpfRuntime> rt;
    probes::DurationMaps dur;
    probes::DurationMaps durGuarded;
    probes::DurationMaps durTenant;
    probes::DeltaMaps delta;
    probes::DeltaMaps deltaTenant;
    probes::StreamMaps stream;
    int sketchFd = -1;

    explicit ProbeStack(ExecEngine engine)
    {
        kernel = std::make_unique<kernel::Kernel>(sim);
        RuntimeConfig rc;
        rc.engine = engine;
        rt = std::make_unique<EbpfRuntime>(*kernel, rc);
        probes::TenantSet tenants;
        tenants.tgids = {1000, 2000};
        tenants.pollSyscalls = {232, 232};
        dur = probes::createDurationMaps(*rt, "diff");
        durGuarded = probes::createDurationMaps(*rt, "diffg");
        durTenant = probes::createTenantDurationMaps(*rt, 2, "difft");
        delta = probes::createDeltaMaps(*rt, "diff");
        deltaTenant = probes::createTenantDeltaMaps(*rt, 2, "difftd");
        stream = probes::createStreamMaps(*rt, 1 << 14, "diff");
        // Undersized sketch so both tenants fight over slots and the
        // engines must agree on every eviction.
        sketchFd = probes::createTenantSketchMap(*rt, 2, 2, "diff");
        attach(probes::buildDurationEnter(*rt, 1000, 232, dur),
               kernel::TracepointId::SysEnter);
        attach(probes::buildDurationExit(*rt, 1000, 232, dur),
               kernel::TracepointId::SysExit);
        // Guarded pair on the other tgid: the clock-inverted events in
        // the stream exercise its skip path.
        attach(probes::buildDurationEnter(*rt, 2000, 232, durGuarded),
               kernel::TracepointId::SysEnter);
        attach(probes::buildDurationExit(*rt, 2000, 232, durGuarded,
                                         probes::kDeltaShift, true),
               kernel::TracepointId::SysExit);
        attach(probes::buildTenantDurationEnter(*rt, tenants, durTenant),
               kernel::TracepointId::SysEnter);
        attach(probes::buildTenantDurationExit(*rt, tenants, durTenant,
                                               probes::kDeltaShift, true),
               kernel::TracepointId::SysExit);
        attach(probes::buildDeltaExit(*rt, 1000, {44}, delta),
               kernel::TracepointId::SysExit);
        attach(probes::buildTenantDeltaExit(*rt, tenants, {44, 0},
                                            deltaTenant),
               kernel::TracepointId::SysExit);
        attach(probes::buildStreamProbe(*rt, 1000, false, stream),
               kernel::TracepointId::SysEnter);
        attach(probes::buildStreamProbe(*rt, 1000, true, stream),
               kernel::TracepointId::SysExit);
        attach(probes::buildTenantHeavyHitter(*rt, tenants, {44}, sketchFd),
               kernel::TracepointId::SysExit);
    }

    void
    attach(ProgramSpec spec, kernel::TracepointId point)
    {
        const auto vr = rt->loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    }

    void fire(const kernel::RawSyscallEvent &ev)
    {
        kernel->tracepoints().fire(ev);
    }
};

/** Every probe-visible observation of @p a must equal @p b's. */
void
expectStacksEqual(ProbeStack &a, ProbeStack &b, const char *label)
{
    SCOPED_TRACE(label);

    // Aggregate accounting must agree exactly: the probe cost model is
    // driven by the retired-instruction count.
    EXPECT_EQ(a.rt->eventsProcessed(), b.rt->eventsProcessed());
    EXPECT_EQ(a.rt->insnsInterpreted(), b.rt->insnsInterpreted());
    EXPECT_EQ(a.rt->totalProbeCost(), b.rt->totalProbeCost());
    EXPECT_EQ(a.rt->mapUpdateFails(), b.rt->mapUpdateFails());
    EXPECT_EQ(a.rt->ringbufDrops(), b.rt->ringbufDrops());

    const auto pa = a.rt->probeCounters();
    const auto pb = b.rt->probeCounters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].name, pb[i].name);
        EXPECT_EQ(pa[i].events, pb[i].events) << pa[i].name;
        EXPECT_EQ(pa[i].mapUpdateFails, pb[i].mapUpdateFails) << pa[i].name;
        EXPECT_EQ(pa[i].ringbufDrops, pb[i].ringbufDrops) << pa[i].name;
    }

    // Map contents byte for byte, every probe family.
    EXPECT_EQ(hashSnapshot(a.rt->hashAt(a.dur.startFd)),
              hashSnapshot(b.rt->hashAt(b.dur.startFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.dur.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.dur.statsFd)));
    EXPECT_EQ(hashSnapshot(a.rt->hashAt(a.durGuarded.startFd)),
              hashSnapshot(b.rt->hashAt(b.durGuarded.startFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.durGuarded.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.durGuarded.statsFd)));
    EXPECT_EQ(hashSnapshot(a.rt->hashAt(a.durTenant.startFd)),
              hashSnapshot(b.rt->hashAt(b.durTenant.startFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.durTenant.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.durTenant.statsFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.delta.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.delta.statsFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.deltaTenant.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.deltaTenant.statsFd)));

    // Heavy-hitter sketch: slot-exact contents, same eviction count,
    // same top-K ranking.
    SketchMap &ska = a.rt->sketchAt(a.sketchFd);
    SketchMap &skb = b.rt->sketchAt(b.sketchFd);
    EXPECT_EQ(sketchSnapshot(ska), sketchSnapshot(skb));
    EXPECT_EQ(ska.evictions(), skb.evictions());
    EXPECT_EQ(ska.topK(4), skb.topK(4));
    EXPECT_GT(ska.topK(4).size(), 0u);

    EXPECT_EQ(a.rt->ringbufAt(a.stream.ringFd).drops(),
              b.rt->ringbufAt(b.stream.ringFd).drops());
}

/** Drain a stack's stream ring into a payload sequence (destructive —
 *  call once per stack, then compare the sequences). */
std::vector<std::string>
drainRing(ProbeStack &s)
{
    std::vector<std::string> rec;
    s.rt->ringbufAt(s.stream.ringFd)
        .consume([&](const std::uint8_t *d, std::uint32_t n) {
            rec.emplace_back(reinterpret_cast<const char *>(d), n);
        });
    return rec;
}

TEST(EngineDiffProbeLibrary, IdenticalEventStreamIdenticalObservations)
{
    ProbeStack ref(ExecEngine::Reference);
    ProbeStack nat(ExecEngine::Native);

    // Every library probe must have native-compiled in the native
    // stack — a silent fallback here would make this test vacuous for
    // the native engine.
    EXPECT_EQ(nat.rt->nativePrograms(), nat.rt->loadedPrograms());

    // A deterministic mixed stream: the traced tgids and an untraced
    // one, the traced syscall, the delta family and an ignored syscall,
    // occasional failures, and occasional clock-inverted exits (the
    // guarded probes skip those, the unguarded ones wrap). Small ring
    // capacity makes both stacks hit the drop path at the same events.
    std::uint64_t ts = 1000;
    for (int i = 0; i < 20000; ++i) {
        kernel::RawSyscallEvent ev;
        ev.syscall = (i % 4 == 0) ? 232 : (i % 4 == 1 ? 44 : 0);
        ev.pidTgid = kernel::makePidTgid(
            i % 5 == 4 ? 7777 : (i % 3 == 0 ? 1000 : 2000), 1 + (i % 2));
        ev.ret = (i % 7 == 0) ? -4 : 100;

        ev.point = kernel::TracepointId::SysEnter;
        const std::uint64_t enter_ts = ts += 350;
        ev.timestamp = static_cast<sim::Tick>(enter_ts);
        ref.fire(ev);
        nat.fire(ev);

        ev.point = kernel::TracepointId::SysExit;
        ts += 650;
        ev.timestamp = static_cast<sim::Tick>(
            i % 13 == 0 ? enter_ts - 900 : ts);
        ref.fire(ev);
        nat.fire(ev);
    }

    expectStacksEqual(ref, nat, "reference vs native");

    // Ring-buffer payload sequences byte for byte.
    const std::vector<std::string> recRef = drainRing(ref);
    EXPECT_GT(recRef.size(), 0u);
    EXPECT_EQ(recRef, drainRing(nat));
}

/** One engine's runqlat probe pair on its own kernel and maps. */
struct RunqStack
{
    sim::Simulation sim{1};
    std::unique_ptr<kernel::Kernel> kernel;
    std::unique_ptr<EbpfRuntime> rt;
    probes::RunqlatMaps maps;

    explicit RunqStack(ExecEngine engine)
    {
        kernel = std::make_unique<kernel::Kernel>(sim);
        RuntimeConfig rc;
        rc.engine = engine;
        rt = std::make_unique<EbpfRuntime>(*kernel, rc);
        probes::TenantSet tenants;
        tenants.tgids = {1000, 2000};
        tenants.pollSyscalls = {232, 232};
        maps = probes::createRunqlatMaps(*rt, 2, "runq");
        attach(probes::buildRunqlatWakeup(*rt, maps),
               kernel::TracepointId::SchedWakeup);
        attach(probes::buildRunqlatWakeup(*rt, maps),
               kernel::TracepointId::SchedWakeupNew);
        attach(probes::buildRunqlatSwitch(*rt, tenants, maps),
               kernel::TracepointId::SchedSwitch);
    }

    void attach(ProgramSpec spec, kernel::TracepointId point)
    {
        const auto vr = rt->loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    }

    void fire(const kernel::RawSyscallEvent &ev)
    {
        kernel->tracepoints().fire(ev);
    }
};

/**
 * The runqlat pair observes identically under both engines: same
 * per-tenant histograms, same leftover wakeup stamps, same retired-
 * instruction accounting. The synthetic sched stream covers both
 * tenants, an unknown tgid, switches to idle, preempt re-stamps
 * (prev_state == 0), switch-ins with no stamp (the skip path), and
 * waits from sub-bucket-0 up into the saturating top bucket.
 */
TEST(EngineDiffRunqlat, HistogramsAgreeBitForBit)
{
    RunqStack ref(ExecEngine::Reference);
    RunqStack nat(ExecEngine::Native);
    RunqStack *stacks[] = {&ref, &nat};

    // Both runqlat programs must native-compile — a silent fallback
    // would make this test vacuous for the native engine.
    EXPECT_EQ(nat.rt->nativePrograms(), nat.rt->loadedPrograms());

    std::uint64_t ts = 1000;
    for (std::uint64_t i = 0; i < 6000; ++i) {
        const std::uint32_t tid = 1 + (i % 11);
        const std::uint32_t tgid =
            i % 3 == 0 ? 1000u : (i % 3 == 1 ? 2000u : 7777u);

        if (i % 9 != 0) { // every 9th switch-in arrives unstamped
            kernel::RawSyscallEvent w;
            w.point = i % 2 == 0 ? kernel::TracepointId::SchedWakeup
                                 : kernel::TracepointId::SchedWakeupNew;
            w.syscall = tid;
            w.pidTgid = kernel::makePidTgid(tgid, tid);
            w.timestamp = static_cast<sim::Tick>(ts += 170);
            for (auto *s : stacks)
                s->fire(w);
        }

        // Wait spanning the histogram; every 29th lands in the
        // saturating top bucket.
        std::uint64_t wait = 900 + (i % 13) * 5200 + (i % 5) * 260000;
        if (i % 29 == 0)
            wait += 60u * 1000u * 1000u;
        ts += wait;

        kernel::RawSyscallEvent sw;
        sw.point = kernel::TracepointId::SchedSwitch;
        sw.syscall = 1 + ((i + 5) % 11);   // departing task
        sw.ret = i % 4 == 0 ? 0 : 1;       // every 4th is a preempt
        sw.pidTgid = i % 17 == 0
                         ? 0 // switch to idle
                         : kernel::makePidTgid(tgid, tid);
        sw.timestamp = static_cast<sim::Tick>(ts);
        for (auto *s : stacks)
            s->fire(sw);
    }

    for (std::uint32_t slot = 0; slot < 2; ++slot)
        EXPECT_EQ(probes::readRunqlatHist(*ref.rt, ref.maps, slot),
                  probes::readRunqlatHist(*nat.rt, nat.maps, slot));
    EXPECT_EQ(hashSnapshot(ref.rt->hashAt(ref.maps.stampFd)),
              hashSnapshot(nat.rt->hashAt(nat.maps.stampFd)));
    EXPECT_EQ(ref.rt->eventsProcessed(), nat.rt->eventsProcessed());
    EXPECT_EQ(ref.rt->insnsInterpreted(), nat.rt->insnsInterpreted());
    EXPECT_EQ(ref.rt->totalProbeCost(), nat.rt->totalProbeCost());
    EXPECT_EQ(ref.rt->mapUpdateFails(), nat.rt->mapUpdateFails());
    // The stream populated real buckets in both tenant slots.
    for (std::uint32_t slot = 0; slot < 2; ++slot) {
        std::uint64_t total = 0;
        for (std::uint64_t c :
             probes::readRunqlatHist(*ref.rt, ref.maps, slot))
            total += c;
        EXPECT_GT(total, 500u) << "slot " << slot;
    }
}

/**
 * Canonical bytes of one experiment result, every numeric field exact
 * (hex floats for doubles): two serializations compare equal iff the
 * results are bit-identical. The cluster counterpart is
 * test::clusterBytes.
 */
std::string
experimentBytes(const core::ExperimentResult &r)
{
    using ull = unsigned long long;
    std::string out;
    char buf[512];
    auto emit = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };
    auto health = [&](const core::AgentHealth &h) {
        emit(" h=%d%d%d muf=%llu rbd=%llu miss=%llu stale=%llu disc=%llu "
             "corr=%llu bo=%u\n",
             (int)h.sendAttached, (int)h.recvAttached, (int)h.pollAttached,
             (ull)h.mapUpdateFails, (ull)h.ringbufDrops,
             (ull)h.probeMisses, (ull)h.staleWindows,
             (ull)h.discontinuities, (ull)h.lossCorrectedEvents,
             h.backoffFactor);
    };

    emit("rps %a %a %a c=%llu p50=%llu p95=%llu p99=%llu qos=%d\n",
         r.offeredRps, r.achievedRps, r.observedRps, (ull)r.completed,
         (ull)r.p50Ns, (ull)r.p95Ns, (ull)r.p99Ns, (int)r.qosViolated);
    emit("est %a %a %a\n", r.sendVarNs2, r.recvVarNs2, r.pollMeanDurNs);
    emit("probe sys=%llu ev=%llu insns=%llu cost=%lld muf=%llu rbd=%llu\n",
         (ull)r.syscalls, (ull)r.probeEvents, (ull)r.probeInsns,
         (long long)r.probeCostNs, (ull)r.probeMapUpdateFails,
         (ull)r.probeRingbufDrops);
    for (const core::MetricsSample &m : r.samples) {
        emit("s t=%lld send=%llu,%a,%a recv=%llu,%a,%a rps=%a "
             "poll=%llu,%a sat=%d slack=%a rq=%llu,%a",
             (long long)m.t, (ull)m.send.count, m.send.meanNs,
             m.send.varianceNs2, (ull)m.recv.count, m.recv.meanNs,
             m.recv.varianceNs2, m.rpsObsv, (ull)m.pollCount,
             m.pollMeanDurNs, (int)m.saturated, m.slack,
             (ull)m.runqCount, m.runqP99Ns);
        health(m.health);
    }
    emit("end");
    health(r.agentHealth);
    const fault::FaultCounts &f = r.faultCounts;
    emit("faults %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
         "%llu %llu %llu %llu %llu %llu\n",
         (ull)f.eintr, (ull)f.eagain, (ull)f.partialOps,
         (ull)f.spuriousWakeups, (ull)f.mapUpdateFails,
         (ull)f.ringbufDrops, (ull)f.attachFails, (ull)f.probeMisses,
         (ull)f.linkFlapHolds, (ull)f.connResets, (ull)f.agentCrashes,
         (ull)f.samplerStalls, (ull)f.mapWipes, (ull)f.synFloodConns,
         (ull)f.backlogOverflows, (ull)f.retransmitDrops,
         (ull)f.schedDelays);
    const core::SupervisorStats &sv = r.supervisorStats;
    emit("super %llu %llu %llu %llu %llu %llu %llu %d %lld\n",
         (ull)sv.crashes, (ull)sv.stallsDetected, (ull)sv.restarts,
         (ull)sv.failedStarts, (ull)sv.mapWipes, (ull)sv.checkpoints,
         (ull)sv.restores, (int)sv.circuitOpen, (long long)sv.downtime);
    const net::FrontDoorCounts &d = r.frontDoorCounts;
    emit("door %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
         "p50=%llu p99=%llu storm=%llu,%llu,%llu\n",
         (ull)d.syns, (ull)d.ingressDrops, (ull)d.synQueueOverflows,
         (ull)d.backlogOverflows, (ull)d.budgetDrops, (ull)d.retransmits, (ull)d.accepted, (ull)d.failed,
         (ull)d.lorisReaped, (ull)d.floodSyns,
         (ull)r.frontDoorAcceptP50Ns, (ull)r.frontDoorAcceptP99Ns,
         (ull)r.stormEstablished, (ull)r.stormFailed,
         (ull)r.stormConnP99Ns);
    return out;
}

/** Run @p cfg under the reference interpreter and under the default
 *  engine; the two results must be byte-identical. */
core::ExperimentResult
expectEnginesAgree(core::ExperimentConfig cfg)
{
    const core::ExperimentResult native = core::runExperiment(cfg);
    cfg.agent.runtime.engine = ExecEngine::Reference;
    const core::ExperimentResult ref = core::runExperiment(cfg);
    EXPECT_GT(native.probeEvents, 0u);
    EXPECT_EQ(experimentBytes(ref), experimentBytes(native));
    return native;
}

/** Cluster counterpart of expectEnginesAgree. */
core::ClusterExperimentResult
expectEnginesAgree(core::ClusterExperimentConfig cfg)
{
    const core::ClusterExperimentResult native =
        core::runClusterExperiment(cfg);
    cfg.agent.runtime.engine = ExecEngine::Reference;
    const core::ClusterExperimentResult ref =
        core::runClusterExperiment(cfg);
    EXPECT_GT(native.probeEvents, 0u);
    EXPECT_EQ(test::clusterBytes(ref), test::clusterBytes(native));
    return native;
}

/** Two co-located tenants sharing @p capacity machines at @p frac. */
core::ClusterExperimentConfig
twoTenants(double frac, double capacity, std::uint64_t seed)
{
    core::ClusterExperimentConfig cfg;
    for (const char *name : {"img-dnn", "xapian"}) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(name);
        t.offeredRps = frac * t.workload.saturationRps * capacity / 2.0;
        t.requests = static_cast<std::uint64_t>(
            std::clamp(t.offeredRps * 2.0, 600.0, 2500.0));
        cfg.tenants.push_back(std::move(t));
    }
    cfg.agent.minWindowSyscalls = 256;
    cfg.seed = seed;
    return cfg;
}

TEST(EngineDiffHarness, FigureSweepPoint)
{
    core::ExperimentConfig base;
    base.workload = workload::workloadByName("web-search");
    base.seed = 5;
    base.agent.minWindowSyscalls = 512;
    core::SweepScaling scaling;
    scaling.requestsPerRps = 4.0;
    scaling.minRequests = 2500;
    scaling.maxRequests = 4000;
    scaling.scaleWarmup = true;
    scaling.scaleSampling = true;
    const auto r =
        expectEnginesAgree(core::sweepPointConfig(base, 0.9, scaling));
    EXPECT_GT(r.samples.size(), 2u);
}

TEST(EngineDiffHarness, FrontDoorStorm)
{
    core::ExperimentConfig cfg;
    cfg.workload = workload::workloadByName("data-caching");
    cfg.workload.saturationRps =
        std::min(cfg.workload.saturationRps, 4000.0);
    cfg.offeredRps = 0.9 * cfg.workload.saturationRps;
    cfg.requests = 3000;
    cfg.seed = 21;
    cfg.frontDoor.enabled = true;
    cfg.frontDoor.listeners = 2;
    cfg.frontDoor.listener.synQueueDepth = 4;
    cfg.frontDoor.listener.acceptBacklog = 4;
    cfg.frontDoor.stormEnabled = true;
    cfg.frontDoor.storm.connRps = 2000.0;
    cfg.frontDoor.storm.lorisFraction = 0.3;
    cfg.frontDoor.storm.lorisHold = sim::milliseconds(100);
    const auto r = expectEnginesAgree(cfg);
    EXPECT_GT(r.frontDoorCounts.retransmits, 0u);
    EXPECT_GT(r.stormEstablished, 0u);
}

TEST(EngineDiffHarness, FaultInjectedRun)
{
    // The native kernels must draw fault decisions at the same helper
    // sites, in the same order, as the interpreter: one draw out of
    // place shifts every later decision and the results diverge.
    core::ExperimentConfig cfg;
    cfg.workload = workload::workloadByName("silo");
    cfg.offeredRps = 0.7 * cfg.workload.saturationRps;
    cfg.requests = 3000;
    cfg.seed = 9;
    cfg.fault.probeMissProbability = 0.05;
    cfg.fault.mapUpdateFailProbability = 0.10;
    cfg.fault.ringbufDropProbability = 0.10;
    cfg.fault.clockJitterNs = sim::microseconds(5);
    cfg.fault.eintrProbability = 0.02;
    cfg.fault.eagainProbability = 0.02;
    cfg.fault.partialIoProbability = 0.02;
    const auto r = expectEnginesAgree(cfg);
    EXPECT_GT(r.faultCounts.probeMisses, 0u);
    EXPECT_GT(r.faultCounts.mapUpdateFails, 0u);
    EXPECT_GT(r.faultCounts.partialOps, 0u);
}

TEST(EngineDiffHarness, CoLocatedTenantsWithAntagonist)
{
    core::ClusterExperimentConfig cfg = twoTenants(0.8, 1.0, 801);
    cfg.antagonist = true;
    cfg.antagonistConfig.threads = 48;
    const auto r = expectEnginesAgree(cfg);
    EXPECT_EQ(r.tenants.size(), 2u);
}

TEST(EngineDiffHarness, DiscreteFleetWithRunqlatAndSketch)
{
    const std::vector<double> speed = {1.0, 1.0, 0.8, 0.6};
    core::ClusterExperimentConfig cfg = twoTenants(0.9, 3.4, 907);
    cfg.machines = static_cast<unsigned>(speed.size());
    cfg.machineSpeedFactors = speed;
    cfg.lbPolicy = net::LbPolicy::LeastConnections;
    cfg.sched = kernel::SchedModel::Discrete;
    cfg.agent.runqlatHistogram = true;
    cfg.agent.heavyHitterSketch = true;
    const auto r = expectEnginesAgree(cfg);
    double runq = 0.0;
    for (const core::ClusterTenantResult &t : r.tenants)
        runq += t.runqP99Ns;
    EXPECT_GT(runq, 0.0);
}

} // namespace
} // namespace reqobs::ebpf
