/**
 * @file
 * Storm suite: the host-network front door. Drop accounting across the
 * ingress/SYN-queue/backlog path, the shared retransmit backoff
 * schedule and whole-run determinism under a storm, isolation of the
 * persistent-flow tenant from storm traffic on an uncontended host, the
 * accept-budget actuator, and bit-equality of the front-door latency
 * probe pair across both eBPF execution engines.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "ebpf/maps.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "net/frontdoor.hh"
#include "net/tcp.hh"
#include "sim/simulation.hh"
#include "workload/config.hh"
#include "workload/machine.hh"

namespace reqobs {
namespace {

/**
 * The front door's SYN retransmit timers ride the one shared backoff
 * schedule: doubling from minRto, capped at maxRetries doublings.
 */
TEST(FrontDoorBackoff, SharedScheduleDoublesAndCaps)
{
    net::TcpConfig tcp;
    tcp.minRto = sim::milliseconds(100);
    tcp.maxRetries = 3;
    EXPECT_EQ(net::synRetransmitTimeout(tcp, 0), sim::milliseconds(100));
    EXPECT_EQ(net::synRetransmitTimeout(tcp, 1), sim::milliseconds(200));
    EXPECT_EQ(net::synRetransmitTimeout(tcp, 2), sim::milliseconds(400));
    EXPECT_EQ(net::synRetransmitTimeout(tcp, 3), sim::milliseconds(800));
    // Past the cap the wait stays at the ceiling.
    EXPECT_EQ(net::synRetransmitTimeout(tcp, 9), sim::milliseconds(800));
}

/** A bare kernel with a front door and one listener process. */
struct DoorRig
{
    sim::Simulation sim;
    kernel::Kernel kernel;
    net::FrontDoor frontDoor;
    unsigned listener = 0;

    DoorRig(const net::FrontDoorConfig &fc, const net::ListenerConfig &lc,
            std::uint64_t seed = 7)
        : sim(seed), kernel(sim), frontDoor(kernel, fc)
    {
        const kernel::Pid pid = kernel.createProcess("frontdoor-test");
        listener = frontDoor.addListener(pid, lc);
        frontDoor.start();
    }

    net::FrontDoor &door() { return frontDoor; }
};

/**
 * A synchronized burst against a tiny accept backlog: most of the burst
 * overflows, retransmits on the backoff schedule, and eventually either
 * lands or exhausts its retries. Every counter identity must hold when
 * the run drains: each admission-path drop re-armed exactly one
 * retransmit timer or failed the flow, and every SYN at ingress was
 * either the flow's first or a counted retransmission.
 */
TEST(FrontDoorAccounting, BacklogOverflowDropAndRetryInvariantsHold)
{
    net::FrontDoorConfig fc;
    fc.ingressQueueDepth = 512;
    fc.ingressLatency = 1; // ~same-tick drain: the whole burst lands
                           // between acceptor wakeups
    fc.tcp.minRto = sim::milliseconds(20);
    fc.maxSynRetries = 6;
    net::ListenerConfig lc;
    lc.synQueueDepth = 512;
    lc.acceptBacklog = 2;
    lc.handshakeRtt = sim::microseconds(50);
    lc.serviceDemand = 0;
    DoorRig rig(fc, lc);

    const unsigned kConns = 300;
    std::uint64_t established = 0, failed_cb = 0;
    for (unsigned i = 0; i < kConns; ++i) {
        rig.sim.schedule(0, [&] {
            net::ConnectOptions opts;
            opts.onEstablished =
                [&](std::shared_ptr<kernel::Socket>) { ++established; };
            opts.onFailed = [&] { ++failed_cb; };
            rig.door().connect(rig.listener, std::move(opts));
        });
    }
    rig.sim.runUntil(sim::seconds(20));

    const net::FrontDoorCounts t = rig.door().totals();
    EXPECT_GT(t.backlogOverflows, 0u);
    EXPECT_GT(t.retransmits, 0u);

    // Callback accounting matches counter accounting, and every flow
    // resolved one way or the other.
    EXPECT_EQ(t.accepted, established);
    EXPECT_EQ(t.failed, failed_cb);
    EXPECT_EQ(established + failed_cb, kConns);

    // Path identities (quiescent run, no loris): each drop became one
    // retransmission or one failure; each ingress SYN was a first
    // attempt or a retransmission.
    EXPECT_EQ(t.drops(), t.retransmits + t.failed);
    EXPECT_EQ(t.syns, kConns + t.retransmits);

    // Nothing left stuck in the machine.
    EXPECT_EQ(rig.door().backlogDepth(rig.listener), 0u);
    EXPECT_EQ(rig.door().halfOpenCount(rig.listener), 0u);
    EXPECT_EQ(rig.door().ingressDepth(), 0u);

    // Accept latency measures the *admitted* SYN's trip (it re-stamps
    // on retransmission, exactly like the eBPF probe), so it carries at
    // least the handshake RTT; the retransmit backoff itself shows up
    // client-side (FrontDoorDeterminism exercises that path).
    EXPECT_GE(rig.door().acceptLatencies(rig.listener).p99(),
              static_cast<std::uint64_t>(lc.handshakeRtt));
}

/**
 * The accept-budget actuator (the controller's storm clamp) caps the
 * admission rate with a token bucket: over-budget SYNs drop before they
 * cost backlog slots or CPU.
 */
TEST(FrontDoorAccounting, AcceptBudgetCapsAdmissionRate)
{
    net::FrontDoorConfig fc;
    fc.tcp.minRto = sim::milliseconds(50);
    fc.maxSynRetries = 1; // drop-once-then-fail keeps the run short
    net::ListenerConfig lc;
    DoorRig rig(fc, lc);

    const double kBudget = 100.0; // conns/sec
    rig.door().setAcceptBudget(rig.listener, kBudget);
    EXPECT_EQ(rig.door().acceptBudget(rig.listener), kBudget);

    // Offer 10x the budget for one second.
    const unsigned kConns = 1000;
    for (unsigned i = 0; i < kConns; ++i) {
        rig.sim.schedule(sim::microseconds(1000) * i, [&] {
            rig.door().connect(rig.listener, net::ConnectOptions{});
        });
    }
    rig.sim.runUntil(sim::seconds(5));

    const net::FrontDoorCounts t = rig.door().totals();
    EXPECT_GT(t.budgetDrops, 0u);
    // Admissions track budget * window (1s offer + burst allowance),
    // nowhere near the offered rate.
    EXPECT_LE(t.accepted, static_cast<std::uint64_t>(3.0 * kBudget));
    EXPECT_GE(t.accepted, static_cast<std::uint64_t>(0.5 * kBudget));

    // Restoring the budget lifts the cap.
    rig.door().setAcceptBudget(rig.listener, 0.0);
    EXPECT_EQ(rig.door().acceptBudget(rig.listener), 0.0);
}

/** Harness config with a storm hammering an overflow-prone listener. */
core::ExperimentConfig
stormConfig(std::uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.workload = workload::workloadByName("data-caching");
    cfg.workload.saturationRps =
        std::min(cfg.workload.saturationRps, 4000.0);
    cfg.offeredRps = 0.5 * cfg.workload.saturationRps;
    cfg.requests = 3000;
    cfg.seed = seed;
    cfg.frontDoor.enabled = true;
    cfg.frontDoor.listener.synQueueDepth = 4;
    cfg.frontDoor.listener.acceptBacklog = 4;
    cfg.frontDoor.stormEnabled = true;
    cfg.frontDoor.storm.connRps = 2000.0;
    cfg.frontDoor.storm.lorisFraction = 0.3; // squat the tiny SYN queue
    cfg.frontDoor.storm.lorisHold = sim::milliseconds(100);
    return cfg;
}

/**
 * Retransmit backoff (and everything else about a storm run) is
 * deterministic: the door itself draws no random numbers, so two
 * identical configs replay bit for bit — drop counters, retransmission
 * counts, storm outcomes, latency quantiles, ground truth.
 */
TEST(FrontDoorDeterminism, StormRunsReplayBitForBit)
{
    const core::ExperimentResult a = core::runExperiment(stormConfig(17));
    const core::ExperimentResult b = core::runExperiment(stormConfig(17));

    // The loris squat must actually exercise the drop/backoff machinery
    // for the replay check to mean anything.
    EXPECT_GT(a.frontDoorCounts.drops(), 0u);
    EXPECT_GT(a.frontDoorCounts.retransmits, 0u);
    EXPECT_GT(a.frontDoorCounts.lorisReaped, 0u);
    EXPECT_GT(a.stormEstablished, 0u);

    EXPECT_EQ(a.achievedRps, b.achievedRps);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.p50Ns, b.p50Ns);
    EXPECT_EQ(a.p99Ns, b.p99Ns);
    EXPECT_EQ(a.observedRps, b.observedRps);
    EXPECT_EQ(a.syscalls, b.syscalls);

    EXPECT_EQ(a.frontDoorCounts.syns, b.frontDoorCounts.syns);
    EXPECT_EQ(a.frontDoorCounts.ingressDrops, b.frontDoorCounts.ingressDrops);
    EXPECT_EQ(a.frontDoorCounts.synQueueOverflows,
              b.frontDoorCounts.synQueueOverflows);
    EXPECT_EQ(a.frontDoorCounts.backlogOverflows,
              b.frontDoorCounts.backlogOverflows);
    EXPECT_EQ(a.frontDoorCounts.budgetDrops, b.frontDoorCounts.budgetDrops);
    EXPECT_EQ(a.frontDoorCounts.retransmits, b.frontDoorCounts.retransmits);
    EXPECT_EQ(a.frontDoorCounts.accepted, b.frontDoorCounts.accepted);
    EXPECT_EQ(a.frontDoorCounts.failed, b.frontDoorCounts.failed);
    EXPECT_EQ(a.frontDoorCounts.lorisReaped, b.frontDoorCounts.lorisReaped);
    EXPECT_EQ(a.frontDoorAcceptP50Ns, b.frontDoorAcceptP50Ns);
    EXPECT_EQ(a.frontDoorAcceptP99Ns, b.frontDoorAcceptP99Ns);
    EXPECT_EQ(a.stormEstablished, b.stormEstablished);
    EXPECT_EQ(a.stormFailed, b.stormFailed);
    EXPECT_EQ(a.stormConnP99Ns, b.stormConnP99Ns);
}

/**
 * Storm-vs-persistent isolation. The front door and its storm sit
 * strictly after every victim component in the construction (RNG-fork)
 * order, and on a host with CPU headroom the GPS scheduler gives the
 * victim identical service whether or not storm conns share the
 * machine. So the persistent-flow tenant's ground truth must be
 * bit-identical between a doorless run and a full storm run — the
 * storm's damage on an uncontended host is confined to the front door,
 * exactly the place syscall probes cannot see.
 */
TEST(FrontDoorIsolation, VictimGroundTruthUnperturbedByStorm)
{
    core::ExperimentConfig plain;
    plain.workload = workload::workloadByName("data-caching");
    plain.workload.saturationRps =
        std::min(plain.workload.saturationRps, 4000.0);
    plain.offeredRps = 0.5 * plain.workload.saturationRps;
    plain.requests = 3000;
    plain.seed = 23;

    core::ExperimentConfig stormy = plain;
    stormy.frontDoor.enabled = true;
    stormy.frontDoor.listener.serviceDemand = sim::microseconds(100);
    stormy.frontDoor.stormEnabled = true;
    stormy.frontDoor.storm.connRps = 3000.0;

    const core::ExperimentResult a = core::runExperiment(plain);
    const core::ExperimentResult b = core::runExperiment(stormy);

    // Doorless run reports nothing from the door...
    EXPECT_EQ(a.frontDoorCounts.syns, 0u);
    EXPECT_EQ(a.stormEstablished, 0u);
    // ...the storm run carried real traffic through it.
    EXPECT_GT(b.frontDoorCounts.accepted, 0u);
    EXPECT_GT(b.stormEstablished, 0u);

    // And the victim can't tell the difference, bit for bit.
    EXPECT_EQ(a.achievedRps, b.achievedRps);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.p50Ns, b.p50Ns);
    EXPECT_EQ(a.p95Ns, b.p95Ns);
    EXPECT_EQ(a.p99Ns, b.p99Ns);
    EXPECT_EQ(a.qosViolated, b.qosViolated);
}

/** Full content snapshot of a hash map, in key order. */
std::map<std::string, std::string>
hashSnapshot(const ebpf::HashMap &m)
{
    std::map<std::string, std::string> out;
    const std::uint32_t ks = m.keySize(), vs = m.valueSize();
    m.forEach([&](const std::uint8_t *k, const std::uint8_t *v) {
        out.emplace(std::string(reinterpret_cast<const char *>(k), ks),
                    std::string(reinterpret_cast<const char *>(v), vs));
    });
    return out;
}

/** One engine's front-door probe pair on its own kernel and maps. */
struct DoorProbeStack
{
    sim::Simulation sim{1};
    std::unique_ptr<kernel::Kernel> kernel;
    std::unique_ptr<ebpf::EbpfRuntime> rt;
    ebpf::probes::FrontDoorMaps maps;

    explicit DoorProbeStack(ebpf::ExecEngine engine)
    {
        kernel = std::make_unique<kernel::Kernel>(sim);
        ebpf::RuntimeConfig rc;
        rc.engine = engine;
        rt = std::make_unique<ebpf::EbpfRuntime>(*kernel, rc);
        ebpf::probes::TenantSet tenants;
        tenants.tgids = {1000, 2000};
        tenants.pollSyscalls = {232, 232};
        maps = ebpf::probes::createFrontDoorMaps(*rt, 2, "fd");
        attach(ebpf::probes::buildFrontDoorIngress(*rt, maps),
               kernel::TracepointId::NetRxEnqueue);
        attach(ebpf::probes::buildFrontDoorAccept(*rt, tenants, maps),
               kernel::TracepointId::SockAccept);
    }

    void attach(ebpf::ProgramSpec spec, kernel::TracepointId point)
    {
        const auto vr = rt->loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    }

    void fire(kernel::TracepointId point, std::uint64_t flow,
              std::uint32_t tgid, std::uint64_t ts)
    {
        kernel::RawSyscallEvent ev;
        ev.point = point;
        ev.syscall = static_cast<std::int64_t>(flow);
        ev.pidTgid = kernel::makePidTgid(tgid, tgid);
        ev.timestamp = static_cast<sim::Tick>(ts);
        kernel->tracepoints().fire(ev);
    }
};

/**
 * The front-door latency probe pair observes identically under the
 * reference interpreter and the native engine: same per-tenant
 * histograms, same leftover ingress stamps, same retired-instruction
 * accounting. Under the native engine the ingress probe runs as the
 * "stamp_update" kernel (its bytecode is runqlat's wakeup half) and the
 * accept probe, which has no kernel, on the interpreter. The stream
 * covers both tenants, an unknown tgid (no slot), accepts with no
 * ingress stamp (the probe's missed-SYN skip path), re-stamped flows,
 * and latencies from a few microseconds up into the saturating top
 * bucket.
 */
TEST(FrontDoorProbeEngines, HistogramsAgreeBitForBit)
{
    DoorProbeStack ref(ebpf::ExecEngine::Reference);
    DoorProbeStack nat(ebpf::ExecEngine::Native);
    DoorProbeStack *stacks[] = {&ref, &nat};

    const auto probes = nat.rt->probeCounters();
    ASSERT_EQ(probes.size(), 2u);
    EXPECT_EQ(probes[0].name, "frontdoor_ingress");
    EXPECT_EQ(probes[0].shape, "stamp_update");
    EXPECT_EQ(probes[1].name, "frontdoor_accept");
    EXPECT_EQ(probes[1].shape, "");

    std::uint64_t ts = 1000;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const std::uint64_t flow = i + 1;
        const std::uint32_t tgid =
            i % 3 == 0 ? 1000u : (i % 3 == 1 ? 2000u : 7777u);

        if (i % 11 != 0) { // every 11th accept arrives with no stamp
            ts += 130;
            for (auto *s : stacks)
                s->fire(kernel::TracepointId::NetRxEnqueue, flow, tgid, ts);
            if (i % 13 == 0) { // retransmitted SYN: re-stamp the flow
                ts += 777;
                for (auto *s : stacks)
                    s->fire(kernel::TracepointId::NetRxEnqueue, flow, tgid,
                            ts);
            }
        }
        // Front-door latency spanning the histogram: sub-bucket-0 up to
        // the ~134 ms saturating bucket on every 31st flow.
        std::uint64_t wait = 2000 + (i % 17) * 3000 + (i % 5) * 250000;
        if (i % 31 == 0)
            wait += 200u * 1000u * 1000u;
        ts += wait;
        for (auto *s : stacks)
            s->fire(kernel::TracepointId::SockAccept, flow, tgid, ts);
        if (i % 7 == 0) { // flows left half-open keep their stamps
            const std::uint64_t squatter = 1000000 + i;
            ts += 90;
            for (auto *s : stacks)
                s->fire(kernel::TracepointId::NetRxEnqueue, squatter, tgid,
                        ts);
        }
    }

    const auto h0 = ebpf::probes::readFrontDoorHist(*ref.rt, ref.maps, 0);
    const auto h1 = ebpf::probes::readFrontDoorHist(*ref.rt, ref.maps, 1);
    EXPECT_EQ(h0, ebpf::probes::readFrontDoorHist(*nat.rt, nat.maps, 0));
    EXPECT_EQ(h1, ebpf::probes::readFrontDoorHist(*nat.rt, nat.maps, 1));
    EXPECT_EQ(hashSnapshot(ref.rt->hashAt(ref.maps.ingressFd)),
              hashSnapshot(nat.rt->hashAt(nat.maps.ingressFd)));
    EXPECT_EQ(ref.rt->eventsProcessed(), nat.rt->eventsProcessed());
    EXPECT_EQ(ref.rt->insnsInterpreted(), nat.rt->insnsInterpreted());
    EXPECT_EQ(ref.rt->totalProbeCost(), nat.rt->totalProbeCost());
    EXPECT_EQ(ref.rt->mapUpdateFails(), nat.rt->mapUpdateFails());

    // The histograms carry real distributions: both tenant slots saw
    // stamped accepts, spread over several buckets including the
    // saturating one, and the quantile readout is ordered.
    std::uint64_t total0 = 0, nonzero0 = 0;
    for (std::uint64_t c : h0) {
        total0 += c;
        nonzero0 += c > 0 ? 1 : 0;
    }
    EXPECT_GT(total0, 1000u);
    EXPECT_GE(nonzero0, 4u);
    EXPECT_GT(h0.back(), 0u);
    std::uint64_t total1 = 0;
    for (std::uint64_t c : h1)
        total1 += c;
    EXPECT_GT(total1, 1000u);
    const std::uint64_t p50 = ebpf::probes::frontDoorQuantile(h0, 0.5);
    const std::uint64_t p99 = ebpf::probes::frontDoorQuantile(h0, 0.99);
    EXPECT_GT(p50, 0u);
    EXPECT_GE(p99, p50);
}

} // namespace
} // namespace reqobs
