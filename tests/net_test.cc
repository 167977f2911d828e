/**
 * @file
 * Network-substrate tests: netem loss/delay statistics, TCP
 * retransmission timing and in-order delivery, and the full-duplex Link.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment.hh"
#include "net/link.hh"
#include "net/load_balancer.hh"
#include "net/netem.hh"
#include "net/tcp.hh"
#include "sim/simulation.hh"

namespace reqobs::net {
namespace {

TEST(NetemTest, NoImpairmentPassesEverything)
{
    NetemConfig cfg;
    NetemQdisc q(cfg, sim::Rng(1));
    for (int i = 0; i < 1000; ++i) {
        const auto v = q.process();
        EXPECT_FALSE(v.dropped);
        EXPECT_EQ(v.delay, 0);
    }
    EXPECT_EQ(q.drops(), 0u);
    EXPECT_EQ(q.packets(), 1000u);
}

TEST(NetemTest, LossRateMatchesConfig)
{
    NetemConfig cfg;
    cfg.lossProbability = 0.01;
    NetemQdisc q(cfg, sim::Rng(2));
    const int n = 200000;
    int drops = 0;
    for (int i = 0; i < n; ++i)
        drops += q.process().dropped;
    EXPECT_NEAR(static_cast<double>(drops) / n, 0.01, 0.002);
}

TEST(NetemTest, CorrelatedLossComesInBursts)
{
    NetemConfig cfg;
    cfg.lossProbability = 0.05;
    cfg.lossCorrelation = 0.8;
    NetemQdisc q(cfg, sim::Rng(3));
    int drops = 0, after_drop = 0, drop_pairs = 0;
    bool prev = false;
    for (int i = 0; i < 400000; ++i) {
        const bool d = q.process().dropped;
        drops += d;
        if (prev) {
            ++after_drop;
            drop_pairs += d;
        }
        prev = d;
    }
    const double p_cond =
        static_cast<double>(drop_pairs) / static_cast<double>(after_drop);
    const double p_marg = static_cast<double>(drops) / 400000.0;
    // With correlation, P(drop | prev drop) must far exceed P(drop).
    EXPECT_GT(p_cond, 4.0 * p_marg);
}

TEST(NetemTest, DelayAndJitterBounds)
{
    NetemConfig cfg;
    cfg.delay = sim::milliseconds(10);
    cfg.jitter = sim::milliseconds(2);
    NetemQdisc q(cfg, sim::Rng(4));
    for (int i = 0; i < 10000; ++i) {
        const auto v = q.process();
        ASSERT_GE(v.delay, sim::milliseconds(8));
        ASSERT_LE(v.delay, sim::milliseconds(12));
    }
}

TEST(NetemTest, DescribeMatchesTableTwoLabels)
{
    NetemConfig cfg;
    EXPECT_EQ(cfg.describe(), "0ms delay, 0.0% loss");
    cfg.delay = sim::milliseconds(10);
    cfg.lossProbability = 0.01;
    EXPECT_EQ(cfg.describe(), "10ms delay, 1.0% loss");
}

TEST(NetemDeathTest, InvalidConfigIsFatal)
{
    NetemConfig cfg;
    cfg.lossProbability = 1.5;
    EXPECT_DEATH(NetemQdisc(cfg, sim::Rng(1)), "probability");
}

// -------------------------------------------------------------------- TCP

TEST(TcpPipeTest, CleanLinkDeliversAfterDelayAndSerialisation)
{
    sim::Simulation sim(1);
    NetemConfig netem;
    netem.delay = sim::milliseconds(5);
    TcpConfig tcp;
    std::vector<sim::Tick> arrivals;
    TcpPipe pipe(sim, netem, tcp, sim.forkRng(),
                 [&](kernel::Message &&) { arrivals.push_back(sim.now()); });
    kernel::Message m;
    m.bytes = 12500; // 10us at 1250 B/us
    pipe.send(std::move(m));
    sim.run();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_NEAR(static_cast<double>(arrivals[0]),
                static_cast<double>(sim::milliseconds(5) +
                                    sim::microseconds(10)),
                1000.0);
    EXPECT_EQ(pipe.retransmissions(), 0u);
}

TEST(TcpPipeTest, LossCostsAtLeastOneRto)
{
    sim::Simulation sim(1);
    NetemConfig netem;
    netem.lossProbability = 0.5;
    TcpConfig tcp;
    int delayed = 0, total = 0;
    auto pipe = std::make_unique<TcpPipe>(
        sim, netem, tcp, sim.forkRng(), [&](kernel::Message &&) {});
    std::vector<sim::Tick> sent_at, arrived_at;
    // Re-create with arrival capture.
    pipe = std::make_unique<TcpPipe>(
        sim, netem, tcp, sim.forkRng(),
        [&](kernel::Message &&) { arrived_at.push_back(sim.now()); });
    for (int i = 0; i < 200; ++i) {
        sent_at.push_back(sim.now());
        kernel::Message m;
        m.bytes = 100;
        pipe->send(std::move(m));
        sim.runFor(sim::seconds(3)); // let retransmissions settle
    }
    ASSERT_EQ(arrived_at.size(), 200u);
    for (int i = 0; i < 200; ++i) {
        const sim::Tick latency = arrived_at[i] - sent_at[i];
        ++total;
        if (latency >= tcp.minRto)
            ++delayed;
    }
    // With 50% loss on a sparse flow, a segment avoids the RTO only when
    // both its data and its ACK survive first try (P = 0.25), and
    // head-of-line blocking behind a long backoff delays a few more.
    const double frac = static_cast<double>(delayed) / total;
    EXPECT_GT(frac, 0.6);
    EXPECT_LT(frac, 0.97);
    EXPECT_GT(pipe->retransmissions(), 50u);
}

TEST(TcpPipeTest, InOrderDeliveryUnderLoss)
{
    sim::Simulation sim(9);
    NetemConfig netem;
    netem.lossProbability = 0.3;
    TcpConfig tcp;
    std::vector<std::uint64_t> order;
    TcpPipe pipe(sim, netem, tcp, sim.forkRng(),
                 [&](kernel::Message &&m) { order.push_back(m.requestId); });
    for (std::uint64_t i = 0; i < 100; ++i) {
        kernel::Message m;
        m.requestId = i;
        m.bytes = 10;
        pipe.send(std::move(m));
        sim.runFor(sim::microseconds(100));
    }
    sim.runFor(sim::seconds(200)); // drain every backoff
    ASSERT_EQ(order.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i)
        ASSERT_EQ(order[i], i) << "head-of-line order violated";
}

TEST(TcpPipeTest, RtoBacksOffExponentially)
{
    // Force every packet to drop until maxRetries: latency must include
    // the full doubling series of RTOs.
    sim::Simulation sim(1);
    NetemConfig netem;
    netem.lossProbability = 1.0;
    netem.lossCorrelation = 0.0;
    TcpConfig tcp;
    tcp.maxRetries = 3;
    sim::Tick arrival = -1;
    TcpPipe pipe(sim, netem, tcp, sim.forkRng(),
                 [&](kernel::Message &&) { arrival = sim.now(); });
    kernel::Message m;
    m.bytes = 10;
    pipe.send(std::move(m));
    sim.run();
    // 200 + 400 + 800 ms of backoff.
    EXPECT_GE(arrival, sim::milliseconds(1400));
    EXPECT_EQ(pipe.retransmissions(), 3u);
}

// ------------------------------------------------------------------- Link

TEST(LinkTest, FullDuplexRoundTrip)
{
    sim::Simulation sim(5);
    auto sock = std::make_shared<kernel::Socket>(1);
    NetemConfig netem;
    netem.delay = sim::milliseconds(1);
    TcpConfig tcp;
    std::vector<std::uint64_t> responses;
    Link link(sim, netem, tcp, sock, [&](kernel::Message &&m) {
        responses.push_back(m.requestId);
    });

    kernel::Message req;
    req.requestId = 55;
    req.bytes = 100;
    link.sendRequest(std::move(req));
    sim.run();
    // Request reached the server socket.
    ASSERT_TRUE(sock->hasData());
    kernel::Message got = sock->pop();
    EXPECT_EQ(got.requestId, 55u);

    // Server responds through its tx hook -> client callback.
    kernel::Message resp;
    resp.requestId = 55;
    resp.isResponse = true;
    sock->transmit(std::move(resp));
    sim.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0], 55u);
    EXPECT_EQ(link.upPipe().delivered(), 1u);
    EXPECT_EQ(link.downPipe().delivered(), 1u);
}

TEST(LinkTest, DestructionDisarmsSocketHook)
{
    sim::Simulation sim(5);
    auto sock = std::make_shared<kernel::Socket>(1);
    {
        Link link(sim, NetemConfig{}, TcpConfig{}, sock,
                  [](kernel::Message &&) {});
    }
    // Must not crash: the hook was cleared by ~Link.
    sock->transmit(kernel::Message{});
    sim.run();
}

TEST(LinkTest, DestructionCancelsInFlightDeliveries)
{
    // A storm connection's Link dies mid-run; requests still on the wire
    // must be dropped by its pipes, not delivered through the dead link.
    sim::Simulation sim(5);
    auto sock = std::make_shared<kernel::Socket>(1);
    NetemConfig netem;
    netem.delay = sim::milliseconds(1);
    {
        Link link(sim, netem, TcpConfig{}, sock, [](kernel::Message &&) {});
        for (std::uint64_t id = 1; id <= 3; ++id) {
            kernel::Message req;
            req.requestId = id;
            req.bytes = 100;
            link.sendRequest(std::move(req));
        }
    }
    sim.run();
    EXPECT_GE(sim.now(), sim::milliseconds(1)); // the deliveries fired
    EXPECT_EQ(sock->delivered(), 0u);
}

TEST(NetemExperimentTest, CombinedDelayAndLossStaysWithinSingleFaultEnvelopes)
{
    // Table II applies netem impairments one at a time; production links
    // degrade on several axes at once. 10 ms delay AND 1% loss together
    // must not interact super-linearly in the syscall-derived metrics:
    // the combined deviation from clean stays within the sum of the
    // single-fault deviations (plus a small interaction margin).
    auto run = [](sim::Tick delay, double loss) {
        core::ExperimentConfig cfg;
        cfg.workload = workload::workloadByName("data-caching");
        cfg.workload.saturationRps =
            std::min(cfg.workload.saturationRps, 4000.0);
        cfg.offeredRps = 0.8 * cfg.workload.saturationRps;
        cfg.requests = 6000;
        cfg.seed = 19;
        cfg.netem.delay = delay;
        cfg.netem.lossProbability = loss;
        return core::runExperiment(cfg);
    };

    const auto clean = run(0, 0.0);
    const auto delayed = run(sim::milliseconds(10), 0.0);
    const auto lossy = run(0, 0.01);
    const auto both = run(sim::milliseconds(10), 0.01);

    ASSERT_GT(clean.completed, 4000u);
    ASSERT_GT(both.completed, 4000u);
    ASSERT_GT(both.observedRps, 0.0);

    // Eq. 1 stays accurate: the agent reads syscall timing on the
    // server, so even the combined impairment leaves RPS_obsv tracking
    // RPS_real as tightly as under either single fault.
    auto rpsErr = [](const core::ExperimentResult &r) {
        return std::abs(r.observedRps - r.achievedRps) / r.achievedRps;
    };
    const double worst_single =
        std::max(rpsErr(delayed), rpsErr(lossy));
    EXPECT_LT(rpsErr(both),
              std::max(2.0 * worst_single, rpsErr(clean) + 0.02));

    // Eq. 2's normalized send variance inflates under loss (RTO gaps);
    // adding delay on top must stay within the single-fault envelope
    // product, not blow up multiplicatively beyond it.
    auto cv2 = [](const core::ExperimentResult &r) {
        const double mean = 1e9 / r.observedRps;
        return r.sendVarNs2 / (mean * mean);
    };
    const double worst_cv2 =
        std::max({cv2(clean), cv2(delayed), cv2(lossy)});
    EXPECT_LT(cv2(both), 3.0 * worst_cv2);

    // Latency composes additively: combined p99 is bounded by the sum
    // of the single-fault p99s plus the clean baseline.
    EXPECT_LT(both.p99Ns, delayed.p99Ns + lossy.p99Ns + clean.p99Ns);
}

// ---------------------------------------------------------------------
// Load balancer edge cases: tie-breaking, drain mid-run, degenerate
// construction.

TEST(LoadBalancerTest, LeastConnectionsTiesRotateInsteadOfPinning)
{
    LoadBalancer lb(LbPolicy::LeastConnections, 3);
    // All backends idle: ties must rotate from the cursor, so an
    // equal-load fleet degrades to round-robin rather than hammering
    // backend 0.
    EXPECT_EQ(lb.pick(), 0u);
    EXPECT_EQ(lb.pick(), 1u);
    EXPECT_EQ(lb.pick(), 2u);
    EXPECT_EQ(lb.pick(), 0u);

    // With unequal load the minimum always wins, wherever the cursor is.
    lb.onDispatch(0);
    lb.onDispatch(0);
    lb.onDispatch(2);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lb.pick(), 1u);
    lb.onDispatch(1);
    lb.onDispatch(1);
    lb.onDispatch(1);
    EXPECT_EQ(lb.pick(), 2u); // 2 has one inflight vs 0's two
}

TEST(LoadBalancerTest, DrainMidRunRoutesAroundAndRestores)
{
    LoadBalancer lb(LbPolicy::RoundRobin, 3);
    for (int i = 0; i < 3; ++i)
        lb.onDispatch(lb.pick());
    ASSERT_EQ(lb.inflight(1), 1u);

    // Drain backend 1 with a request still inflight: new picks skip it,
    // the inflight one completes normally.
    lb.setDrained(1, true);
    EXPECT_TRUE(lb.drained(1));
    EXPECT_EQ(lb.drainedCount(), 1u);
    for (int i = 0; i < 6; ++i)
        EXPECT_NE(lb.pick(), 1u);
    lb.onComplete(1);
    EXPECT_EQ(lb.inflight(1), 0u);

    // Undrain: backend 1 rejoins the rotation.
    lb.setDrained(1, false);
    EXPECT_EQ(lb.drainedCount(), 0u);
    bool saw_1 = false;
    for (int i = 0; i < 3; ++i)
        saw_1 = saw_1 || lb.pick() == 1;
    EXPECT_TRUE(saw_1);

    // Redundant drain/undrain calls are idempotent on the count.
    lb.setDrained(2, true);
    lb.setDrained(2, true);
    EXPECT_EQ(lb.drainedCount(), 1u);
    lb.setDrained(2, false);
    lb.setDrained(2, false);
    EXPECT_EQ(lb.drainedCount(), 0u);
}

TEST(LoadBalancerTest, FullyDrainedFleetDegradesToUndrainedPolicy)
{
    LoadBalancer lb(LbPolicy::LeastConnections, 2);
    lb.setDrained(0, true);
    lb.setDrained(1, true);
    // A confused controller drained everything: pick() must keep
    // working (drain flags ignored) instead of dead-ending the client.
    EXPECT_EQ(lb.pick(), 0u);
    EXPECT_EQ(lb.pick(), 1u);
    EXPECT_EQ(lb.pick(), 0u);
}

TEST(LoadBalancerTest, DegenerateConstructionAndUnknownDrainDie)
{
    EXPECT_DEATH(LoadBalancer(LbPolicy::RoundRobin, 0), "backend");
    LoadBalancer lb(LbPolicy::RoundRobin, 2);
    EXPECT_DEATH(lb.setDrained(7, true), "unknown backend");
}

} // namespace
} // namespace reqobs::net
