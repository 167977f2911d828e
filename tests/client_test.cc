/**
 * @file
 * Load-generator tests: open-loop Poisson arrivals, latency recording
 * through the impaired loopback, QoS detection, chunked responses and
 * connection resets.
 */

#include <gtest/gtest.h>

#include "client/load_generator.hh"
#include "fault/fault.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/server_app.hh"

namespace reqobs::client {
namespace {

struct Rig
{
    sim::Simulation sim{21};
    kernel::Kernel kernel;
    workload::ServerApp app;

    explicit Rig(const std::string &workload_name = "data-caching",
                 double saturation = 5000.0)
        : kernel(sim),
          app(kernel,
              [&] {
                  auto cfg = workload::workloadByName(workload_name);
                  cfg.connections = 4;
                  cfg.saturationRps = saturation;
                  return cfg;
              }())
    {}
};

TEST(LoadGeneratorTest, ArrivalCountTracksOfferedRate)
{
    Rig rig;
    ClientConfig cc;
    cc.offeredRps = 2000.0;
    cc.warmup = 0;
    LoadGenerator gen(rig.sim, rig.app, net::NetemConfig{}, net::TcpConfig{},
                      cc);
    rig.app.start();
    gen.start();
    rig.sim.runFor(sim::seconds(2));
    // Poisson(4000) arrivals in 2s: within a few standard deviations.
    EXPECT_NEAR(static_cast<double>(gen.sent()), 4000.0, 300.0);
}

TEST(LoadGeneratorTest, CompletesAndMeasuresLatency)
{
    Rig rig;
    ClientConfig cc;
    cc.offeredRps = 1000.0;
    cc.maxRequests = 1500;
    cc.warmup = sim::milliseconds(50);
    LoadGenerator gen(rig.sim, rig.app, net::NetemConfig{}, net::TcpConfig{},
                      cc);
    rig.app.start();
    gen.start();
    rig.sim.runFor(sim::seconds(4));
    EXPECT_EQ(gen.sent(), 1500u);
    EXPECT_GT(gen.completed(), 1200u);
    EXPECT_GT(gen.latencies().count(), 0u);
    EXPECT_GT(gen.p99(), 0u);
    // At 20% load the achieved rate matches the offered rate.
    EXPECT_NEAR(gen.achievedRps(), 1000.0, 120.0);
    EXPECT_FALSE(gen.qosViolated());
}

TEST(LoadGeneratorTest, NetworkDelayShowsUpInLatencyOnly)
{
    // Two identical runs, one with 10ms one-way delay: p50 shifts by
    // ~2x the delay, the completion rate does not.
    double p50_clean = 0, p50_delayed = 0, rps_clean = 0, rps_delayed = 0;
    for (int delayed = 0; delayed < 2; ++delayed) {
        Rig rig;
        ClientConfig cc;
        cc.offeredRps = 500.0;
        cc.maxRequests = 800;
        cc.warmup = sim::milliseconds(50);
        net::NetemConfig netem;
        if (delayed)
            netem.delay = sim::milliseconds(10);
        LoadGenerator gen(rig.sim, rig.app, netem, net::TcpConfig{}, cc);
        rig.app.start();
        gen.start();
        rig.sim.runFor(sim::seconds(4));
        if (delayed) {
            p50_delayed = static_cast<double>(gen.latencies().p50());
            rps_delayed = gen.achievedRps();
        } else {
            p50_clean = static_cast<double>(gen.latencies().p50());
            rps_clean = gen.achievedRps();
        }
    }
    EXPECT_NEAR(p50_delayed - p50_clean,
                static_cast<double>(sim::milliseconds(20)),
                static_cast<double>(sim::milliseconds(2)));
    EXPECT_NEAR(rps_delayed, rps_clean, 0.1 * rps_clean);
}

TEST(LoadGeneratorTest, QosViolationDetected)
{
    Rig rig;
    ClientConfig cc;
    cc.offeredRps = 800.0;
    cc.maxRequests = 1000;
    cc.warmup = sim::milliseconds(50);
    cc.qosLatency = sim::microseconds(1); // impossible target
    LoadGenerator gen(rig.sim, rig.app, net::NetemConfig{}, net::TcpConfig{},
                      cc);
    rig.app.start();
    gen.start();
    rig.sim.runFor(sim::seconds(3));
    EXPECT_TRUE(gen.qosViolated());
}

TEST(LoadGeneratorTest, ChunkedResponsesCountOnceAtLastChunk)
{
    Rig rig("web-search", 2000.0);
    ClientConfig cc;
    cc.offeredRps = 400.0;
    cc.maxRequests = 400;
    cc.warmup = 0;
    LoadGenerator gen(rig.sim, rig.app, net::NetemConfig{}, net::TcpConfig{},
                      cc);
    rig.app.start();
    gen.start();
    rig.sim.runFor(sim::seconds(4));
    // Every request completes exactly once despite 1..3 chunks each.
    EXPECT_EQ(gen.sent(), 400u);
    EXPECT_GT(gen.completed(), 380u);
    EXPECT_LE(gen.completed(), 400u);
}

TEST(LoadGeneratorTest, ConnResetNeverReachesTheBalancer)
{
    // Half the sends die in a connection reset: they spend the arrival
    // budget and count as sent, but never complete and never enter the
    // balancer's inflight accounting.
    Rig rig;
    fault::FaultPlan plan;
    plan.connResetProbability = 0.5;
    fault::FaultInjector inj(plan, rig.sim.forkRng());
    ClientConfig cc;
    cc.offeredRps = 1000.0;
    cc.maxRequests = 1000;
    cc.warmup = 0;
    LoadGenerator gen(rig.sim, rig.app, net::NetemConfig{}, net::TcpConfig{},
                      cc, &inj);
    rig.app.start();
    gen.start();
    rig.sim.runFor(sim::seconds(3));

    const std::uint64_t resets = inj.counts().connResets;
    EXPECT_EQ(gen.arrivals(), cc.maxRequests);
    EXPECT_EQ(gen.sent(), gen.arrivals());
    EXPECT_GT(resets, 400u);
    EXPECT_LT(resets, 600u);
    EXPECT_EQ(gen.balancer().dispatched(0), gen.sent() - resets);
    EXPECT_EQ(gen.completed(), gen.balancer().dispatched(0));
    EXPECT_EQ(gen.balancer().inflight(0), 0u);
}

TEST(LoadGeneratorTest, StopHaltsArrivals)
{
    Rig rig;
    ClientConfig cc;
    cc.offeredRps = 1000.0;
    LoadGenerator gen(rig.sim, rig.app, net::NetemConfig{}, net::TcpConfig{},
                      cc);
    rig.app.start();
    gen.start();
    rig.sim.runFor(sim::milliseconds(500));
    gen.stop();
    const std::uint64_t at_stop = gen.sent();
    rig.sim.runFor(sim::seconds(1));
    EXPECT_EQ(gen.sent(), at_stop);
}

} // namespace
} // namespace reqobs::client
