/**
 * @file
 * Full-stack integration tests: the observability agent against live
 * workloads, trace collection, determinism, probe overhead, and the
 * paper's headline shapes on miniature load sweeps.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "client/load_generator.hh"
#include "core/experiment.hh"
#include "core/trace.hh"
#include "workload/server_app.hh"
#include "stats/regression.hh"

namespace reqobs::core {
namespace {

ExperimentConfig
miniConfig(const std::string &name, double load_fraction,
           std::uint64_t seed = 5)
{
    ExperimentConfig cfg;
    cfg.workload = workload::workloadByName(name);
    // Shrink the workload so tests stay fast.
    cfg.workload.saturationRps = std::min(cfg.workload.saturationRps,
                                          4000.0);
    cfg.offeredRps = load_fraction * cfg.workload.saturationRps;
    cfg.requests = 6000;
    cfg.seed = seed;
    return cfg;
}

TEST(AgentIntegrationTest, ObservedRpsTracksRealRps)
{
    const auto r = runExperiment(miniConfig("data-caching", 0.6));
    ASSERT_GT(r.completed, 4000u);
    EXPECT_NEAR(r.observedRps, r.achievedRps, 0.05 * r.achievedRps);
    EXPECT_FALSE(r.samples.empty());
    EXPECT_GT(r.probeEvents, 0u);
}

TEST(AgentIntegrationTest, SelectBasedWorkloadIsObservableToo)
{
    const auto r = runExperiment(miniConfig("xapian", 0.6));
    EXPECT_NEAR(r.observedRps, r.achievedRps, 0.05 * r.achievedRps);
    EXPECT_GT(r.pollMeanDurNs, 0.0); // select durations recorded
}

TEST(AgentIntegrationTest, DeterministicForAGivenSeed)
{
    const auto a = runExperiment(miniConfig("silo", 0.7, 99));
    const auto b = runExperiment(miniConfig("silo", 0.7, 99));
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.observedRps, b.observedRps);
    EXPECT_EQ(a.p99Ns, b.p99Ns);
    EXPECT_DOUBLE_EQ(a.sendVarNs2, b.sendVarNs2);
    EXPECT_EQ(a.syscalls, b.syscalls);

    const auto c = runExperiment(miniConfig("silo", 0.7, 100));
    EXPECT_NE(a.observedRps, c.observedRps); // different seed -> new run
}

TEST(AgentIntegrationTest, PollDurationFallsWithLoad)
{
    const auto low = runExperiment(miniConfig("data-caching", 0.3));
    const auto high = runExperiment(miniConfig("data-caching", 0.9));
    EXPECT_GT(low.pollMeanDurNs, 2.0 * high.pollMeanDurNs);
}

TEST(AgentIntegrationTest, SaturationRaisesNormalizedVariance)
{
    const auto pre = runExperiment(miniConfig("data-caching", 0.7));
    const auto post = runExperiment(miniConfig("data-caching", 1.2));
    auto cv2 = [](const ExperimentResult &r) {
        const double mean = 1e9 / r.observedRps;
        return r.sendVarNs2 / (mean * mean);
    };
    EXPECT_GT(cv2(post), 2.0 * cv2(pre));
    EXPECT_TRUE(post.qosViolated);
    EXPECT_FALSE(pre.qosViolated);
}

TEST(AgentIntegrationTest, DetectorFlagsAStepIntoOverload)
{
    // The online detector learns its baseline below saturation, then the
    // load steps past it: the last samples must carry saturated=true and
    // near-zero slack.
    sim::Simulation sim(13);
    kernel::Kernel kernel(sim);
    auto wl = workload::workloadByName("data-caching");
    wl.saturationRps = 4000.0;
    workload::ServerApp app(kernel, wl);
    client::ClientConfig cc;
    cc.offeredRps = 0.5 * wl.saturationRps;
    cc.warmup = 0;
    client::LoadGenerator gen(sim, app, net::NetemConfig{},
                              net::TcpConfig{}, cc);
    ObservabilityAgent agent(kernel, app.frontPid(), profileFor(wl));
    app.start();
    agent.start();
    gen.start();
    sim.runFor(sim::seconds(2)); // learn the baseline at 50% load
    EXPECT_FALSE(agent.saturation().saturated());
    gen.setOfferedRps(1.3 * wl.saturationRps); // step into overload
    sim.runFor(sim::seconds(3));
    EXPECT_TRUE(agent.saturation().saturated());
    EXPECT_LT(agent.slackEstimator().slack(), 0.3);
    agent.stop();
    gen.stop();
}

TEST(AgentIntegrationTest, ProbeOverheadOnTailLatencyIsSmall)
{
    // §VI: "the median and upper quartile overhead remains significantly
    // below 1%".
    auto with = miniConfig("data-caching", 0.7, 17);
    auto without = with;
    without.attachAgent = false;
    const auto r_with = runExperiment(with);
    const auto r_without = runExperiment(without);
    const double overhead =
        std::abs(static_cast<double>(r_with.p99Ns) -
                 static_cast<double>(r_without.p99Ns)) /
        static_cast<double>(r_without.p99Ns);
    EXPECT_LT(overhead, 0.03);
    EXPECT_GT(r_with.probeCostNs, 0);
    EXPECT_EQ(r_without.probeEvents, 0u);
}

TEST(AgentIntegrationTest, MiniFigTwoCorrelation)
{
    // Four load points, windowed estimates -> R^2 of obs vs real.
    stats::LinearRegression reg;
    for (double frac : {0.3, 0.5, 0.7, 0.9}) {
        const auto r = runExperiment(miniConfig("data-caching", frac));
        for (const auto &s : r.samples)
            reg.add(s.rpsObsv, r.achievedRps);
    }
    const auto fit = reg.fit();
    EXPECT_GT(fit.r2, 0.90) << "n=" << fit.n;
}

TEST(TraceIntegrationTest, CollectorSeesOnlyItsProcessInOrder)
{
    sim::Simulation sim(3);
    kernel::Kernel kernel(sim);
    auto cfg = workload::workloadByName("data-caching");
    cfg.connections = 2;
    cfg.saturationRps = 2000.0;
    workload::ServerApp app(kernel, cfg);
    auto s1 = app.addConnection(1);
    auto s2 = app.addConnection(2);
    TraceCollector collector(kernel, app.frontPid());
    // A second process makes noise that must be filtered out.
    const kernel::Pid other = kernel.createProcess("noise");
    kernel.spawnThread(other,
                       [](kernel::Kernel &k, kernel::Tid tid)
                           -> kernel::Task {
                           for (int i = 0; i < 50; ++i)
                               co_await k.sleepFor(tid,
                                                   sim::microseconds(100));
                       });
    app.start();
    collector.start();
    for (int i = 1; i <= 20; ++i) {
        auto *sk = (i % 2 ? s1 : s2).get();
        kernel::Message m;
        m.requestId = static_cast<std::uint64_t>(i);
        sim.schedule(sim::microseconds(200) * i,
                     [&sim, sk, m] { sk->deliver(m, sim.now()); });
    }
    sim.runFor(sim::milliseconds(100));
    collector.stop();

    const auto &records = collector.records();
    ASSERT_GT(records.size(), 80u); // ~6 events/request + polls
    std::uint64_t prev_ts = 0;
    for (const auto &r : records) {
        EXPECT_EQ(kernel::tgidOf(r.pidTgid), app.frontPid());
        EXPECT_GE(r.ts, prev_ts); // chronological
        prev_ts = r.ts;
    }
    EXPECT_EQ(collector.drops(), 0u);
    EXPECT_FALSE(collector.format(8).empty());

    // Reconstruction on the real trace: single-request-at-a-time load
    // on an event-loop server pairs nearly perfectly (Fig. 1c).
    const auto report = reconstructTimelines(
        records, profileFor(cfg));
    EXPECT_EQ(report.requests.size(), 20u);
    EXPECT_GT(report.matchRate(), 0.95);
}

TEST(TraceIntegrationTest, RingBufferDropsAreCounted)
{
    sim::Simulation sim(3);
    kernel::Kernel kernel(sim);
    auto cfg = workload::workloadByName("data-caching");
    cfg.connections = 1;
    cfg.saturationRps = 8000.0;
    workload::ServerApp app(kernel, cfg);
    auto sock = app.addConnection(1);
    TraceConfig tc;
    tc.ringBytes = 256; // tiny: guaranteed overrun
    tc.drainPeriod = sim::seconds(10); // never drained during the run
    TraceCollector collector(kernel, app.frontPid(), tc);
    app.start();
    collector.start();
    auto *sk = sock.get();
    for (int i = 0; i < 50; ++i) {
        kernel::Message m;
        sim.schedule(sim::microseconds(100) * (i + 1),
                     [&sim, sk, m] { sk->deliver(m, sim.now()); });
    }
    sim.runFor(sim::milliseconds(50));
    EXPECT_GT(collector.drops(), 0u);
}

TEST(ExperimentTest, DefaultQosScalesWithWorkloadAndNetwork)
{
    const auto wl = workload::workloadByName("silo");
    net::NetemConfig clean, impaired;
    impaired.delay = sim::milliseconds(10);
    EXPECT_GT(defaultQosLatency(wl, impaired),
              defaultQosLatency(wl, clean) + sim::milliseconds(30));
}

TEST(ExperimentTest, LoadSweepProducesMonotoneThroughputUntilSaturation)
{
    ExperimentConfig base = miniConfig("data-caching", 0.5);
    const auto sweep = runSweepParallel(base, {0.3, 0.6, 0.9, 1.2}, {}, 1);
    ASSERT_EQ(sweep.size(), 4u);
    EXPECT_LT(sweep[0].result.achievedRps, sweep[1].result.achievedRps);
    EXPECT_LT(sweep[1].result.achievedRps, sweep[2].result.achievedRps);
    // Past saturation throughput plateaus (within 15%).
    EXPECT_NEAR(sweep[3].result.achievedRps,
                base.workload.saturationRps,
                0.15 * base.workload.saturationRps);
    // p99 explodes across the QoS knee.
    EXPECT_GT(sweep[3].result.p99Ns, 3 * sweep[0].result.p99Ns);
}

} // namespace
} // namespace reqobs::core
