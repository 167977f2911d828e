/**
 * @file
 * Chaos tests for the supervised agent lifecycle: clean-run identity
 * under supervision, crash/restart recovery with checkpoint + map
 * restore, wipe discontinuity handling, the stall watchdog, the
 * circuit breaker with deterministic jittered backoff, and the
 * loss-aware window correction.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "client/load_generator.hh"
#include "core/experiment.hh"
#include "core/profile.hh"
#include "core/supervisor.hh"
#include "fault/fault.hh"
#include "workload/server_app.hh"

namespace reqobs {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::MetricsSample;

ExperimentConfig
supConfig(const std::string &workload_name, double load_fraction,
          std::uint64_t seed = 17)
{
    ExperimentConfig cfg;
    cfg.workload = workload::workloadByName(workload_name);
    cfg.workload.saturationRps =
        std::min(cfg.workload.saturationRps, 4000.0);
    cfg.offeredRps = load_fraction * cfg.workload.saturationRps;
    cfg.requests = 6000;
    cfg.seed = seed;
    return cfg;
}

/**
 * The acceptance shape for every recovered stream: no window may carry
 * a discontinuity artifact (an outage- or wipe-spanning delta shows up
 * as a wildly inflated mean / variance / count).
 */
void
expectNoCorruptWindows(const ExperimentResult &r)
{
    for (const MetricsSample &s : r.samples) {
        EXPECT_TRUE(std::isfinite(s.send.meanNs));
        EXPECT_GE(s.send.meanNs, 0.0);
        EXPECT_LT(s.send.meanNs, 1e8); // any outage delta would be >=1e8
        EXPECT_TRUE(std::isfinite(s.send.varianceNs2));
        EXPECT_GE(s.send.varianceNs2, 0.0);
        EXPECT_LT(s.send.varianceNs2, 1e18);
        EXPECT_LT(s.send.count, 1000000u); // a u64-wrap delta explodes it
        EXPECT_TRUE(std::isfinite(s.rpsObsv));
        EXPECT_GE(s.rpsObsv, 0.0);
    }
}

TEST(SupervisorTest, SupervisedCleanRunMatchesPlainAgent)
{
    // Supervision without faults must be a pure pass-through: the
    // supervisor's jitter RNG is forked but never drawn from, so the
    // sample stream and every aggregate are bit-identical.
    ExperimentConfig plain = supConfig("data-caching", 0.7);
    ExperimentConfig supervised = plain;
    supervised.supervised = true;
    const auto a = runExperiment(plain);
    const auto b = runExperiment(supervised);

    ASSERT_EQ(a.samples.size(), b.samples.size());
    ASSERT_GT(a.samples.size(), 0u);
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].t, b.samples[i].t);
        EXPECT_EQ(a.samples[i].send.count, b.samples[i].send.count);
        EXPECT_EQ(a.samples[i].send.meanNs, b.samples[i].send.meanNs);
        EXPECT_EQ(a.samples[i].rpsObsv, b.samples[i].rpsObsv);
    }
    EXPECT_EQ(a.observedRps, b.observedRps);
    EXPECT_EQ(a.sendVarNs2, b.sendVarNs2);
    EXPECT_EQ(a.achievedRps, b.achievedRps);
    EXPECT_EQ(b.supervisorStats.crashes, 0u);
    EXPECT_EQ(b.supervisorStats.restarts, 0u);
    EXPECT_EQ(b.supervisorStats.downtime, 0u);
    EXPECT_GT(b.supervisorStats.checkpoints, 0u);
}

TEST(SupervisorTest, CrashRestartRecoversTheMetricStream)
{
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.fault.agentCrashMtbf = sim::milliseconds(400);
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(50);
    cfg.supervisor.restartBackoffMax = sim::milliseconds(200);
    const auto r = runExperiment(cfg);

    const auto &ss = r.supervisorStats;
    EXPECT_GT(ss.crashes, 0u);
    EXPECT_GT(ss.restarts, 0u);
    EXPECT_GT(ss.checkpoints, 0u);
    EXPECT_GT(ss.restores, 0u);
    EXPECT_GT(ss.downtime, 0u);
    EXPECT_FALSE(ss.circuitOpen);
    // The stream survives: samples keep coming and the whole-run Eq. 1
    // aggregate still tracks ground truth.
    EXPECT_GT(r.samples.size(), 5u);
    EXPECT_NEAR(r.observedRps, r.achievedRps, 0.10 * r.achievedRps);
    expectNoCorruptWindows(r);
}

TEST(SupervisorTest, CrashyClean400msRunsAreDeterministic)
{
    ExperimentConfig cfg = supConfig("xapian", 0.8, 23);
    cfg.fault.agentCrashMtbf = sim::milliseconds(300);
    const auto a = runExperiment(cfg);
    const auto b = runExperiment(cfg);

    EXPECT_EQ(a.supervisorStats.crashes, b.supervisorStats.crashes);
    EXPECT_EQ(a.supervisorStats.restarts, b.supervisorStats.restarts);
    EXPECT_EQ(a.supervisorStats.downtime, b.supervisorStats.downtime);
    EXPECT_EQ(a.supervisorStats.checkpoints,
              b.supervisorStats.checkpoints);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].t, b.samples[i].t);
        EXPECT_EQ(a.samples[i].rpsObsv, b.samples[i].rpsObsv);
    }
}

TEST(SupervisorTest, MapWipeTearsOnlyTheTornWindow)
{
    // Every restart loses the kernel map state: each wiped window is
    // torn down (a discontinuity), and no wiped counter reset ever
    // reaches an emitted window as a huge or negative delta.
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.fault.agentCrashMtbf = sim::milliseconds(500);
    cfg.fault.mapWipeOnRestartProbability = 1.0;
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(20);
    const auto r = runExperiment(cfg);

    const auto &ss = r.supervisorStats;
    EXPECT_GT(ss.crashes, 0u);
    EXPECT_EQ(ss.mapWipes, ss.restarts);
    EXPECT_GT(r.agentHealth.discontinuities, 0u);
    EXPECT_GT(r.samples.size(), 0u);
    expectNoCorruptWindows(r);
}

TEST(SupervisorTest, WatchdogRecoversAStalledSampler)
{
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.requests = 12000; // long enough for stall + detection + recovery
    cfg.fault.samplerStallMtbf = sim::milliseconds(600);
    cfg.supervisor.stallTimeoutTicks = 3;
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(20);
    const auto r = runExperiment(cfg);

    const auto &ss = r.supervisorStats;
    EXPECT_GT(r.faultCounts.samplerStalls, 0u);
    EXPECT_GT(ss.stallsDetected, 0u);
    EXPECT_GT(ss.restarts, 0u);
    // Samples resume after every detected stall.
    EXPECT_GT(r.samples.size(), 3u);
    expectNoCorruptWindows(r);
}

TEST(SupervisorTest, CircuitBreakerOpensAfterRepeatedAttachFailures)
{
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.supervised = true;
    cfg.fault.attachFailProbability = 1.0; // every program, every start
    const auto r = runExperiment(cfg);

    const auto &ss = r.supervisorStats;
    EXPECT_TRUE(ss.circuitOpen);
    EXPECT_EQ(ss.failedStarts, cfg.supervisor.circuitBreakerThreshold);
    EXPECT_EQ(ss.restarts, 0u);
    EXPECT_EQ(r.samples.size(), 0u);
    // The observed application never notices its observer giving up.
    EXPECT_GT(r.completed, 4000u);
    EXPECT_GT(r.achievedRps, 0.0);
}

TEST(SupervisorTest, BackoffDelaysAreJitteredExponentialAndDeterministic)
{
    // Drive the supervisor directly so the spacing of the start
    // attempts is visible: with initial 10ms, factor 2 and jitter 0.2,
    // attempt gaps must land in [80%, 120%] of 10, 20, 40, 80 ms.
    auto run = [](std::vector<sim::Tick> &starts) {
        sim::Simulation sim(31);
        fault::FaultPlan plan;
        plan.attachFailProbability = 1.0;
        fault::FaultInjector inj(plan, sim.forkRng());
        kernel::Kernel kernel(sim);
        kernel.setFaultInjector(&inj);
        const auto wl = workload::workloadByName("data-caching");
        workload::ServerApp app(kernel, wl);
        core::AgentConfig ac;
        ac.tolerateAttachFailures = true;
        core::Supervisor sup(kernel, app.frontPid(), core::profileFor(wl),
                             ac, core::SupervisorConfig{}, &inj,
                             sim.forkRng());
        // The app never starts: with every attach failing, the breaker
        // trips on an idle kernel just the same.
        sup.start();
        sim.runFor(sim::seconds(2));
        EXPECT_TRUE(sup.stats().circuitOpen);
        starts = sup.startTimes();
        sup.stop();
    };

    std::vector<sim::Tick> a, b;
    run(a);
    run(b);
    EXPECT_EQ(a, b); // seeded jitter: bit-identical schedules
    ASSERT_EQ(a.size(), 5u);
    const double expected_ms[] = {10.0, 20.0, 40.0, 80.0};
    for (std::size_t i = 0; i + 1 < a.size(); ++i) {
        const double gap_ms =
            static_cast<double>(a[i + 1] - a[i]) / 1e6;
        EXPECT_GE(gap_ms, 0.8 * expected_ms[i]);
        EXPECT_LE(gap_ms, 1.2 * expected_ms[i]);
    }
}

TEST(SupervisorTest, CorrectForLossDebiasesMeanAndVariance)
{
    // Merge-thinning: N observed deltas whose spans absorbed L lost
    // events have mean and variance inflated by k = (N+L)/N.
    core::DeltaWindow w;
    w.count = 900;
    w.meanNs = 1111.1;
    w.varianceNs2 = 5000.0;
    const auto c = core::correctForLoss(w, 100);
    EXPECT_EQ(c.count, 1000u);
    EXPECT_NEAR(c.meanNs, 1000.0, 1.0);
    EXPECT_NEAR(c.varianceNs2, 4500.0, 1.0);

    // Zero loss (or an empty window) is exactly inert.
    const auto same = core::correctForLoss(w, 0);
    EXPECT_EQ(same.count, w.count);
    EXPECT_EQ(same.meanNs, w.meanNs);
    const core::DeltaWindow empty;
    EXPECT_EQ(core::correctForLoss(empty, 50).count, 0u);
}

TEST(SupervisorTest, LossAwareCorrectionRecoversEq1UnderProbeMisses)
{
    // 20% of probe runs are missed by the kernel. The raw pipeline
    // undercounts Eq. 1 roughly in proportion; the loss-aware pipeline
    // scales the missed-run counter by the family's share of arrivals
    // and lands near truth.
    auto arm = [](bool loss_aware) {
        ExperimentConfig cfg = supConfig("data-caching", 0.7);
        cfg.fault.probeMissProbability = 0.2;
        cfg.autoHarden = false;
        cfg.agent.tolerateAttachFailures = true;
        cfg.agent.guardedProbes = true;
        cfg.agent.staleBackoff = true;
        cfg.agent.lossAware = loss_aware;
        return runExperiment(cfg);
    };
    auto windowedErr = [](const ExperimentResult &r) {
        double obs = 0.0;
        int n = 0;
        for (const auto &s : r.samples) {
            if (s.rpsObsv > 0.0) {
                obs += s.rpsObsv;
                ++n;
            }
        }
        EXPECT_GT(n, 0);
        return (obs / n - r.achievedRps) / r.achievedRps;
    };

    const auto raw = arm(false);
    const auto corrected = arm(true);
    EXPECT_GT(raw.agentHealth.probeMisses, 0u);
    EXPECT_EQ(raw.agentHealth.lossCorrectedEvents, 0u);
    EXPECT_GT(corrected.agentHealth.lossCorrectedEvents, 0u);
    EXPECT_LT(windowedErr(raw), -0.10);            // ~-20% undercount
    EXPECT_NEAR(windowedErr(corrected), 0.0, 0.05); // de-biased
    expectNoCorruptWindows(corrected);
}

TEST(SupervisorTest, MapSnapshotRestoreRoundTrips)
{
    // Run a supervised crashy experiment whose every restart restores
    // the previous incarnation's map image; the cumulative kernel
    // counters must keep rising monotonically across all samples.
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.fault.agentCrashMtbf = sim::milliseconds(300);
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(20);
    const auto r = runExperiment(cfg);
    ASSERT_GT(r.supervisorStats.restarts, 0u);
    ASSERT_GT(r.samples.size(), 1u);
    // Windowed counts reflect continued accumulation, not resets: the
    // sum of window counts cannot exceed the total syscalls dispatched.
    std::uint64_t total = 0;
    for (const auto &s : r.samples)
        total += s.send.count;
    EXPECT_LE(total, r.syscalls);
    EXPECT_GT(total, 0u);
}

TEST(SupervisorTest, JobsEnvParsingRejectsGarbageAndClampsCeiling)
{
    auto with_env = [](const char *jobs, const char *threads) {
        if (jobs)
            ::setenv("REQOBS_JOBS", jobs, 1);
        else
            ::unsetenv("REQOBS_JOBS");
        if (threads)
            ::setenv("REQOBS_THREADS", threads, 1);
        else
            ::unsetenv("REQOBS_THREADS");
        const unsigned n = core::parallelJobsFromEnv();
        ::unsetenv("REQOBS_JOBS");
        ::unsetenv("REQOBS_THREADS");
        return n;
    };

    EXPECT_EQ(with_env(nullptr, nullptr), 0u);
    EXPECT_EQ(with_env("12", nullptr), 12u);
    EXPECT_EQ(with_env(nullptr, "6"), 0u); // the old name is ignored
    EXPECT_EQ(with_env("4", "9"), 4u);
    EXPECT_EQ(with_env("abc", nullptr), 0u);
    EXPECT_EQ(with_env("12abc", nullptr), 0u);
    EXPECT_EQ(with_env("", nullptr), 0u);
    EXPECT_EQ(with_env("-3", nullptr), 0u);
    EXPECT_EQ(with_env("+7", nullptr), 0u);
    EXPECT_EQ(with_env("999999999999999999999999", nullptr), 0u);
    EXPECT_EQ(with_env("9999", nullptr), 256u); // clamped to the ceiling
}

} // namespace
} // namespace reqobs
