/**
 * @file
 * Experiment-harness contract tests: the ExperimentResult append-only
 * layout rule (see the GROWTH DISCIPLINE comment on the struct) and the
 * shared sweep-point derivation used by both the harness default and
 * the bench profile.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "../bench/bench_util.hh"
#include "core/experiment.hh"

namespace reqobs::core {
namespace {

// The bench binaries emit these fields positionally; renaming or
// retyping any of them is a silent output-format break, so pin the
// types at compile time.
static_assert(std::is_same_v<decltype(ExperimentResult::offeredRps), double>);
static_assert(std::is_same_v<decltype(ExperimentResult::achievedRps), double>);
static_assert(std::is_same_v<decltype(ExperimentResult::observedRps), double>);
static_assert(
    std::is_same_v<decltype(ExperimentResult::completed), std::uint64_t>);
static_assert(
    std::is_same_v<decltype(ExperimentResult::syscalls), std::uint64_t>);
static_assert(
    std::is_same_v<decltype(ExperimentResult::probeCostNs), std::int64_t>);

TEST(ExperimentResultLayout, FieldsStayInDeclarationOrder)
{
    // ExperimentResult is append-only: existing fields must keep their
    // relative order, and new fields must land after them. The struct
    // holds non-trivial members, so offsetof is out; member addresses
    // within one instance carry the same information.
    ExperimentResult r;
    const auto at = [&](const void *p) {
        return static_cast<std::uintptr_t>(
            reinterpret_cast<const char *>(p) -
            reinterpret_cast<const char *>(&r));
    };
    const std::vector<std::uintptr_t> offsets = {
        at(&r.offeredRps),     at(&r.achievedRps),
        at(&r.observedRps),    at(&r.completed),
        at(&r.p50Ns),          at(&r.p95Ns),
        at(&r.p99Ns),          at(&r.qosViolated),
        at(&r.sendVarNs2),     at(&r.recvVarNs2),
        at(&r.pollMeanDurNs),  at(&r.syscalls),
        at(&r.probeEvents),    at(&r.probeInsns),
        at(&r.probeCostNs),    at(&r.samples),
        at(&r.faultCounts),    at(&r.agentHealth),
        at(&r.probeMapUpdateFails), at(&r.probeRingbufDrops),
        at(&r.supervisorStats),     at(&r.frontDoorCounts),
        at(&r.stormConnP99Ns),      at(&r.probeSendSyscalls),
        at(&r.tenantSyscalls),
    };
    EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end()))
        << "ExperimentResult fields were reordered; the struct is "
           "append-only (see its GROWTH DISCIPLINE comment)";
}

/** Base config the derivation tests share. */
ExperimentConfig
baseConfig()
{
    ExperimentConfig base;
    base.workload = workload::workloadByName("img-dnn");
    base.seed = 7;
    base.agent.minWindowSyscalls = 512;
    return base;
}

TEST(SweepPointConfig, HarnessDefaultAndBenchProfileShareTheDerivation)
{
    const ExperimentConfig base = baseConfig();
    const SweepScaling harness{};
    const SweepScaling bench_prof = bench::benchScaling();

    for (double frac : {0.4, 0.8, 1.0, 1.3}) {
        const ExperimentConfig h = sweepPointConfig(base, frac, harness);
        const ExperimentConfig b = sweepPointConfig(base, frac, bench_prof);

        // The load-point rate itself is profile-independent.
        const double offered = frac * base.workload.saturationRps;
        EXPECT_DOUBLE_EQ(h.offeredRps, offered);
        EXPECT_DOUBLE_EQ(b.offeredRps, offered);

        // Both derive requests from the same clamp, with each profile's
        // documented constants (harness 8x/4k-80k, bench 4x/2.5k-25k).
        EXPECT_EQ(h.requests,
                  static_cast<std::uint64_t>(
                      std::clamp(offered * 8.0, 4000.0, 80000.0)));
        EXPECT_EQ(b.requests,
                  static_cast<std::uint64_t>(
                      std::clamp(offered * 4.0, 2500.0, 25000.0)));

        // Everything outside the documented window knobs is untouched
        // by both profiles.
        EXPECT_EQ(h.workload.name, b.workload.name);
        EXPECT_EQ(h.qosLatency, b.qosLatency);
        EXPECT_EQ(h.agent.minWindowSyscalls, b.agent.minWindowSyscalls);
        EXPECT_EQ(h.attachAgent, b.attachAgent);
    }
}

TEST(SweepPointConfig, HarnessDefaultLeavesWindowKnobsAlone)
{
    const ExperimentConfig base = baseConfig();
    const ExperimentConfig h = sweepPointConfig(base, 1.0, SweepScaling{});
    EXPECT_EQ(h.warmup, base.warmup);
    EXPECT_EQ(h.agent.samplePeriod, base.agent.samplePeriod);
    EXPECT_EQ(h.seed, base.seed);
}

TEST(SweepPointConfig, BenchProfileScalesWindowKnobs)
{
    const ExperimentConfig base = baseConfig();
    const double frac = 1.0;
    const ExperimentConfig b =
        sweepPointConfig(base, frac, bench::benchScaling());

    const double window_s =
        static_cast<double>(b.requests) / b.offeredRps;
    EXPECT_EQ(b.warmup,
              std::min<sim::Tick>(base.warmup, static_cast<sim::Tick>(
                                                   window_s * 0.2 * 1e9)));
    EXPECT_EQ(b.agent.samplePeriod,
              std::min<sim::Tick>(base.agent.samplePeriod,
                                  static_cast<sim::Tick>(window_s * 0.1 *
                                                         1e9)));
    EXPECT_EQ(b.seed,
              base.seed + static_cast<std::uint64_t>(frac * 1000.0));
}

} // namespace
} // namespace reqobs::core
