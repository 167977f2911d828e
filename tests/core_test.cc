/**
 * @file
 * Core-library tests: windowed statistics math (Eq. 1 / Eq. 2), the
 * estimators, syscall profiles, and per-request timeline reconstruction.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimators.hh"
#include "core/profile.hh"
#include "core/trace.hh"
#include "kernel/syscalls.hh"

namespace reqobs::core {
namespace {

using ebpf::probes::StreamRecord;
using ebpf::probes::SyscallStats;
using kernel::Syscall;
using kernel::syscallId;

/** Accumulate samples into cumulative SyscallStats like the probe does. */
SyscallStats
accumulate(const std::vector<std::uint64_t> &deltas, unsigned shift)
{
    SyscallStats s{};
    for (std::uint64_t d : deltas) {
        ++s.count;
        s.sumNs += d;
        const std::uint64_t q = d >> shift;
        s.sumSqQ += q * q;
    }
    return s;
}

TEST(DiffStatsTest, RecoversMeanAndVariance)
{
    const std::vector<std::uint64_t> deltas = {
        1'000'000, 1'200'000, 800'000, 1'500'000, 900'000, 1'100'000};
    const auto s = accumulate(deltas, ebpf::probes::kDeltaShift);
    const auto w = diffStats(SyscallStats{}, s);
    EXPECT_EQ(w.count, deltas.size());
    double mean = 0;
    for (auto d : deltas)
        mean += static_cast<double>(d);
    mean /= deltas.size();
    EXPECT_NEAR(w.meanNs, mean, 1.0);
    double var = 0;
    for (auto d : deltas)
        var += (d - mean) * (d - mean);
    var /= deltas.size();
    EXPECT_NEAR(w.varianceNs2, var, 0.05 * var);
    EXPECT_NEAR(w.cvSquared(), var / (mean * mean), 0.05);
}

TEST(DiffStatsTest, WindowDifferencing)
{
    const std::vector<std::uint64_t> first = {1000, 2000, 3000};
    std::vector<std::uint64_t> all = first;
    const std::vector<std::uint64_t> second = {500'000, 600'000};
    all.insert(all.end(), second.begin(), second.end());
    const auto older = accumulate(first, 10);
    const auto newer = accumulate(all, 10);
    const auto w = diffStats(older, newer);
    EXPECT_EQ(w.count, 2u);
    EXPECT_NEAR(w.meanNs, 550'000.0, 1.0);
}

TEST(DiffStatsTest, EmptyAndBackwardWindows)
{
    SyscallStats a{};
    a.count = 5;
    SyscallStats b{};
    b.count = 5;
    EXPECT_EQ(diffStats(a, b).count, 0u);
    b.count = 3; // would be negative
    EXPECT_EQ(diffStats(a, b).count, 0u);
}

TEST(RpsEstimatorTest, EqOneOnWindows)
{
    // Deltas averaging 1 ms -> 1000 rps.
    DeltaWindow w;
    w.count = 2048;
    w.meanNs = 1e6;
    EXPECT_DOUBLE_EQ(rpsFromWindow(w), 1000.0);

    RpsEstimator est;
    est.observe(w);
    DeltaWindow w2;
    w2.count = 2048;
    w2.meanNs = 0.5e6; // 2000 rps window
    est.observe(w2);
    EXPECT_DOUBLE_EQ(est.currentRps(), 2000.0);
    // Overall: 4096 deltas spanning 2048*(1ms + 0.5ms).
    EXPECT_NEAR(est.overallRps(), 4096.0 / (2048.0 * 1.5e-3), 1.0);
    EXPECT_EQ(est.windows(), 2u);
}

TEST(LostEventsTest, ShareOneRestoresTheExactInProgramLoss)
{
    // The single-agent path: one tenant owns the whole program, so it
    // claims share 1.0 of the in-program loss and gets the integer back
    // exactly, up to 2^52 - 1.
    const LossSnap snap{100, 40, 1000};
    for (std::uint64_t d : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{7}, std::uint64_t{123456789},
                            (std::uint64_t{1} << 52) - 1}) {
        SCOPED_TRACE(d);
        const LossSnap now{snap.loss + d, snap.misses, snap.runs + 4000};
        EXPECT_EQ(lostEvents(now, snap, 500, 1.0), d);
        // Ten missed runs in 4000 runs, 500 of them this family's:
        // (500 * 10 + 2000) / 4000 = 1 more lost event.
        const LossSnap missed{now.loss + 10, now.misses + 10, now.runs};
        EXPECT_EQ(lostEvents(missed, snap, 500, 1.0), d + 1);
    }
}

TEST(LostEventsTest, TenantSharesOfOneProgramSumToItsLoss)
{
    // Tenants sharing one program split its in-program loss by their
    // share of the tick's fresh events; each share rounds to the nearest
    // event, so the parts sum to the total within half an event each.
    const LossSnap snap{};
    for (std::uint64_t total : {std::uint64_t{1}, std::uint64_t{997},
                                std::uint64_t{1000003}}) {
        for (const std::vector<std::uint64_t> &fresh :
             {std::vector<std::uint64_t>{5003, 2999, 1998},
              std::vector<std::uint64_t>{1, 1, 1, 1, 1, 1, 1},
              std::vector<std::uint64_t>{7, 9000}}) {
            std::uint64_t all = 0;
            for (std::uint64_t f : fresh)
                all += f;
            const LossSnap now{total, 0, all};
            std::uint64_t sum = 0;
            for (std::uint64_t f : fresh)
                sum += lostEvents(now, snap, f,
                                  static_cast<double>(f) /
                                      static_cast<double>(all));
            EXPECT_LE(std::fabs(static_cast<double>(sum) -
                                static_cast<double>(total)),
                      0.5 * static_cast<double>(fresh.size()))
                << "total " << total << ", " << fresh.size() << " tenants";
        }
    }
}

TEST(SaturationDetectorTest, FlagsOnSustainedCvBlowup)
{
    SaturationConfig cfg;
    cfg.baselineWindows = 3;
    cfg.varianceFactor = 3.0;
    cfg.consecutive = 2;
    SaturationDetector det(cfg);

    auto window = [](double mean, double cv2) {
        DeltaWindow w;
        w.count = 1000;
        w.meanNs = mean;
        w.varianceNs2 = cv2 * mean * mean;
        return w;
    };

    // Baseline: Poisson-like CV² ~ 1 at decreasing mean (rising load).
    EXPECT_FALSE(det.observe(window(1e6, 1.0)));
    EXPECT_FALSE(det.observe(window(0.8e6, 1.1)));
    EXPECT_FALSE(det.observe(window(0.6e6, 0.9)));
    EXPECT_NEAR(det.baselineVariance(), 1.0, 0.2);
    // Load rises but behaviour stays Poisson: no alarm even though raw
    // variance changed by 4x (this is why the detector uses CV²).
    EXPECT_FALSE(det.observe(window(0.5e6, 1.0)));
    // Saturation: deltas clump.
    EXPECT_FALSE(det.observe(window(0.45e6, 6.0))); // first hot window
    EXPECT_TRUE(det.observe(window(0.45e6, 6.5)));  // second -> flagged
    EXPECT_GT(det.varianceRatio(), 3.0);
    // Recovery clears the flag.
    EXPECT_FALSE(det.observe(window(0.5e6, 1.0)));
    det.reset();
    EXPECT_FALSE(det.saturated());
}

TEST(SlackEstimatorTest, MapsDurationRangeToUnitSlack)
{
    SlackEstimator slack;
    EXPECT_DOUBLE_EQ(slack.slack(), 1.0); // unprimed
    // Idle: long epoll durations.
    for (int i = 0; i < 20; ++i)
        slack.observe(10e6);
    EXPECT_DOUBLE_EQ(slack.slack(), 1.0);
    // Load ramps: durations shrink monotonically, slack falls.
    double last = 1.0;
    for (double d = 9e6; d > 0.1e6; d -= 1e6) {
        for (int i = 0; i < 10; ++i)
            slack.observe(d);
        EXPECT_LE(slack.slack(), last + 1e-9);
        last = slack.slack();
    }
    EXPECT_LT(slack.slack(), 0.15);
}

TEST(ProfileTest, GenericAndWorkloadProfiles)
{
    const auto gen = genericProfile();
    EXPECT_EQ(gen.sendFamily.size(), 3u);
    EXPECT_EQ(gen.recvFamily.size(), 3u);
    EXPECT_EQ(gen.pollSyscall, syscallId(Syscall::EpollWait));

    const auto ws = profileFor(workload::workloadByName("web-search"));
    EXPECT_EQ(ws.sendFamily,
              std::vector<std::int64_t>{syscallId(Syscall::Write)});
    EXPECT_EQ(ws.pollSyscall, syscallId(Syscall::EpollWait));
    const auto tb = profileFor(workload::workloadByName("moses"));
    EXPECT_EQ(tb.pollSyscall, syscallId(Syscall::Select));
    EXPECT_NE(tb.describe().find("select"), std::string::npos);
}

// -------------------------------------------------------- reconstruction

StreamRecord
rec(std::uint32_t tid, Syscall s, std::uint64_t ts, std::int64_t ret = 1)
{
    StreamRecord r;
    r.id = static_cast<std::uint64_t>(syscallId(s));
    r.pidTgid = kernel::makePidTgid(100, tid);
    r.ts = ts;
    r.ret = ret;
    r.point = 1; // exit
    return r;
}

TEST(ReconstructionTest, SingleThreadPairsPerfectly)
{
    // The paper's Fig. 1(c) case: one thread, recv->send cycles.
    std::vector<StreamRecord> records;
    for (int i = 0; i < 5; ++i) {
        records.push_back(rec(1, Syscall::Recvfrom, 1000 + i * 100));
        records.push_back(rec(1, Syscall::Sendto, 1040 + i * 100));
    }
    const auto report = reconstructTimelines(records, genericProfile());
    EXPECT_EQ(report.requests.size(), 5u);
    EXPECT_EQ(report.unmatchedSends, 0u);
    EXPECT_EQ(report.nestedRecvs, 0u);
    EXPECT_DOUBLE_EQ(report.matchRate(), 1.0);
    EXPECT_DOUBLE_EQ(report.meanServiceNs(), 40.0);
}

TEST(ReconstructionTest, InterleavedThreadsStillPairPerThread)
{
    std::vector<StreamRecord> records;
    records.push_back(rec(1, Syscall::Recvfrom, 100));
    records.push_back(rec(2, Syscall::Recvfrom, 110));
    records.push_back(rec(2, Syscall::Sendto, 150));
    records.push_back(rec(1, Syscall::Sendto, 200));
    const auto report = reconstructTimelines(records, genericProfile());
    ASSERT_EQ(report.requests.size(), 2u);
    EXPECT_EQ(report.requests[0].tid, 2u);
    EXPECT_EQ(report.requests[0].serviceNs(), 40);
    EXPECT_EQ(report.requests[1].tid, 1u);
    EXPECT_EQ(report.requests[1].serviceNs(), 100);
}

TEST(ReconstructionTest, DetectsWhereTheNaiveModelBreaks)
{
    // Request handed off across threads: recv on tid 1, send on tid 2 —
    // the §III failure mode.
    std::vector<StreamRecord> records;
    records.push_back(rec(1, Syscall::Recvfrom, 100));
    records.push_back(rec(2, Syscall::Sendto, 150)); // unmatched
    // Pipelined thread: two recvs before the send.
    records.push_back(rec(3, Syscall::Recvfrom, 200));
    records.push_back(rec(3, Syscall::Recvfrom, 210)); // nested
    records.push_back(rec(3, Syscall::Sendto, 250));
    const auto report = reconstructTimelines(records, genericProfile());
    EXPECT_EQ(report.unmatchedSends, 1u);
    EXPECT_EQ(report.nestedRecvs, 1u);
    EXPECT_EQ(report.requests.size(), 1u);
    EXPECT_LT(report.matchRate(), 1.0);
}

TEST(ReconstructionTest, IgnoresFailedRecvsAndEnterEvents)
{
    std::vector<StreamRecord> records;
    records.push_back(rec(1, Syscall::Recvfrom, 100, -11)); // EAGAIN
    StreamRecord enter = rec(1, Syscall::Recvfrom, 120);
    enter.point = 0;
    records.push_back(enter);
    records.push_back(rec(1, Syscall::Sendto, 150));
    const auto report = reconstructTimelines(records, genericProfile());
    EXPECT_EQ(report.requests.size(), 0u);
    EXPECT_EQ(report.unmatchedSends, 1u);
}

} // namespace
} // namespace reqobs::core
