/**
 * @file
 * Unit tests for the discrete-event simulation core: event queue
 * ordering, cancellation, retiming and requeueing, virtual clock semantics,
 * deterministic RNG, and the sampling distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/distributions.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace reqobs::sim {
namespace {

// ------------------------------------------------------------ EventQueue

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(now, 30);
}

TEST(EventQueueTest, TiesBreakInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelledEventsDoNotRun)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(id.pending());
    id.cancel();
    EXPECT_FALSE(id.pending());
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    EXPECT_FALSE(ran);
}

TEST(EventQueueTest, NextTickSkipsCancelled)
{
    EventQueue q;
    EventId early = q.schedule(5, [] {});
    q.schedule(10, [] {});
    early.cancel();
    EXPECT_EQ(q.nextTick(), 10);
}

TEST(EventQueueTest, EmptyQueueReportsTickMax)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), kTickMax);
    Tick now = 0;
    EXPECT_FALSE(q.popAndRun(now));
}

TEST(EventQueueTest, EventsCanRescheduleThemselves)
{
    EventQueue q;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 5)
            q.schedule(static_cast<Tick>(count * 10), tick);
    };
    q.schedule(0, tick);
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.executedCount(), 5u);
}

TEST(EventQueueTest, SizeIsExactAfterCancel)
{
    EventQueue q;
    q.schedule(10, [] {});
    EventId mid = q.schedule(20, [] {});
    q.schedule(30, [] {});
    EXPECT_EQ(q.size(), 3u);
    mid.cancel();
    EXPECT_EQ(q.size(), 2u);
    mid.cancel(); // a second cancel is inert
    EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueueTest, CancelledCapturesDieAtTheNextPopNotInsideCancel)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = token;
    EventId victim = q.schedule(20, [token] {});
    token.reset();
    bool alive_after_cancel = false;
    bool alive_in_next = true;
    q.schedule(10, [&] {
        victim.cancel();
        alive_after_cancel = !watch.expired();
    });
    q.schedule(30, [&] { alive_in_next = !watch.expired(); });
    Tick now = 0;
    ASSERT_TRUE(q.popAndRun(now)); // tick 10 cancels the tick-20 event
    EXPECT_TRUE(alive_after_cancel);
    EXPECT_FALSE(watch.expired());
    EXPECT_EQ(q.size(), 1u);
    ASSERT_TRUE(q.popAndRun(now)); // tick 30
    EXPECT_EQ(now, 30);
    EXPECT_FALSE(alive_in_next);

    // The same holds for a cancel from outside any callback.
    token = std::make_shared<int>(0);
    const std::weak_ptr<int> watch2 = token;
    EventId outside = q.schedule(40, [token] {});
    token.reset();
    bool alive_in_last = true;
    q.schedule(50, [&] { alive_in_last = !watch2.expired(); });
    outside.cancel();
    EXPECT_FALSE(watch2.expired());
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_FALSE(alive_in_last);
    EXPECT_FALSE(q.popAndRun(now));
}

TEST(EventQueueTest, StaleHandleToARecycledSlotIsInert)
{
    EventQueue q;
    Tick now = 0;
    EventId fired = q.schedule(1, [] {});
    EventId cancelled = q.schedule(2, [] {});
    cancelled.cancel();
    ASSERT_TRUE(q.popAndRun(now)); // frees both slots
    EXPECT_EQ(q.slabSize(), 2u);
    int runs = 0;
    EventId a = q.schedule(5, [&] { ++runs; });
    EventId b = q.schedule(5, [&] { ++runs; });
    EXPECT_EQ(q.slabSize(), 2u); // both slots were recycled
    EXPECT_FALSE(fired.pending());
    EXPECT_FALSE(cancelled.pending());
    fired.cancel();
    cancelled.cancel();
    EXPECT_TRUE(a.pending());
    EXPECT_TRUE(b.pending());
    EXPECT_EQ(q.size(), 2u);
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(runs, 2);
}

TEST(EventQueueTest, RetimedEventKeepsItsPlaceAmongSameTickEvents)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(0); });
    EventId earlier = q.schedule(50, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(2); });
    earlier.retime(10); // keeps its seq: after 0, ahead of 2
    q.schedule(10, [&] { order.push_back(3); });
    EventId later = q.schedule(5, [&] { order.push_back(5); });
    q.schedule(60, [&] { order.push_back(6); });
    later.retime(60); // its seq is older than 6's
    q.schedule(60, [&] { order.push_back(7); });
    EXPECT_TRUE(earlier.pending());
    EXPECT_TRUE(later.pending());
    EXPECT_EQ(q.size(), 7u);
    EXPECT_EQ(q.nextTick(), 10);
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 6, 7}));
    EXPECT_EQ(now, 60);
}

TEST(EventQueueTest, RequeuedEventTakesTheNextSeq)
{
    EventQueue q;
    std::vector<int> order;
    EventId first = q.schedule(10, [&] { order.push_back(0); });
    q.schedule(10, [&] { order.push_back(1); });
    EXPECT_TRUE(first.requeue(10)); // same tick, but now after 1
    q.schedule(10, [&] { order.push_back(2); });
    EventId late = q.schedule(30, [&] { order.push_back(3); });
    q.schedule(20, [&] { order.push_back(4); });
    EXPECT_TRUE(late.requeue(20)); // earlier tick, newest seq there
    EXPECT_EQ(q.size(), 5u);
    Tick now = 0;
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 4, 3}));
    EXPECT_EQ(now, 20);
}

TEST(EventQueueTest, RetimeIsInertOnFiredCancelledDefaultAndRunningHandles)
{
    EventQueue q;
    Tick now = 0;
    EventId none;
    none.retime(5);
    EXPECT_FALSE(none.requeue(5));
    EXPECT_FALSE(none.pending());
    int runs = 0;
    EventId fired = q.schedule(1, [&] { ++runs; });
    EventId cancelled = q.schedule(2, [&] { ++runs; });
    cancelled.cancel();
    ASSERT_TRUE(q.popAndRun(now));
    fired.retime(10);
    cancelled.retime(10);
    EXPECT_FALSE(fired.requeue(10));
    EXPECT_FALSE(cancelled.requeue(10));
    EXPECT_TRUE(q.empty());
    // Both slots are recycled; the stale handles must not move the
    // events that now occupy them.
    q.schedule(7, [&] { ++runs; });
    EventId self;
    self = q.schedule(8, [&] {
        self.retime(20); // not pending inside its own callback
        EXPECT_FALSE(self.requeue(20));
        EXPECT_FALSE(self.pending());
        ++runs;
    });
    fired.retime(30);
    cancelled.retime(30);
    EXPECT_FALSE(fired.requeue(30));
    EXPECT_FALSE(cancelled.requeue(30));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextTick(), 7);
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(now, 8);
}

TEST(EventQueueTest, ScheduledAfterRunningFollowsSchedulingOrder)
{
    EventQueue q;
    Tick now = 0;
    std::vector<bool> seen;
    EventId older = q.schedule(20, [] {});
    EventId first;
    EventId second;
    first = q.schedule(10, [&] {
        seen.push_back(older.scheduledAfterRunning());  // false
        seen.push_back(second.scheduledAfterRunning()); // true
        const EventId inner = q.schedule(10, [] {});
        seen.push_back(inner.scheduledAfterRunning());  // true
        seen.push_back(first.scheduledAfterRunning());  // running: false
    });
    second = q.schedule(10, [&] {
        seen.push_back(first.scheduledAfterRunning());  // fired: false
        seen.push_back(older.scheduledAfterRunning());  // false
    });
    // Outside any callback, before and between pops.
    EXPECT_FALSE(second.scheduledAfterRunning());
    ASSERT_TRUE(q.popAndRun(now));
    EXPECT_FALSE(second.scheduledAfterRunning());
    EXPECT_FALSE(older.scheduledAfterRunning());
    while (q.popAndRun(now)) {
    }
    EXPECT_EQ(seen,
              (std::vector<bool>{false, true, true, false, false, false}));
}

/** What QueueDiff does to pending events besides cancelling them. */
enum class Moves
{
    None,
    Retimes,  ///< retime(): a new tick, the same seq
    Requeues, ///< requeue(): a new tick and the next seq, mixed with retimes
};

/**
 * Drives an EventQueue and a std::set of pending (tick, seq) keys
 * through the same random schedule/cancel script, optionally with
 * retimes and requeues; the queue must pop exactly the set's minimum
 * every time, and the running-order query must agree with the set's
 * keys. The reference numbers seqs itself: a schedule or a requeue
 * takes the next one.
 */
class QueueDiff
{
  public:
    QueueDiff(std::uint64_t seed, Moves moves) : rng_(seed), moves_(moves)
    {}

    void
    run()
    {
        for (int i = 0; i < 64; ++i)
            schedule(static_cast<Tick>(rng_.uniformInt(8)));
        Tick now = 0;
        while (!ref_.empty()) {
            checkView();
            expected_ = *ref_.begin();
            ref_.erase(ref_.begin());
            ASSERT_TRUE(q_.popAndRun(now));
            ASSERT_EQ(fired_, handleOf_[expected_.second]);
            EXPECT_EQ(now, expected_.first);
            mutate(/*in_callback=*/false);
        }
        checkView();
        EXPECT_FALSE(q_.popAndRun(now));
        EXPECT_GT(pops_, 1000u);
        EXPECT_GT(cancels_, 200u);
        if (moves_ != Moves::None) {
            EXPECT_GT(retimed_, moves_ == Moves::Retimes ? 200u : 100u);
        }
        if (moves_ == Moves::Requeues) {
            EXPECT_GT(requeued_, 100u);
        }
    }

  private:
    EventQueue q_;
    Rng rng_;
    Moves moves_;
    std::set<std::pair<Tick, std::uint64_t>> ref_;
    std::vector<EventId> handles_;        ///< by handle number
    std::vector<Tick> when_;              ///< by handle number
    std::vector<std::uint64_t> seq_;      ///< by handle number
    std::vector<std::uint64_t> handleOf_; ///< by seq
    std::pair<Tick, std::uint64_t> expected_{0, 0};
    std::uint64_t fired_ = 0;
    Tick now_ = 0;
    std::uint64_t pops_ = 0;
    std::uint64_t cancels_ = 0;
    std::uint64_t retimed_ = 0;
    std::uint64_t requeued_ = 0;

    bool
    pendingRef(std::uint64_t h) const
    {
        return ref_.count({when_[h], seq_[h]}) == 1;
    }

    void
    schedule(Tick when)
    {
        const std::uint64_t h = handles_.size();
        handles_.push_back(q_.schedule(when, [this, h] { fire(h); }));
        when_.push_back(when);
        seq_.push_back(handleOf_.size());
        handleOf_.push_back(h);
        ref_.emplace(when, seq_[h]);
    }

    /** Cancel a handle: pending, already fired or already cancelled. */
    void
    cancel(std::uint64_t h)
    {
        cancels_ += ref_.erase({when_[h], seq_[h]});
        handles_[h].cancel();
    }

    /** Retime a handle; only a pending event moves. */
    void
    retime(std::uint64_t h, Tick when)
    {
        if (ref_.erase({when_[h], seq_[h]}) == 1) {
            ref_.emplace(when, seq_[h]);
            when_[h] = when;
            ++retimed_;
        }
        handles_[h].retime(when);
    }

    /** Requeue a handle; a pending event moves and takes the next seq. */
    void
    requeue(std::uint64_t h, Tick when)
    {
        const bool pending = ref_.erase({when_[h], seq_[h]}) == 1;
        if (pending) {
            seq_[h] = handleOf_.size();
            handleOf_.push_back(h);
            when_[h] = when;
            ref_.emplace(when, seq_[h]);
            ++requeued_;
        }
        EXPECT_EQ(handles_[h].requeue(when), pending);
    }

    void
    fire(std::uint64_t h)
    {
        fired_ = h;
        now_ = expected_.first;
        ++pops_;
        EXPECT_FALSE(handles_[h].pending());
        handles_[h].cancel(); // self-cancel is a no-op
        handles_[h].retime(now_ + 1); // and so is a self-retime
        EXPECT_FALSE(handles_[h].requeue(now_ + 1)); // and a self-requeue
        const std::uint64_t k = rng_.uniformInt(handles_.size());
        EXPECT_EQ(handles_[k].scheduledAfterRunning(),
                  seq_[k] > expected_.second && pendingRef(k));
        mutate(/*in_callback=*/true);
    }

    /** Random schedules (ties galore), cancels and moves. */
    void
    mutate(bool in_callback)
    {
        const std::uint64_t n_sched =
            handles_.size() < 6000 ? rng_.uniformInt(3) : 0;
        for (std::uint64_t i = 0; i < n_sched; ++i)
            schedule(now_ + static_cast<Tick>(rng_.uniformInt(4)));
        const std::uint64_t n_cancel = rng_.uniformInt(in_callback ? 2 : 3);
        for (std::uint64_t i = 0; i < n_cancel; ++i)
            cancel(rng_.uniformInt(handles_.size()));
        const std::uint64_t n_move =
            moves_ != Moves::None ? rng_.uniformInt(3) : 0;
        for (std::uint64_t i = 0; i < n_move; ++i) {
            const std::uint64_t h = rng_.uniformInt(handles_.size());
            const Tick when = now_ + static_cast<Tick>(rng_.uniformInt(4));
            if (moves_ == Moves::Requeues && rng_.uniform() < 0.5)
                requeue(h, when);
            else
                retime(h, when);
        }
    }

    void
    checkView()
    {
        ASSERT_EQ(q_.size(), ref_.size());
        EXPECT_EQ(q_.empty(), ref_.empty());
        EXPECT_EQ(q_.nextTick(),
                  ref_.empty() ? kTickMax : ref_.begin()->first);
        const std::uint64_t k = rng_.uniformInt(handles_.size());
        EXPECT_EQ(handles_[k].pending(), pendingRef(k));
        EXPECT_FALSE(handles_[k].scheduledAfterRunning());
    }
};

TEST(EventQueueTest, MatchesASetReferenceUnderRandomCancels)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        QueueDiff(seed, Moves::None).run();
    }
}

TEST(EventQueueTest, MatchesASetReferenceUnderRandomRetimes)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        QueueDiff(seed, Moves::Retimes).run();
    }
}

TEST(EventQueueTest, MatchesASetReferenceUnderRandomRequeues)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        QueueDiff(seed, Moves::Requeues).run();
    }
}

TEST(EventQueueDeathTest, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    Tick now = 0;
    q.popAndRun(now);
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

TEST(EventQueueDeathTest, RetimingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    EventId later = q.schedule(200, [] {});
    Tick now = 0;
    q.popAndRun(now);
    EXPECT_DEATH(later.retime(50), "past");
}

TEST(EventQueueDeathTest, RequeueingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    EventId later = q.schedule(200, [] {});
    Tick now = 0;
    q.popAndRun(now);
    EXPECT_DEATH(later.requeue(50), "past");
}

// ------------------------------------------------------------ Simulation

TEST(SimulationTest, ClockFollowsEvents)
{
    Simulation sim;
    Tick seen = -1;
    sim.schedule(milliseconds(5), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, milliseconds(5));
    EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST(SimulationTest, RunUntilStopsAtDeadline)
{
    Simulation sim;
    int ran = 0;
    sim.schedule(10, [&] { ++ran; });
    sim.schedule(20, [&] { ++ran; });
    sim.schedule(30, [&] { ++ran; });
    sim.runUntil(20);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(sim.now(), 20);
    sim.run();
    EXPECT_EQ(ran, 3);
}

TEST(SimulationTest, RunUntilAdvancesClockWithoutEvents)
{
    Simulation sim;
    sim.runUntil(seconds(2));
    EXPECT_EQ(sim.now(), seconds(2));
}

TEST(SimulationTest, RunForIsRelative)
{
    Simulation sim;
    sim.runFor(100);
    sim.runFor(100);
    EXPECT_EQ(sim.now(), 200);
}

TEST(SimulationTest, StepExecutesOneEvent)
{
    Simulation sim;
    int ran = 0;
    sim.schedule(1, [&] { ++ran; });
    sim.schedule(2, [&] { ++ran; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(ran, 1);
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, UniformIntStaysInRange)
{
    Rng rng(9);
    std::vector<int> hits(7, 0);
    for (int i = 0; i < 70000; ++i)
        ++hits[rng.uniformInt(7)];
    for (int h : hits)
        EXPECT_NEAR(h, 10000, 500);
}

TEST(RngTest, NormalHasUnitMoments)
{
    Rng rng(11);
    double sum = 0.0, sumsq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic)
{
    Rng parent1(5), parent2(5);
    Rng child1 = parent1.fork();
    Rng child2 = parent2.fork();
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(child1.next(), child2.next());
    // Child and parent streams differ.
    Rng p(5);
    Rng c = p.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += p.next() == c.next();
    EXPECT_LT(same, 3);
}

// ---------------------------------------------------------- Distributions

struct DistCase
{
    const char *name;
    std::shared_ptr<const Distribution> dist;
    double tolerance; ///< relative tolerance on the sample mean
};

class DistributionMeanTest : public ::testing::TestWithParam<DistCase>
{};

TEST_P(DistributionMeanTest, SampleMeanMatchesAnalyticMean)
{
    const DistCase &c = GetParam();
    Rng rng(1234);
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
        const Tick s = c.dist->sample(rng);
        ASSERT_GE(s, 0);
        sum += static_cast<double>(s);
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, c.dist->mean(),
                c.tolerance * std::max(1.0, c.dist->mean()));
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionMeanTest,
    ::testing::Values(
        DistCase{"fixed", std::make_shared<FixedDist>(12345), 1e-9},
        DistCase{"exp", std::make_shared<ExponentialDist>(microseconds(50)),
                 0.02},
        DistCase{"lognormal",
                 std::make_shared<LogNormalDist>(milliseconds(2), 0.5), 0.02},
        DistCase{"uniform",
                 std::make_shared<UniformDist>(100, 300), 0.02},
        DistCase{"pareto",
                 std::make_shared<BoundedParetoDist>(1000, 1000000, 1.5),
                 0.05},
        DistCase{"mixture",
                 std::make_shared<MixtureDist>(
                     std::make_shared<FixedDist>(100),
                     std::make_shared<FixedDist>(1000), 0.25),
                 0.02}),
    [](const auto &info) { return info.param.name; });

TEST(DistributionTest, BoundedParetoRespectsBounds)
{
    BoundedParetoDist d(500, 5000, 2.0);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const Tick s = d.sample(rng);
        ASSERT_GE(s, 499); // floor truncation slack
        ASSERT_LE(s, 5000);
    }
}

TEST(DistributionTest, LogNormalSigmaZeroIsDegenerate)
{
    LogNormalDist d(1000, 0.0);
    Rng rng(4);
    for (int i = 0; i < 100; ++i)
        EXPECT_NEAR(static_cast<double>(d.sample(rng)), 1000.0, 1.0);
}

TEST(DistributionTest, DescribeMentionsFamily)
{
    EXPECT_NE(ExponentialDist(1000).describe().find("exp"),
              std::string::npos);
    EXPECT_NE(LogNormalDist(1000, 0.3).describe().find("lognormal"),
              std::string::npos);
}

TEST(DistributionDeathTest, InvalidParametersAreFatal)
{
    EXPECT_DEATH(ExponentialDist(0), "positive");
    EXPECT_DEATH(BoundedParetoDist(100, 50, 2.0), "min");
    EXPECT_DEATH(UniformDist(10, 5), "lo");
}

// ------------------------------------------------------------------- time

TEST(TimeTest, UnitHelpers)
{
    EXPECT_EQ(microseconds(1), 1000);
    EXPECT_EQ(milliseconds(1), 1000000);
    EXPECT_EQ(seconds(1), 1000000000);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(3)), 3.0);
}

TEST(TimeTest, FormatPicksUnits)
{
    EXPECT_EQ(formatTicks(12), "12ns");
    EXPECT_EQ(formatTicks(microseconds(2)), "2.00us");
    EXPECT_EQ(formatTicks(milliseconds(3)), "3.00ms");
    EXPECT_EQ(formatTicks(seconds(4)), "4.000s");
}

} // namespace
} // namespace reqobs::sim
