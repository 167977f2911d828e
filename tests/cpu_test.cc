/**
 * @file
 * Unit tests for the GPS CPU model: fluid sharing, jitter activation,
 * DVFS speed changes and cancellation, plus a differential check of the
 * engine against the plain O(jobs)-per-event formulation it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "kernel/cpu.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace reqobs::kernel {
namespace {

CpuConfig
quietCpu(unsigned cores, double speed = 1.0)
{
    CpuConfig cfg;
    cfg.cores = cores;
    cfg.speed = speed;
    cfg.jitterSigma = 0.0; // deterministic service for timing asserts
    return cfg;
}

TEST(CpuModelTest, SingleJobTakesItsDemand)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(4));
    sim::Tick done = -1;
    cpu.submit(sim::microseconds(100), [&] { done = sim.now(); });
    sim.run();
    EXPECT_NEAR(static_cast<double>(done),
                static_cast<double>(sim::microseconds(100)), 2.0);
    EXPECT_EQ(cpu.completedJobs(), 1u);
}

TEST(CpuModelTest, JobsWithinCoreCountDoNotSlowEachOther)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(4));
    std::vector<sim::Tick> done;
    for (int i = 0; i < 4; ++i)
        cpu.submit(1000, [&] { done.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done.size(), 4u);
    for (sim::Tick t : done)
        EXPECT_NEAR(static_cast<double>(t), 1000.0, 2.0);
}

TEST(CpuModelTest, OversubscriptionSharesFluidly)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    std::vector<sim::Tick> done;
    // Two equal jobs on one core: both finish at ~2x the demand.
    cpu.submit(1000, [&] { done.push_back(sim.now()); });
    cpu.submit(1000, [&] { done.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_NEAR(static_cast<double>(done[0]), 2000.0, 4.0);
    EXPECT_NEAR(static_cast<double>(done[1]), 2000.0, 4.0);
}

TEST(CpuModelTest, ShortJobLeavesLongJobDelayed)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    sim::Tick short_done = 0, long_done = 0;
    cpu.submit(1000, [&] { short_done = sim.now(); });
    cpu.submit(3000, [&] { long_done = sim.now(); });
    sim.run();
    // Shared until the short job drains at 2000; the long one then runs
    // alone for its remaining 2000 -> 4000.
    EXPECT_NEAR(static_cast<double>(short_done), 2000.0, 4.0);
    EXPECT_NEAR(static_cast<double>(long_done), 4000.0, 6.0);
}

TEST(CpuModelTest, LateArrivalSlowsInFlightWork)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    sim::Tick first_done = 0;
    cpu.submit(2000, [&] { first_done = sim.now(); });
    sim.schedule(1000, [&] { cpu.submit(5000, [] {}); });
    sim.run();
    // Alone for 1000 (1000 served), then shared: remaining 1000 at half
    // speed -> finishes at 3000.
    EXPECT_NEAR(static_cast<double>(first_done), 3000.0, 6.0);
}

TEST(CpuModelTest, SpeedScalesServiceRate)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1, 2.0));
    sim::Tick done = 0;
    cpu.submit(1000, [&] { done = sim.now(); });
    sim.run();
    EXPECT_NEAR(static_cast<double>(done), 500.0, 2.0);
}

TEST(CpuModelTest, DvfsMidFlight)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    sim::Tick done = 0;
    cpu.submit(2000, [&] { done = sim.now(); });
    sim.schedule(1000, [&] { cpu.setSpeed(0.5); });
    sim.run();
    // 1000 served at speed 1, remaining 1000 at speed 0.5 -> 1000+2000.
    EXPECT_NEAR(static_cast<double>(done), 3000.0, 6.0);
    EXPECT_DOUBLE_EQ(cpu.speed(), 0.5);
}

TEST(CpuModelTest, CancelPreventsCompletion)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    bool ran = false;
    const CpuModel::JobId id = cpu.submit(1000, [&] { ran = true; });
    cpu.cancel(id);
    sim.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(cpu.activeJobs(), 0u);
    cpu.cancel(12345); // unknown id is a no-op
}

TEST(CpuModelTest, ZeroDemandCompletesImmediately)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    sim::Tick done = -1;
    cpu.submit(0, [&] { done = sim.now(); });
    sim.run();
    EXPECT_GE(done, 0);
    EXPECT_LE(done, 2);
}

TEST(CpuModelTest, ServedTicksTracksWork)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(2));
    cpu.submit(1000, [] {});
    cpu.submit(500, [] {});
    sim.run();
    EXPECT_NEAR(cpu.servedTicks(), 1500.0, 5.0);
}

TEST(CpuModelTest, ActiveJobsAccountingSurvivesFlatStorage)
{
    // Gates the flat-vector job store: activeJobs() must count exactly
    // the submitted-minus-finished jobs at every point, including after
    // a mid-stream cancel (the map-era behaviour, bit for bit).
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    EXPECT_EQ(cpu.activeJobs(), 0u);
    const CpuModel::JobId a = cpu.submit(1000, [] {});
    cpu.submit(1000, [] {});
    cpu.submit(1000, [] {});
    EXPECT_EQ(cpu.activeJobs(), 3u);
    cpu.cancel(a);
    EXPECT_EQ(cpu.activeJobs(), 2u);
    sim.run();
    EXPECT_EQ(cpu.activeJobs(), 0u);
    EXPECT_EQ(cpu.completedJobs(), 2u);
}

TEST(CpuModelTest, ServedTicksAccountingSurvivesCancel)
{
    // servedTicks() accrues work actually done, including the share a
    // later-cancelled job consumed before its cancel.
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    const CpuModel::JobId id = cpu.submit(4000, [] {});
    cpu.submit(1000, [] {});
    sim.schedule(1000, [&] { cpu.cancel(id); });
    sim.run();
    // Shared for 1000 ticks (both at half speed: 1000 served), then the
    // survivor's remaining 500 alone.
    EXPECT_NEAR(cpu.servedTicks(), 1500.0, 5.0);
    EXPECT_EQ(cpu.completedJobs(), 1u);
}

TEST(CpuModelTest, JitterInflatesOnlyWhenOversubscribed)
{
    // With jitter on but jobs <= cores, demand must be exact.
    sim::Simulation sim;
    CpuConfig cfg;
    cfg.cores = 8;
    cfg.jitterSigma = 0.5;
    CpuModel cpu(sim, cfg);
    sim::Tick done = 0;
    cpu.submit(1000, [&] { done = sim.now(); });
    sim.run();
    EXPECT_NEAR(static_cast<double>(done), 1000.0, 2.0);
}

TEST(CpuModelTest, CompletionCallbackCanResubmit)
{
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(1));
    int rounds = 0;
    std::function<void()> again = [&] {
        if (++rounds < 3)
            cpu.submit(100, again);
    };
    cpu.submit(100, again);
    sim.run();
    EXPECT_EQ(rounds, 3);
    EXPECT_EQ(cpu.completedJobs(), 3u);
}

TEST(CpuModelTest, SameTickCompletionsFireInSubmissionOrder)
{
    // Eight cores and at most six jobs: no sharing, so every job takes
    // exactly its demand and jobs 1..5 all finish at tick 500.
    sim::Simulation sim;
    CpuModel cpu(sim, quietCpu(8));
    std::vector<int> order;
    cpu.submit(100, [&] { order.push_back(0); });
    CpuModel::JobId victim = 0;
    for (int j = 1; j <= 5; ++j) {
        const CpuModel::JobId id =
            cpu.submit(500, [&order, j] { order.push_back(j); });
        if (j == 2)
            victim = id;
    }
    // Jobs 1..5 tie on remaining work, and finished jobs leave from the
    // back of the remaining-work order: newest first, against
    // submission order, when the four left finish together.
    sim.schedule(200, [&] { cpu.cancel(victim); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 5}));
}

// ------------------------------------------------ differential GPS oracle

/**
 * The GPS engine in its original formulation: jobs kept in submission
 * order, a full min-scan on every reschedule, and an order-preserving
 * compaction on every completion. CpuModel must match it bit for bit.
 */
class ReferenceGps
{
  public:
    using JobId = std::uint64_t;

    ReferenceGps(sim::Simulation &sim, const CpuConfig &config)
        : sim_(sim), config_(config), rng_(sim.forkRng()),
          lastAdvance_(sim.now())
    {}

    JobId
    submit(sim::Tick demand, std::function<void()> on_done)
    {
        advance();
        const double factor = jitterFactor(jobs_.size() + 1);
        const JobId id = nextId_++;
        jobs_.push_back(
            Job{id, std::max(1.0, static_cast<double>(demand) * factor),
                std::move(on_done)});
        reschedule();
        return id;
    }

    void
    cancel(JobId id)
    {
        advance();
        const auto it =
            std::find_if(jobs_.begin(), jobs_.end(),
                         [id](const Job &j) { return j.id == id; });
        if (it != jobs_.end()) {
            jobs_.erase(it);
            reschedule();
        }
    }

    void
    setSpeed(double speed)
    {
        advance();
        config_.speed = speed;
        reschedule();
    }

    std::size_t activeJobs() const { return jobs_.size(); }

    double servedTicks() const { return served_; }

  private:
    struct Job
    {
        JobId id;
        double remaining;
        std::function<void()> onDone;
    };

    sim::Simulation &sim_;
    CpuConfig config_;
    sim::Rng rng_;
    std::vector<Job> jobs_;
    JobId nextId_ = 1;
    sim::Tick lastAdvance_;
    sim::EventId completionEvent_;
    double served_ = 0.0;

    double
    jitterFactor(std::size_t active_after)
    {
        const double n = static_cast<double>(active_after);
        const double overload =
            std::clamp(n / static_cast<double>(config_.cores) - 1.0, 0.0,
                       config_.jitterCap);
        double factor = 1.0;
        if (overload > 0.0 && config_.jitterSigma > 0.0)
            factor = std::exp(config_.jitterSigma * overload * rng_.normal());
        return factor;
    }

    double
    currentRate() const
    {
        if (jobs_.empty())
            return 0.0;
        const double n = static_cast<double>(jobs_.size());
        const double c = static_cast<double>(config_.cores);
        return config_.speed * std::min(1.0, c / n);
    }

    void
    advance()
    {
        const sim::Tick now = sim_.now();
        if (now == lastAdvance_)
            return;
        const double rate = currentRate();
        const double elapsed = static_cast<double>(now - lastAdvance_);
        if (rate > 0.0) {
            const double work = elapsed * rate;
            for (Job &job : jobs_)
                job.remaining -= work;
            served_ += work * static_cast<double>(jobs_.size());
        }
        lastAdvance_ = now;
    }

    void
    reschedule()
    {
        completionEvent_.cancel();
        if (jobs_.empty())
            return;
        double min_remaining = jobs_.front().remaining;
        for (const Job &job : jobs_)
            min_remaining = std::min(min_remaining, job.remaining);
        const double dt = std::max(0.0, min_remaining) / currentRate();
        const sim::Tick delay =
            static_cast<sim::Tick>(std::ceil(std::max(0.0, dt)));
        completionEvent_ = sim_.schedule(delay, [this] { onCompletion(); });
    }

    void
    onCompletion()
    {
        advance();
        std::vector<std::function<void()>> done;
        std::size_t w = 0;
        for (std::size_t r = 0; r < jobs_.size(); ++r) {
            if (jobs_[r].remaining <= 1e-3) {
                done.push_back(std::move(jobs_[r].onDone));
            } else {
                if (w != r)
                    jobs_[w] = std::move(jobs_[r]);
                ++w;
            }
        }
        jobs_.resize(w);
        reschedule();
        for (auto &fn : done)
            fn();
    }
};

/** One scripted action against a CPU model at an absolute tick. */
struct CpuOp
{
    enum class Kind
    {
        Submit, ///< `count` jobs of `demand` (count > 1: same-tick ties)
        Cancel, ///< the `target`-th submitted job (may be done) or a bogus id
        Speed,  ///< setSpeed(speed)
    };
    sim::Tick at = 0;
    Kind kind = Kind::Submit;
    sim::Tick demand = 0;
    int count = 1;
    std::uint64_t target = 0;
    double speed = 1.0;
};

/** A seeded random script with ties, zero-demand jobs and bursts. */
std::vector<CpuOp>
randomCpuScript(std::uint64_t seed, int max_jobs)
{
    sim::Rng rng(seed);
    std::vector<CpuOp> ops;
    sim::Tick t = 0;
    int jobs = 0;
    while (jobs < max_jobs) {
        CpuOp op;
        // A quarter of the ops share the previous op's tick; short gaps
        // and short jobs make ops land on completion ticks.
        const double g = rng.uniform();
        if (g >= 0.25)
            t += 1 + static_cast<sim::Tick>(
                         rng.uniformInt(g < 0.75 ? 20 : 400));
        op.at = t;
        const double u = rng.uniform();
        if (u < 0.15) {
            op.kind = CpuOp::Kind::Cancel;
            op.target = rng.uniformInt(static_cast<std::uint64_t>(jobs + 4));
        } else if (u < 0.22) {
            op.kind = CpuOp::Kind::Speed;
            op.speed = rng.uniform(0.4, 2.5);
        } else {
            // Zero demand, tiny demand, tens or thousands of ticks.
            const double d = rng.uniform();
            op.demand =
                d < 0.1   ? 0
                : d < 0.2 ? static_cast<sim::Tick>(rng.uniformInt(3))
                : d < 0.6 ? 1 + static_cast<sim::Tick>(rng.uniformInt(50))
                          : 1 + static_cast<sim::Tick>(rng.uniformInt(3000));
            op.count = rng.uniform() < 0.2
                           ? 2 + static_cast<int>(rng.uniformInt(4))
                           : 1;
            jobs += op.count;
        }
        ops.push_back(op);
    }
    return ops;
}

/**
 * Bursts of 5-12 jobs of one demand on one tick: below overload they
 * share a remaining value to the bit and finish on one tick.
 */
std::vector<CpuOp>
equalBurstScript(std::uint64_t seed, int bursts)
{
    sim::Rng rng(seed);
    std::vector<CpuOp> ops;
    sim::Tick t = 0;
    for (int b = 0; b < bursts; ++b) {
        t += 1 + static_cast<sim::Tick>(
                     rng.uniformInt(rng.uniform() < 0.5 ? 40 : 1500));
        CpuOp op;
        op.at = t;
        op.demand = 1 + static_cast<sim::Tick>(rng.uniformInt(800));
        op.count = 5 + static_cast<int>(rng.uniformInt(8));
        ops.push_back(op);
        if (rng.uniform() < 0.3) {
            t += static_cast<sim::Tick>(rng.uniformInt(20));
            CpuOp cancel;
            cancel.at = t;
            cancel.kind = CpuOp::Kind::Cancel;
            cancel.target = rng.uniformInt(static_cast<std::uint64_t>(
                (b + 1) * 5));
            ops.push_back(cancel);
        }
    }
    return ops;
}

/**
 * A crowd of long jobs arriving over a few hundred ticks, so that over
 * a hundred run at once, with cancels of earlier jobs: mostly from the
 * middle of the remaining-work order.
 */
std::vector<CpuOp>
crowdScript(std::uint64_t seed, int max_jobs)
{
    sim::Rng rng(seed);
    std::vector<CpuOp> ops;
    sim::Tick t = 0;
    int jobs = 0;
    while (jobs < max_jobs) {
        t += static_cast<sim::Tick>(rng.uniformInt(4));
        CpuOp op;
        op.at = t;
        if (jobs > 20 && rng.uniform() < 0.15) {
            op.kind = CpuOp::Kind::Cancel;
            op.target = rng.uniformInt(static_cast<std::uint64_t>(jobs));
        } else {
            op.demand = 2000 + static_cast<sim::Tick>(rng.uniformInt(30000));
            op.count = 1 + static_cast<int>(rng.uniformInt(3));
            jobs += op.count;
        }
        ops.push_back(op);
    }
    return ops;
}

/** Everything the two engines must agree on. */
struct CpuRun
{
    std::vector<std::pair<sim::Tick, std::uint64_t>> completions;
    std::vector<std::size_t> active; ///< after every op and completion
    std::uint64_t servedBits = 0;    ///< servedTicks(), bit pattern
    std::uint64_t events = 0;
};

template <typename Engine>
CpuRun
runCpuScript(const std::vector<CpuOp> &ops, const CpuConfig &cfg)
{
    sim::Simulation sim(11);
    Engine cpu(sim, cfg);
    CpuRun run;
    std::vector<std::uint64_t> ids;
    // Every fifth job's callback submits a follow-up from inside the
    // completion loop, as a server's next request would.
    std::function<void(sim::Tick)> submit = [&](sim::Tick demand) {
        auto id = std::make_shared<std::uint64_t>(0);
        *id = cpu.submit(demand, [&, id, demand] {
            run.completions.emplace_back(sim.now(), *id);
            run.active.push_back(cpu.activeJobs());
            if (*id % 5 == 0 && ids.size() < 200)
                submit(demand / 2);
        });
        ids.push_back(*id);
    };
    // Each op schedules the next before acting, so op events and
    // completion events interleave in the queue's tie order (seq): an
    // op on a completion's tick runs first only if the completion was
    // re-armed after the op was scheduled.
    std::function<void(std::size_t)> arm = [&](std::size_t k) {
        sim.scheduleAt(ops[k].at, [&, k] {
            if (k + 1 < ops.size())
                arm(k + 1);
            const CpuOp &op = ops[k];
            switch (op.kind) {
            case CpuOp::Kind::Submit:
                for (int i = 0; i < op.count; ++i)
                    submit(op.demand);
                break;
            case CpuOp::Kind::Cancel:
                cpu.cancel(op.target < ids.size() ? ids[op.target]
                                                  : 1000000 + op.target);
                break;
            case CpuOp::Kind::Speed:
                cpu.setSpeed(op.speed);
                break;
            }
            run.active.push_back(cpu.activeJobs());
        });
    };
    arm(0);
    sim.run();
    run.servedBits = std::bit_cast<std::uint64_t>(cpu.servedTicks());
    run.events = sim.executedEvents();
    return run;
}

TEST(CpuModelTest, GpsMatchesTheReferenceEngineBitForBit)
{
    std::size_t multi_completion_ticks = 0;
    std::size_t largest_batch = 0;
    std::size_t most_active = 0;
    for (unsigned cores : {1u, 4u, 41u}) {
        for (bool jitter : {false, true}) {
            CpuConfig cfg = quietCpu(cores);
            cfg.sched = SchedModel::Gps;
            if (jitter)
                cfg.jitterSigma = 0.35;
            for (std::uint64_t seed = 1; seed <= 12; ++seed) {
                const std::uint64_t s = seed * 1000 + cores;
                const int n = static_cast<int>(seed);
                for (const auto &ops :
                     {randomCpuScript(s, 1 + n * 8),
                      equalBurstScript(s, 2 + n), crowdScript(s, 120 + n)}) {
                    const CpuRun ref = runCpuScript<ReferenceGps>(ops, cfg);
                    const CpuRun got = runCpuScript<CpuModel>(ops, cfg);
                    SCOPED_TRACE(testing::Message()
                                 << "cores=" << cores << " jitter=" << jitter
                                 << " seed=" << seed
                                 << " script of " << ops.size() << " ops");
                    ASSERT_FALSE(ref.completions.empty());
                    EXPECT_EQ(got.completions, ref.completions);
                    EXPECT_EQ(got.active, ref.active);
                    EXPECT_EQ(got.servedBits, ref.servedBits);
                    EXPECT_EQ(got.events, ref.events);
                    std::size_t batch = 1;
                    for (std::size_t i = 1; i < ref.completions.size(); ++i) {
                        const bool tie = ref.completions[i].first ==
                                         ref.completions[i - 1].first;
                        multi_completion_ticks += tie;
                        batch = tie ? batch + 1 : 1;
                        largest_batch = std::max(largest_batch, batch);
                    }
                    for (std::size_t a : ref.active)
                        most_active = std::max(most_active, a);
                }
            }
        }
    }
    // The scripts must actually exercise same-tick completion batches,
    // large ones, and a crowd of jobs.
    EXPECT_GT(multi_completion_ticks, 20u);
    EXPECT_GE(largest_batch, 5u);
    EXPECT_GE(most_active, 100u);
}

TEST(CpuModelDeathTest, InvalidConfigIsFatal)
{
    sim::Simulation sim;
    EXPECT_DEATH(CpuModel(sim, CpuConfig{0, 1.0, 0.0, 0.0}), "core");
    CpuModel cpu(sim, quietCpu(1));
    EXPECT_DEATH(cpu.setSpeed(0.0), "positive");
}

} // namespace
} // namespace reqobs::kernel
