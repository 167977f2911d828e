/**
 * @file
 * Discrete-dispatch scheduler suite: determinism, the GPS limit as
 * quantum -> 0, preemption ordering, lone runs (tickless cores) against
 * an eager-ticking reference, sched tracepoint semantics, the
 * runqlat probe pair against an exhaustive C++ ground truth, the
 * sched-delay fault class, and end-to-end runqlat samples through a
 * discrete-sched cluster run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cluster.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "fault/fault.hh"
#include "kernel/cpu.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/config.hh"

namespace reqobs {
namespace {

using kernel::CpuConfig;
using kernel::CpuModel;
using kernel::SchedModel;

CpuConfig
discreteCpu(unsigned cores, sim::Tick quantum, double jitter = 0.0)
{
    CpuConfig cfg;
    cfg.cores = cores;
    cfg.jitterSigma = jitter;
    cfg.sched = SchedModel::Discrete;
    cfg.quantum = quantum;
    return cfg;
}

/** Recorded scheduler transition (flattened for easy comparison). */
struct Ev
{
    CpuModel::SchedEventType type;
    std::uint32_t prevTid;
    bool prevRunnable;
    std::uint32_t tid;

    bool operator==(const Ev &o) const
    {
        return type == o.type && prevTid == o.prevTid &&
               prevRunnable == o.prevRunnable && tid == o.tid;
    }
};

void
PrintTo(const Ev &e, std::ostream *os)
{
    *os << "{type " << static_cast<int>(e.type) << ", prev " << e.prevTid
        << (e.prevRunnable ? " runnable" : "") << ", tid " << e.tid << "}";
}

TEST(SchedDiscrete, SingleTaskLifecycleEvents)
{
    sim::Simulation sim;
    CpuModel cpu(sim, discreteCpu(1, sim::microseconds(200)));
    std::vector<Ev> evs;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
        evs.push_back({e.type, e.prevTid, e.prevRunnable, e.tid});
    });
    sim::Tick done = -1;
    cpu.submit(1000, CpuModel::TaskRef{7, 77}, [&] { done = sim.now(); });
    sim.run();

    EXPECT_EQ(done, 1000);
    EXPECT_EQ(cpu.completedJobs(), 1u);
    EXPECT_EQ(cpu.dispatches(), 1u);
    EXPECT_EQ(cpu.preemptions(), 0u);
    const std::vector<Ev> want = {
        {CpuModel::SchedEventType::WakeupNew, 0, false, 7},
        {CpuModel::SchedEventType::Switch, 0, false, 7},
        {CpuModel::SchedEventType::Switch, 7, false, 0}, // to idle, done
    };
    EXPECT_EQ(evs, want);
}

TEST(SchedDiscrete, RoundRobinPreemptionOrdering)
{
    sim::Simulation sim;
    CpuModel cpu(sim, discreteCpu(1, 1000));
    std::vector<Ev> evs;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
        evs.push_back({e.type, e.prevTid, e.prevRunnable, e.tid});
    });
    std::vector<sim::Tick> done(3, 0);
    for (std::uint32_t i = 0; i < 3; ++i)
        cpu.submit(2500, CpuModel::TaskRef{i + 1, i + 1},
                   [&, i] { done[i] = sim.now(); });
    sim.run();

    // 1000-tick round-robin over three 2500-tick tasks: two full rounds
    // of quantum-expiry preemptions, then a 500-tick finishing round.
    EXPECT_EQ(done[0], 6500);
    EXPECT_EQ(done[1], 7000);
    EXPECT_EQ(done[2], 7500);
    EXPECT_EQ(cpu.preemptions(), 6u);
    EXPECT_EQ(cpu.dispatches(), 9u);

    const std::vector<Ev> want = {
        {CpuModel::SchedEventType::WakeupNew, 0, false, 1},
        {CpuModel::SchedEventType::Switch, 0, false, 1},
        {CpuModel::SchedEventType::WakeupNew, 0, false, 2},
        {CpuModel::SchedEventType::WakeupNew, 0, false, 3},
        {CpuModel::SchedEventType::Switch, 1, true, 2}, // t=1000 preempt
        {CpuModel::SchedEventType::Switch, 2, true, 3}, // t=2000
        {CpuModel::SchedEventType::Switch, 3, true, 1}, // t=3000
        {CpuModel::SchedEventType::Switch, 1, true, 2}, // t=4000
        {CpuModel::SchedEventType::Switch, 2, true, 3}, // t=5000
        {CpuModel::SchedEventType::Switch, 3, true, 1}, // t=6000
        {CpuModel::SchedEventType::Switch, 1, false, 2}, // t=6500 done
        {CpuModel::SchedEventType::Switch, 2, false, 3}, // t=7000 done
        {CpuModel::SchedEventType::Switch, 3, false, 0}, // t=7500 idle
    };
    EXPECT_EQ(evs, want);
}

TEST(SchedDiscrete, SecondSubmitOfATidIsAWakeupNotWakeupNew)
{
    sim::Simulation sim;
    CpuModel cpu(sim, discreteCpu(1, 1000));
    std::vector<CpuModel::SchedEventType> types;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
        types.push_back(e.type);
    });
    cpu.submit(100, CpuModel::TaskRef{5, 5}, [&] {
        cpu.submit(100, CpuModel::TaskRef{5, 5}, [] {});
    });
    sim.run();
    ASSERT_GE(types.size(), 4u);
    EXPECT_EQ(types[0], CpuModel::SchedEventType::WakeupNew);
    // The resubmit from the completion callback is a plain wakeup.
    const auto second_wake =
        std::count(types.begin(), types.end(),
                   CpuModel::SchedEventType::Wakeup);
    EXPECT_EQ(second_wake, 1);
}

TEST(SchedDiscrete, DeterminismDoubleRun)
{
    auto run = [] {
        sim::Simulation sim(42);
        CpuModel cpu(sim, discreteCpu(4, sim::microseconds(50), 0.35));
        std::vector<Ev> evs;
        std::vector<sim::Tick> done;
        cpu.setSchedEventHook([&evs](const CpuModel::SchedEvent &e) {
            evs.push_back({e.type, e.prevTid, e.prevRunnable, e.tid});
        });
        for (std::uint32_t i = 0; i < 48; ++i) {
            const sim::Tick at = static_cast<sim::Tick>(i) * 7000;
            sim.scheduleAt(at, [&, i] {
                cpu.submit(40000 + (i % 5) * 17000,
                           CpuModel::TaskRef{1 + (i % 9), 1 + (i % 9)},
                           [&done, &sim] { done.push_back(sim.now()); });
            });
        }
        sim.run();
        return std::make_tuple(evs, done, cpu.dispatches(),
                               cpu.preemptions(), cpu.servedTicks());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
    EXPECT_EQ(std::get<3>(a), std::get<3>(b));
    EXPECT_EQ(std::get<4>(a), std::get<4>(b));
    EXPECT_GT(std::get<3>(a), 0u); // the workload actually preempted
    EXPECT_EQ(std::get<1>(a).size(), 48u);
}

/**
 * The GPS limit: on one core, round-robin with quantum q deviates from
 * processor sharing by O(q), so shrinking q must shrink the worst-case
 * relative completion-time error toward zero (DESIGN.md §15).
 */
TEST(SchedDiscrete, ConvergesToGpsAsQuantumShrinks)
{
    const sim::Tick demands[] = {90000, 120000, 60000, 150000, 30000};
    const sim::Tick arrive[] = {0, 10000, 20000, 30000, 40000};

    auto completions = [&](SchedModel model, sim::Tick quantum) {
        sim::Simulation sim(3);
        CpuConfig cfg;
        cfg.cores = 1;
        cfg.jitterSigma = 0.0;
        cfg.sched = model;
        if (quantum > 0)
            cfg.quantum = quantum;
        auto cpu = std::make_shared<CpuModel>(sim, cfg);
        std::vector<double> done(5, 0.0);
        for (int i = 0; i < 5; ++i) {
            sim.scheduleAt(arrive[i], [&, i] {
                cpu->submit(demands[i],
                            CpuModel::TaskRef{
                                static_cast<std::uint32_t>(i + 1), 0},
                            [&done, &sim, i] {
                                done[i] =
                                    static_cast<double>(sim.now());
                            });
            });
        }
        sim.run();
        return done;
    };

    const std::vector<double> gps = completions(SchedModel::Gps, 0);
    for (double t : gps)
        ASSERT_GT(t, 0.0);

    auto maxRelErr = [&](sim::Tick quantum) {
        const std::vector<double> d =
            completions(SchedModel::Discrete, quantum);
        double err = 0.0;
        for (int i = 0; i < 5; ++i)
            err = std::max(err, std::abs(d[i] - gps[i]) / gps[i]);
        return err;
    };

    const double e0 = maxRelErr(25600);
    const double e1 = maxRelErr(6400);
    const double e2 = maxRelErr(1600);
    const double e3 = maxRelErr(400);
    // Convergence: the error shrinks with the quantum and lands within
    // 2% of the fluid limit at q = 400 ticks.
    EXPECT_LT(e3, e0) << "e0=" << e0 << " e1=" << e1 << " e2=" << e2
                      << " e3=" << e3;
    EXPECT_LT(e2, e0);
    EXPECT_LT(e3, 0.02) << "e3=" << e3;
}

TEST(SchedDiscrete, SchedDelayFaultDelaysSwitchIn)
{
    sim::Simulation sim(1);
    CpuModel cpu(sim, discreteCpu(1, sim::microseconds(200)));
    fault::FaultPlan plan;
    plan.schedDelayProbability = 1.0;
    plan.schedDelayNs = 500;
    fault::FaultInjector inj(plan, sim.forkRng());
    cpu.setFaultInjector(&inj);

    sim::Tick done = 0;
    cpu.submit(1000, CpuModel::TaskRef{3, 3}, [&] { done = sim.now(); });
    sim.run();

    // Switch-in delayed by the injected 500 ticks before the 1000-tick
    // slice runs.
    EXPECT_EQ(done, 1500);
    EXPECT_EQ(inj.counts().schedDelays, 1u);
    EXPECT_EQ(cpu.completedJobs(), 1u);
}

TEST(SchedDiscrete, GpsModeEmitsNoSchedEvents)
{
    sim::Simulation sim;
    CpuConfig cfg; // defaults: Gps
    cfg.jitterSigma = 0.0;
    CpuModel cpu(sim, cfg);
    std::size_t fired = 0;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &) { ++fired; });
    for (int i = 0; i < 8; ++i)
        cpu.submit(1000, CpuModel::TaskRef{static_cast<std::uint32_t>(i),
                                           0},
                   [] {});
    sim.run();
    EXPECT_EQ(fired, 0u);
    EXPECT_EQ(cpu.dispatches(), 0u);
    EXPECT_EQ(cpu.preemptions(), 0u);
    EXPECT_EQ(cpu.completedJobs(), 8u);
}

// ---------------------------------------------------------------------
// Lone runs: one slice event for a task alone on its core.

/** A scheduler transition with the tick it happened on. */
using TickEv = std::pair<sim::Tick, Ev>;

TEST(SchedDiscrete, LoneRunArmsOneEvent)
{
    const sim::Tick q = sim::microseconds(200);
    sim::Simulation sim;
    CpuModel cpu(sim, discreteCpu(1, q));
    sim::Tick done = -1;
    sim.schedule(0, [&] {
        cpu.submit(sim::milliseconds(10), CpuModel::TaskRef{1, 1},
                   [&] { done = sim.now(); });
    });
    // Mid-run, servedTicks() already counts the 25 whole slices passed,
    // though no event has folded them.
    sim.runUntil(sim::milliseconds(5) + q / 2);
    EXPECT_DOUBLE_EQ(cpu.servedTicks(),
                     static_cast<double>(sim::milliseconds(5)));
    sim.run();
    EXPECT_EQ(done, sim::milliseconds(10));
    // The submit, the lone run's last boundary and the final slice; a
    // core that ticks every quantum takes 51.
    EXPECT_LE(sim.executedEvents(), 3u);
    EXPECT_DOUBLE_EQ(cpu.servedTicks(),
                     static_cast<double>(sim::milliseconds(10)));
}

TEST(SchedDiscrete, WaiterPreemptsALoneRunAtItsNextBoundary)
{
    const sim::Tick q = sim::microseconds(200);
    sim::Simulation sim;
    CpuModel cpu(sim, discreteCpu(1, q));
    std::vector<TickEv> evs;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
        evs.push_back({sim.now(), {e.type, e.prevTid, e.prevRunnable, e.tid}});
    });
    const sim::Tick t0 = 3 * q + 17; // off the tick grid
    std::vector<sim::Tick> done(2, -1);
    sim.scheduleAt(t0, [&] {
        cpu.submit(10 * q, CpuModel::TaskRef{1, 1},
                   [&] { done[0] = sim.now(); });
    });
    sim.scheduleAt(t0 + 7 * q / 2, [&] {
        cpu.submit(q / 2, CpuModel::TaskRef{2, 2},
                   [&] { done[1] = sim.now(); });
    });
    sim.run();

    // Task 1 runs four whole slices, yields to task 2 for half a
    // quantum, then finishes its last six alone.
    EXPECT_EQ(done[1], t0 + 4 * q + q / 2);
    EXPECT_EQ(done[0], t0 + 10 * q + q / 2);
    EXPECT_EQ(cpu.preemptions(), 1u);
    EXPECT_EQ(cpu.dispatches(), 3u);
    using T = CpuModel::SchedEventType;
    const std::vector<TickEv> want = {
        {t0, {T::WakeupNew, 0, false, 1}},
        {t0, {T::Switch, 0, false, 1}},
        {t0 + 7 * q / 2, {T::WakeupNew, 0, false, 2}},
        {t0 + 4 * q, {T::Switch, 1, true, 2}},
        {t0 + 4 * q + q / 2, {T::Switch, 2, false, 1}},
        {t0 + 10 * q + q / 2, {T::Switch, 1, false, 0}},
    };
    EXPECT_EQ(evs, want);
}

/**
 * The tie rule (DESIGN.md §15): a lone run's boundaries count as
 * scheduled when the run started. A waiter placed on a boundary's tick
 * by an event scheduled before the run meets that boundary still ahead
 * and preempts on it; one placed by an event scheduled after the run
 * started finds it passed and preempts a quantum later.
 */
TEST(SchedDiscrete, WaiterOnAnElidedBoundaryFollowsTheTieRule)
{
    const sim::Tick q = 1000;
    for (bool before : {true, false}) {
        SCOPED_TRACE(before ? "waiter scheduled before the run"
                            : "waiter scheduled after the run");
        sim::Simulation sim;
        CpuModel cpu(sim, discreteCpu(1, q));
        sim::Tick preempted = -1;
        cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
            if (e.type == CpuModel::SchedEventType::Switch && e.prevRunnable)
                preempted = sim.now();
        });
        auto waiter = [&] {
            sim.scheduleAt(2 * q, [&] {
                cpu.submit(q, CpuModel::TaskRef{2, 2}, [] {});
            });
        };
        if (before)
            waiter();
        sim.scheduleAt(0, [&] {
            cpu.submit(10 * q, CpuModel::TaskRef{1, 1}, [] {});
            if (!before)
                waiter();
        });
        sim.run();
        EXPECT_EQ(preempted, before ? 2 * q : 3 * q);
        EXPECT_EQ(cpu.completedJobs(), 2u);
    }
}

/**
 * The discrete engine as it ticked before lone runs, except that a task
 * starting a slice alone arms the boundaries of all its whole slices at
 * once (at most CpuModel::kMaxLoneSlices), so they all take their seq
 * when the run starts. A boundary only banks its slice unless it is the
 * last one left, which runs the slice end. A waiter cancels every
 * boundary after the next one; cancel() and setSpeed() cancel them all.
 * That is the tie rule spelled out with one event per boundary.
 */
class EagerTicking
{
  public:
    using JobId = CpuModel::JobId;

    EagerTicking(sim::Simulation &sim, const CpuConfig &config)
        : sim_(sim), config_(config), rng_(sim.forkRng()),
          cores_(config.cores)
    {}

    void setSchedEventHook(CpuModel::SchedEventHook hook)
    {
        hook_ = std::move(hook);
    }

    void setFaultInjector(fault::FaultInjector *f) { fault_ = f; }

    JobId
    submit(sim::Tick demand, const CpuModel::TaskRef &task,
           std::function<void()> on_done)
    {
        const double factor = jitterFactor(activeJobs() + 1);
        Task t{nextId_++, task.tid, task.pidTgid,
               std::max(1.0, static_cast<double>(demand) * factor),
               std::move(on_done)};
        const JobId id = t.id;
        const auto pos =
            std::lower_bound(seenTids_.begin(), seenTids_.end(), task.tid);
        const bool seen = pos != seenTids_.end() && *pos == task.tid;
        if (!seen)
            seenTids_.insert(pos, task.tid);
        CpuModel::SchedEvent wake;
        wake.type = seen ? CpuModel::SchedEventType::Wakeup
                         : CpuModel::SchedEventType::WakeupNew;
        wake.tid = task.tid;
        wake.pidTgid = task.pidTgid;
        emit(wake);

        const unsigned c = nextCore_;
        nextCore_ = (nextCore_ + 1) % static_cast<unsigned>(cores_.size());
        Core &core = cores_[c];
        core.queue.push_back(std::move(t));
        if (!core.busy) {
            dispatch(c, 0, false);
        } else if (!core.ticks.empty()) {
            std::size_t next = 0;
            while (!core.ticks[next].pending())
                ++next;
            for (std::size_t k = next + 1; k < core.ticks.size(); ++k)
                core.ticks[k].cancel();
        }
        return id;
    }

    void
    cancel(JobId id)
    {
        for (unsigned c = 0; c < cores_.size(); ++c) {
            Core &core = cores_[c];
            if (core.busy && !core.dispatching && core.run.id == id) {
                advanceCore(core);
                core.slice.cancel();
                cancelTicks(core);
                const std::uint32_t prev = core.run.tid;
                core.busy = false;
                core.run.onDone = nullptr;
                dispatch(c, prev, false);
                return;
            }
            for (auto it = core.queue.begin(); it != core.queue.end(); ++it)
                if (it->id == id) {
                    core.queue.erase(it);
                    return;
                }
        }
    }

    void
    setSpeed(double speed)
    {
        for (Core &core : cores_)
            advanceCore(core);
        config_.speed = speed;
        for (unsigned c = 0; c < cores_.size(); ++c) {
            Core &core = cores_[c];
            if (core.busy && !core.dispatching) {
                core.slice.cancel();
                cancelTicks(core);
                startSlice(c);
            }
        }
    }

    std::size_t
    activeJobs() const
    {
        std::size_t n = 0;
        for (const Core &core : cores_)
            n += core.queue.size() + (core.busy && !core.dispatching);
        return n;
    }

    double servedTicks() const { return served_; }
    std::uint64_t dispatches() const { return dispatches_; }
    std::uint64_t preemptions() const { return preemptions_; }

    /**
     * True if now is the tick of a lone-run boundary that CpuModel arms
     * no event for: any live boundary but the last.
     */
    bool
    onElidedBoundary() const
    {
        for (const Core &core : cores_) {
            std::size_t last = core.ticks.size();
            while (last > 0 && !core.ticks[last - 1].pending())
                --last;
            const sim::Tick d = sim_.now() - core.runStart;
            if (last > 1 && d > 0 && d % config_.quantum == 0 &&
                static_cast<std::size_t>(d / config_.quantum) < last)
                return true;
        }
        return false;
    }

  private:
    struct Task
    {
        JobId id = 0;
        std::uint32_t tid = 0;
        std::uint64_t pidTgid = 0;
        double remaining = 0.0;
        std::function<void()> onDone;
    };

    struct Core
    {
        bool busy = false;
        Task run;
        std::deque<Task> queue;
        sim::EventId slice;
        std::vector<sim::EventId> ticks; ///< the lone run's boundaries
        sim::Tick sliceStart = 0;
        sim::Tick runStart = 0;
        bool dispatching = false;
    };

    sim::Simulation &sim_;
    CpuConfig config_;
    sim::Rng rng_;
    CpuModel::SchedEventHook hook_;
    fault::FaultInjector *fault_ = nullptr;
    std::vector<Core> cores_;
    unsigned nextCore_ = 0;
    std::vector<std::uint32_t> seenTids_;
    JobId nextId_ = 1;
    double served_ = 0.0;
    std::uint64_t dispatches_ = 0;
    std::uint64_t preemptions_ = 0;

    void
    emit(const CpuModel::SchedEvent &e)
    {
        if (hook_)
            hook_(e);
    }

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

    void
    advanceCore(Core &core)
    {
        if (!core.busy || core.dispatching)
            return;
        const sim::Tick now = sim_.now();
        if (now == core.sliceStart)
            return;
        const double elapsed = static_cast<double>(now - core.sliceStart);
        const double work =
            std::min(elapsed * config_.speed, core.run.remaining);
        core.run.remaining -= work;
        served_ += work;
        core.sliceStart = now;
    }

    sim::Tick
    sliceTicks(double remaining) const
    {
        const double dt = std::min(remaining / config_.speed,
                                   static_cast<double>(config_.quantum));
        return std::max<sim::Tick>(1,
                                   static_cast<sim::Tick>(std::ceil(dt)));
    }

    void
    cancelTicks(Core &core)
    {
        for (sim::EventId &e : core.ticks)
            e.cancel();
        core.ticks.clear();
    }

    void
    switchEvent(std::uint32_t prev, bool runnable, const Task *next)
    {
        CpuModel::SchedEvent ev;
        ev.type = CpuModel::SchedEventType::Switch;
        ev.prevTid = prev;
        ev.prevRunnable = runnable;
        if (next != nullptr) {
            ev.tid = next->tid;
            ev.pidTgid = next->pidTgid;
        }
        emit(ev);
    }

    void
    dispatch(unsigned c, std::uint32_t prev, bool runnable)
    {
        Core &core = cores_[c];
        if (core.queue.empty()) {
            core.busy = false;
            switchEvent(prev, runnable, nullptr);
            return;
        }
        const sim::Tick delay = fault_ ? fault_->injectSchedDelay() : 0;
        if (delay > 0) {
            core.busy = true;
            core.dispatching = true;
            core.slice = sim_.schedule(delay, [this, c, prev, runnable] {
                cores_[c].dispatching = false;
                switchIn(c, prev, runnable);
            });
            return;
        }
        switchIn(c, prev, runnable);
    }

    void
    switchIn(unsigned c, std::uint32_t prev, bool runnable)
    {
        Core &core = cores_[c];
        if (core.queue.empty()) {
            core.busy = false;
            switchEvent(prev, runnable, nullptr);
            return;
        }
        core.run = std::move(core.queue.front());
        core.queue.pop_front();
        core.busy = true;
        ++dispatches_;
        switchEvent(prev, runnable, &core.run);
        startSlice(c);
    }

    void
    startSlice(unsigned c)
    {
        Core &core = cores_[c];
        core.sliceStart = core.runStart = sim_.now();
        const sim::Tick q = config_.quantum;
        const double w = static_cast<double>(q) * config_.speed;
        std::size_t k = 0;
        if (core.queue.empty())
            for (double r = core.run.remaining;
                 k < CpuModel::kMaxLoneSlices && sliceTicks(r) == q &&
                 r - std::min(w, r) > 1e-3;
                 ++k)
                r -= std::min(w, r);
        if (k == 0) {
            core.slice = sim_.schedule(sliceTicks(core.run.remaining),
                                       [this, c] { onSlice(c); });
            return;
        }
        for (std::size_t i = 1; i <= k; ++i)
            core.ticks.push_back(
                sim_.schedule(static_cast<sim::Tick>(i) * q,
                              [this, c, i] { onTick(c, i); }));
    }

    void
    onTick(unsigned c, std::size_t i)
    {
        Core &core = cores_[c];
        if (i < core.ticks.size() && core.ticks[i].pending()) {
            advanceCore(core);
            return;
        }
        core.ticks.clear();
        onSlice(c);
    }

    void
    onSlice(unsigned c)
    {
        Core &core = cores_[c];
        advanceCore(core);
        if (core.run.remaining <= 1e-3) {
            auto cb = std::move(core.run.onDone);
            const std::uint32_t prev = core.run.tid;
            core.busy = false;
            dispatch(c, prev, false);
            if (cb)
                cb();
            return;
        }
        if (!core.queue.empty()) {
            ++preemptions_;
            Task prev_task = std::move(core.run);
            const std::uint32_t prev = prev_task.tid;
            core.busy = false;
            core.queue.push_back(std::move(prev_task));
            dispatch(c, prev, true);
            return;
        }
        startSlice(c);
    }
};

/** One scripted action against a discrete engine at an absolute tick. */
struct SchedOp
{
    enum class Kind
    {
        Submit, ///< `count` jobs of `demand` for `tid` (same-tick burst)
        Cancel, ///< the `target`-th submitted job (may be done) or bogus
        Speed,  ///< setSpeed(speed)
    };
    sim::Tick at = 0;
    Kind kind = Kind::Submit;
    sim::Tick demand = 0;
    int count = 1;
    std::uint32_t tid = 1;
    std::uint64_t target = 0;
    double speed = 1.0;
};

/**
 * A seeded script whose ops mostly fall on the quantum grid, so they
 * meet lone-run boundaries, with same-tick bursts, cancels, and speed
 * changes to both integral and non-integral per-slice work q * speed.
 */
std::vector<SchedOp>
loneRunScript(std::uint64_t seed, sim::Tick q, int max_jobs)
{
    // q = 100: w = 100, 50, 80, 60, 200 are integral; 1.1, 0.37 and 1.73
    // give non-integral w and take the step-loop fallback.
    static constexpr double kSpeeds[] = {1.0, 0.5, 0.8, 0.6,
                                         2.0, 1.1, 0.37, 1.73};
    sim::Rng rng(seed);
    std::vector<SchedOp> ops;
    sim::Tick t = 0;
    int jobs = 0;
    while (jobs < max_jobs) {
        SchedOp op;
        t += rng.uniform() < 0.8
                 ? q * static_cast<sim::Tick>(rng.uniformInt(4))
                 : 1 + static_cast<sim::Tick>(rng.uniformInt(2 * q));
        op.at = t;
        const double u = rng.uniform();
        if (u < 0.15) {
            op.kind = SchedOp::Kind::Cancel;
            op.target = rng.uniformInt(static_cast<std::uint64_t>(jobs + 3));
        } else if (u < 0.22) {
            op.kind = SchedOp::Kind::Speed;
            op.speed = kSpeeds[rng.uniformInt(std::size(kSpeeds))];
        } else {
            op.demand = q * (1 + static_cast<sim::Tick>(rng.uniformInt(12)));
            if (rng.uniform() < 0.5)
                op.demand += static_cast<sim::Tick>(rng.uniformInt(q));
            op.count =
                rng.uniform() < 0.2 ? 2 + static_cast<int>(rng.uniformInt(3))
                                    : 1;
            op.tid = 1 + static_cast<std::uint32_t>(rng.uniformInt(6));
            jobs += op.count;
        }
        ops.push_back(op);
    }
    return ops;
}

/** Everything the tickless engine and the reference must agree on. */
struct SchedRun
{
    std::vector<std::pair<sim::Tick, std::uint64_t>> completions;
    std::vector<TickEv> evs;
    std::vector<std::size_t> active; ///< after every op, submit and completion
    std::vector<double> served;      ///< after every op, and at the end
    std::uint64_t dispatches = 0;
    std::uint64_t preemptions = 0;
    std::size_t elidedOps = 0; ///< ops on an elided boundary (reference)
};

template <typename Engine>
SchedRun
runSchedScript(const std::vector<SchedOp> &ops, const CpuConfig &cfg,
               const fault::FaultPlan &plan)
{
    sim::Simulation sim(17);
    Engine cpu(sim, cfg);
    fault::FaultInjector inj(plan, sim.forkRng());
    cpu.setFaultInjector(&inj);
    SchedRun run;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
        run.evs.push_back(
            {sim.now(), {e.type, e.prevTid, e.prevRunnable, e.tid}});
    });
    std::vector<std::uint64_t> ids;
    // Every fourth job's callback submits a follow-up from inside the
    // completion path, as a server's next request would.
    std::function<void(sim::Tick, std::uint32_t)> submit =
        [&](sim::Tick demand, std::uint32_t tid) {
            auto id = std::make_shared<std::uint64_t>(0);
            *id = cpu.submit(demand, CpuModel::TaskRef{tid, tid},
                             [&, id, demand, tid] {
                                 run.completions.emplace_back(sim.now(), *id);
                                 run.active.push_back(cpu.activeJobs());
                                 if (*id % 4 == 0 && ids.size() < 400)
                                     submit(demand / 2, tid);
                             });
            ids.push_back(*id);
        };
    // Each op schedules the next before acting, so an op meets a lone
    // run that started either before or after the op was scheduled.
    std::function<void(std::size_t)> arm = [&](std::size_t k) {
        sim.scheduleAt(ops[k].at, [&, k] {
            if (k + 1 < ops.size())
                arm(k + 1);
            if constexpr (std::is_same_v<Engine, EagerTicking>)
                run.elidedOps += cpu.onElidedBoundary();
            const SchedOp &op = ops[k];
            switch (op.kind) {
            case SchedOp::Kind::Submit:
                // Sampled after each submit of a burst too; a cancel is
                // sampled by the op's closing sample below.
                for (int i = 0; i < op.count; ++i) {
                    submit(op.demand, op.tid);
                    run.active.push_back(cpu.activeJobs());
                }
                break;
            case SchedOp::Kind::Cancel:
                cpu.cancel(op.target < ids.size() ? ids[op.target]
                                                  : 1000000 + op.target);
                break;
            case SchedOp::Kind::Speed:
                cpu.setSpeed(op.speed);
                break;
            }
            run.active.push_back(cpu.activeJobs());
            run.served.push_back(cpu.servedTicks());
        });
    };
    arm(0);
    sim.run();
    run.served.push_back(cpu.servedTicks());
    run.dispatches = cpu.dispatches();
    run.preemptions = cpu.preemptions();
    return run;
}

bool
servedMatches(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::abs(a[i] - b[i]) > 1e-12 * std::max(1.0, std::abs(b[i])))
            return false;
    return true;
}

bool
sameRun(const SchedRun &got, const SchedRun &ref)
{
    return got.completions == ref.completions && got.evs == ref.evs &&
           got.active == ref.active && got.dispatches == ref.dispatches &&
           got.preemptions == ref.preemptions &&
           servedMatches(got.served, ref.served);
}

TEST(SchedDiscrete, TicklessMatchesEagerTickingReference)
{
    const sim::Tick q = 100;
    std::size_t scripts = 0;
    std::size_t differing = 0;
    std::size_t elided_ops = 0;
    for (unsigned cores : {1u, 2u, 3u}) {
        for (bool jitter : {false, true}) {
            for (bool faults : {false, true}) {
                const CpuConfig cfg =
                    discreteCpu(cores, q, jitter ? 0.35 : 0.0);
                fault::FaultPlan plan;
                if (faults) {
                    plan.schedDelayProbability = 0.25;
                    plan.schedDelayNs = q;
                }
                for (std::uint64_t seed = 1; seed <= 800; ++seed) {
                    const auto ops = loneRunScript(
                        seed * 7919 + cores, q,
                        8 + static_cast<int>(seed % 40));
                    const SchedRun ref =
                        runSchedScript<EagerTicking>(ops, cfg, plan);
                    const SchedRun got =
                        runSchedScript<CpuModel>(ops, cfg, plan);
                    ++scripts;
                    elided_ops += ref.elidedOps;
                    if (sameRun(got, ref))
                        continue;
                    if (++differing > 1)
                        continue;
                    // Spell out the first difference only.
                    SCOPED_TRACE(testing::Message()
                                 << "cores=" << cores << " jitter="
                                 << jitter << " faults=" << faults
                                 << " seed=" << seed);
                    EXPECT_EQ(got.completions, ref.completions);
                    EXPECT_EQ(got.evs, ref.evs);
                    EXPECT_EQ(got.active, ref.active);
                    EXPECT_EQ(got.dispatches, ref.dispatches);
                    EXPECT_EQ(got.preemptions, ref.preemptions);
                    EXPECT_TRUE(servedMatches(got.served, ref.served));
                }
            }
        }
    }
    EXPECT_EQ(differing, 0u) << "of " << scripts << " scripts";
    // The scripts must really meet elided boundaries (20,975 do).
    EXPECT_GE(elided_ops, 10000u);
}

/**
 * The cap: a job far beyond 2^53 ticks, at an integral and a
 * non-integral per-slice work, plans a lone run of at most
 * kMaxLoneSlices slices and still matches the reference.
 */
TEST(SchedDiscrete, HugeJobLoneRunsAreCappedAndMatchTheReference)
{
    const sim::Tick q = sim::microseconds(200);
    for (double speed : {1.1, 1.0}) {
        SCOPED_TRACE(speed);
        CpuConfig cfg = discreteCpu(1, q);
        cfg.speed = speed;
        auto start = [&]<typename Engine>(Engine &cpu, sim::Simulation &sim,
                                          std::vector<TickEv> &evs) {
            cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
                evs.push_back(
                    {sim.now(), {e.type, e.prevTid, e.prevRunnable, e.tid}});
            });
            cpu.submit(sim::Tick{1} << 60, CpuModel::TaskRef{1, 1}, [] {});
        };
        sim::Simulation sim_got(3);
        CpuModel got(sim_got, cfg);
        std::vector<TickEv> got_evs;
        start(got, sim_got, got_evs);
        // One event, at the capped lone run's last boundary.
        EXPECT_EQ(sim_got.events().size(), 1u);
        EXPECT_EQ(sim_got.events().nextTick(),
                  static_cast<sim::Tick>(CpuModel::kMaxLoneSlices) * q);
        sim_got.runUntil(sim::seconds(1));

        sim::Simulation sim_ref(3);
        EagerTicking ref(sim_ref, cfg);
        std::vector<TickEv> ref_evs;
        start(ref, sim_ref, ref_evs);
        sim_ref.runUntil(sim::seconds(1));

        EXPECT_EQ(got_evs, ref_evs);
        EXPECT_EQ(got.activeJobs(), 1u);
        EXPECT_EQ(got.dispatches(), ref.dispatches());
        EXPECT_NEAR(got.servedTicks(), ref.servedTicks(),
                    1e-12 * ref.servedTicks());
        // 5000 whole slices in the second, in five lone runs.
        EXPECT_NEAR(ref.servedTicks(), 5000.0 * q * speed, 1e-3 * q);
        EXPECT_LE(sim_got.executedEvents(), 5u);
    }
}

// ---------------------------------------------------------------------
// The runqlat probe pair against an exhaustive C++ ground truth.

/** The bytecode's unrolled log2 chain: clamp(floor(log2 v), 0, 15). */
unsigned
log2Bucket(std::uint64_t v)
{
    unsigned b = 0;
    for (unsigned k = 1; k < ebpf::probes::kRunqlatBuckets; ++k) {
        if (v < (1ull << k))
            return b;
        b = k;
    }
    return ebpf::probes::kRunqlatBuckets - 1;
}

/**
 * Userspace replica of the runqlat pair's semantics, fed the same raw
 * tracepoint events: stamp on wakeup (all tids), re-stamp a preempted
 * prev, bucket the incoming task's wait per tenant on switch-in.
 */
struct RunqTruth
{
    std::vector<std::uint32_t> tgids;
    std::map<std::uint64_t, std::uint64_t> stamp;
    std::vector<std::array<std::uint64_t, 16>> hist;

    explicit RunqTruth(std::vector<std::uint32_t> t)
        : tgids(std::move(t)), hist(tgids.size())
    {
        for (auto &h : hist)
            h.fill(0);
    }

    void onEvent(const kernel::RawSyscallEvent &ev)
    {
        using kernel::TracepointId;
        if (ev.point == TracepointId::SchedWakeup ||
            ev.point == TracepointId::SchedWakeupNew) {
            stamp[static_cast<std::uint64_t>(ev.syscall)] =
                static_cast<std::uint64_t>(ev.timestamp);
            return;
        }
        if (ev.point != TracepointId::SchedSwitch)
            return;
        if (ev.ret == 0) // prev preempted: its next wait starts now
            stamp[static_cast<std::uint64_t>(ev.syscall)] =
                static_cast<std::uint64_t>(ev.timestamp);
        const std::uint32_t tgid =
            static_cast<std::uint32_t>(ev.pidTgid >> 32);
        std::size_t slot = tgids.size();
        for (std::size_t i = 0; i < tgids.size(); ++i)
            if (tgids[i] == tgid) {
                slot = i;
                break;
            }
        if (slot == tgids.size())
            return;
        const std::uint64_t tid = ev.pidTgid & 0xffffffffull;
        const auto it = stamp.find(tid);
        if (it == stamp.end())
            return;
        const std::uint64_t wait =
            static_cast<std::uint64_t>(ev.timestamp) - it->second;
        stamp.erase(it);
        ++hist[slot][log2Bucket(wait >> ebpf::probes::kRunqlatShift)];
    }
};

TEST(SchedRunqlat, HistogramMatchesExhaustiveGroundTruth)
{
    sim::Simulation sim(11);
    kernel::KernelConfig kc;
    kc.cpu.cores = 2;
    kc.cpu.jitterSigma = 0.0;
    kc.cpu.sched = SchedModel::Discrete;
    kc.cpu.quantum = sim::microseconds(5);
    kernel::Kernel kern(sim, kc);

    ebpf::EbpfRuntime rt(kern, {});
    ebpf::probes::TenantSet tenants;
    tenants.tgids = {1000, 2000};
    tenants.pollSyscalls = {232, 232};
    const auto maps = ebpf::probes::createRunqlatMaps(rt, 2, "runq");
    auto attach = [&](ebpf::ProgramSpec spec, kernel::TracepointId point) {
        const auto vr = rt.loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    };
    attach(ebpf::probes::buildRunqlatWakeup(rt, maps),
           kernel::TracepointId::SchedWakeup);
    attach(ebpf::probes::buildRunqlatWakeup(rt, maps),
           kernel::TracepointId::SchedWakeupNew);
    attach(ebpf::probes::buildRunqlatSwitch(rt, tenants, maps),
           kernel::TracepointId::SchedSwitch);

    RunqTruth truth({1000, 2000});
    auto recorder = [&truth](const kernel::RawSyscallEvent &ev) {
        truth.onEvent(ev);
        return sim::Tick{0};
    };
    kern.tracepoints().attach(kernel::TracepointId::SchedWakeup, recorder);
    kern.tracepoints().attach(kernel::TracepointId::SchedWakeupNew,
                              recorder);
    kern.tracepoints().attach(kernel::TracepointId::SchedSwitch, recorder);

    // Bursty load across two tenants and an unattributed tgid on two
    // cores: deep queues, preempt re-stamps, anonymous-tid churn.
    for (std::uint32_t i = 0; i < 400; ++i) {
        const sim::Tick at = static_cast<sim::Tick>(i / 8) * 9000;
        const std::uint32_t tgid =
            i % 3 == 0 ? 1000u : (i % 3 == 1 ? 2000u : 7777u);
        const std::uint32_t tid = 1 + (i % 16);
        sim.scheduleAt(at, [&kern, i, tgid, tid] {
            kern.cpu().submit(
                2000 + (i % 7) * 3000,
                CpuModel::TaskRef{tid, kernel::makePidTgid(tgid, tid)},
                [] {});
        });
    }
    sim.run();

    std::uint64_t total = 0;
    for (std::size_t slot = 0; slot < 2; ++slot) {
        const std::vector<std::uint64_t> got =
            ebpf::probes::readRunqlatHist(rt, maps, slot);
        ASSERT_EQ(got.size(), truth.hist[slot].size());
        for (std::size_t b = 0; b < got.size(); ++b) {
            EXPECT_EQ(got[b], truth.hist[slot][b])
                << "slot " << slot << " bucket " << b;
            total += got[b];
        }
    }
    // The workload really queued: multiple buckets populated.
    EXPECT_GT(total, 100u);
    EXPECT_GT(kern.cpu().preemptions(), 0u);

    // Quantile sanity on the probe's own histogram: p99 >= p50, both
    // inside the representable range.
    const auto h0 = ebpf::probes::readRunqlatHist(rt, maps, 0);
    const std::uint64_t p50 = ebpf::probes::runqlatQuantile(h0, 0.50);
    const std::uint64_t p99 = ebpf::probes::runqlatQuantile(h0, 0.99);
    EXPECT_GE(p99, p50);
    EXPECT_GT(p99, 0u);
}

// ---------------------------------------------------------------------
// End to end: a discrete-sched cluster run emits the fourth family.

TEST(SchedCluster, DiscreteClusterEmitsRunqlatSamples)
{
    core::ClusterExperimentConfig cfg;
    for (const char *name : {"img-dnn", "xapian"}) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(name);
        t.offeredRps = 0.5 * t.workload.saturationRps / 2.0;
        t.requests = 1500;
        cfg.tenants.push_back(std::move(t));
    }
    cfg.machines = 1;
    cfg.sched = SchedModel::Discrete;
    cfg.antagonist = true;
    cfg.antagonistConfig.threads = 48;
    cfg.agent.minWindowSyscalls = 64;
    cfg.agent.runqlatHistogram = true;
    cfg.seed = 13;

    const auto res = core::runClusterExperiment(cfg);
    ASSERT_EQ(res.tenants.size(), 2u);

    // The antagonist oversubscribes the cores, so every tenant's
    // run-queue histogram must have accumulated real waits.
    for (const auto &tr : res.tenants) {
        EXPECT_GT(tr.runqP99Ns, 0.0) << tr.name;
        ASSERT_FALSE(tr.machines.empty());
        EXPECT_GT(tr.machines[0].runqP99Ns, 0.0) << tr.name;
        bool windowed = false;
        for (const auto &s : tr.fleetSeries)
            if (s.runqP99Ns > 0.0)
                windowed = true;
        EXPECT_TRUE(windowed) << tr.name;
    }

    // Double-run determinism through the whole cluster stack.
    const auto res2 = core::runClusterExperiment(cfg);
    for (std::size_t t = 0; t < res.tenants.size(); ++t) {
        EXPECT_DOUBLE_EQ(res.tenants[t].runqP99Ns,
                         res2.tenants[t].runqP99Ns);
        EXPECT_EQ(res.tenants[t].completed, res2.tenants[t].completed);
        EXPECT_EQ(res.tenants[t].p99Ns, res2.tenants[t].p99Ns);
    }
}

} // namespace
} // namespace reqobs
