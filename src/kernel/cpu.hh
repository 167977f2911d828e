/**
 * @file
 * Multi-core CPU model: fluid GPS sharing or discrete dispatch.
 *
 * Each request's service phase is a "job" with a CPU demand in ticks.
 * Two scheduling models are supported:
 *
 * **SchedModel::Gps** (default, legacy): while n jobs are active on c
 * cores running at speed s, every job progresses at rate
 * s * min(1, c/n). This reproduces the first-order behaviour that
 * matters for the paper: below saturation jobs run at full speed; past
 * saturation all in-flight work slows down together, so completions
 * (and therefore `send` syscalls) become bursty and the variance of
 * inter-send deltas rises (Fig. 3). The fluid model has no notion of a
 * task *waiting* to run, so it emits no scheduler events.
 *
 * **SchedModel::Discrete**: per-core FIFO run queues with round-robin
 * task placement and quantum-based dispatch. A task that exhausts its
 * quantum is preempted only when another task is waiting on the same
 * core (otherwise it silently keeps the CPU — no spurious events).
 * A task alone on its core runs *tickless*: one event stands for the
 * whole slices ahead of it, and a waiter pulls that event back to the
 * next quantum boundary (lone runs, DESIGN.md §15).
 * Every transition is surfaced through a hook so the Kernel can fire
 * `sched_wakeup` / `sched_wakeup_new` / `sched_switch` tracepoints, and
 * run-queue latency (wakeup-or-preempt to switch-in) becomes a real,
 * observable quantity. As quantum -> 0 round-robin converges to
 * processor sharing, so the discrete engine converges to GPS
 * completion times (DESIGN.md §15 and the quantum sweep in
 * tests/sched_test.cc).
 *
 * On top of either model, a contention-jitter term inflates each job's
 * demand by a lognormal factor whose sigma grows with the overload
 * ratio, modelling the cache/lock/context-switch interference that the
 * scheduling abstraction elides. DESIGN.md §7 lists this as an
 * ablation knob. Both models draw the factor at submit() from the same
 * forked RNG stream, so a quantum sweep with jitterSigma = 0 isolates
 * pure scheduling effects.
 */

#ifndef REQOBS_KERNEL_CPU_HH
#define REQOBS_KERNEL_CPU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace reqobs::fault {
class FaultInjector;
}

namespace reqobs::kernel {

/** Scheduling model selector (see file comment). */
enum class SchedModel
{
    Gps,      ///< fluid processor sharing (legacy, bit-exact default)
    Discrete, ///< per-core run queues + quantum dispatch
};

/** Static CPU configuration. */
struct CpuConfig
{
    unsigned cores = 16;
    /** Relative speed; 1.0 = nominal. DVFS hooks scale this at runtime. */
    double speed = 1.0;
    /**
     * Contention jitter strength: sigma of the lognormal demand inflation
     * per unit of overload ((n/cores) - 1, clamped to [0, jitterCap]).
     */
    double jitterSigma = 0.35;
    double jitterCap = 2.0;
    /**
     * Scheduling model. Gps keeps today's completion times bit-exactly;
     * Discrete enables the sched tracepoints.
     */
    SchedModel sched = SchedModel::Gps;
    /** Discrete-dispatch timeslice. Ignored under Gps. */
    sim::Tick quantum = sim::microseconds(200);
};

/**
 * Event-driven CPU scheduler. submit() starts a job; the completion
 * callback runs when its (jitter-inflated) demand has been served.
 */
class CpuModel
{
  public:
    CpuModel(sim::Simulation &sim, const CpuConfig &config);

    CpuModel(const CpuModel &) = delete;
    CpuModel &operator=(const CpuModel &) = delete;

    /** Opaque job id. */
    using JobId = std::uint64_t;

    /**
     * Whole slices one lone run may stand for (discrete mode). Its last
     * boundary starts the next lone run, so the cap bounds the work of
     * planning one without changing what it does.
     */
    static constexpr std::uint64_t kMaxLoneSlices = 1024;

    /**
     * Task identity carried by a job so the discrete scheduler can emit
     * attributable events. The default (tid 0) is an anonymous job:
     * events still fire but per-tid latency is only meaningful when at
     * most one job per tid is in flight (true for kernel threads).
     */
    struct TaskRef
    {
        std::uint32_t tid = 0;
        std::uint64_t pidTgid = 0;
    };

    /** Scheduler transition surfaced to the owning Kernel. */
    enum class SchedEventType
    {
        Wakeup,    ///< a previously seen tid became runnable
        WakeupNew, ///< first submit for this tid (task creation)
        Switch,    ///< core switched from prev to next (next tid 0 = idle)
    };

    struct SchedEvent
    {
        SchedEventType type = SchedEventType::Wakeup;
        /** Switch only: task leaving the core (0 = was idle). */
        std::uint32_t prevTid = 0;
        /** Switch only: prev is still runnable (preempted, not done). */
        bool prevRunnable = false;
        /** Woken / next task's tid (0 = core going idle). */
        std::uint32_t tid = 0;
        /** Woken / next task's pid_tgid (0 = core going idle). */
        std::uint64_t pidTgid = 0;
    };

    using SchedEventHook = std::function<void(const SchedEvent &)>;

    /** Install the transition hook (discrete mode only; Gps never fires). */
    void setSchedEventHook(SchedEventHook hook) { hook_ = std::move(hook); }

    /** Arm sched-delay fault injection (discrete switch-in delays). */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        fault_ = injector;
    }

    /**
     * Start a compute job of @p demand ticks of CPU work.
     * @p on_done fires (via the event queue) at completion.
     */
    JobId submit(sim::Tick demand, std::function<void()> on_done);

    /** As above, with task identity for the discrete scheduler. */
    JobId submit(sim::Tick demand, const TaskRef &task,
                 std::function<void()> on_done);

    /** Abort a job; its callback never fires. Unknown ids are ignored. */
    void cancel(JobId id);

    /** Jobs currently on CPU (running or queued). */
    std::size_t activeJobs() const;

    /** Change clock speed (DVFS); affects all in-flight jobs. */
    void setSpeed(double speed);

    double speed() const { return config_.speed; }

    unsigned cores() const { return config_.cores; }

    SchedModel schedModel() const { return config_.sched; }

    sim::Tick quantum() const { return config_.quantum; }

    /** Aggregate CPU ticks served so far (utilisation accounting). */
    double servedTicks() const;

    /** Total jobs completed. */
    std::uint64_t completedJobs() const { return completed_; }

    /** Discrete mode: switch-in transitions so far (0 under Gps). */
    std::uint64_t dispatches() const { return dispatches_; }

    /** Discrete mode: quantum-expiry preemptions so far (0 under Gps). */
    std::uint64_t preemptions() const { return preemptions_; }

  private:
    /** Discrete-dispatch task: a job plus identity and placement. */
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
        bool busy = false; ///< run holds a task (or a delayed switch-in)
        Task run;
        std::deque<Task> queue;
        sim::EventId slice;
        sim::Tick sliceStart = 0;
        /**
         * Lone run: the whole slices from sliceStart up to the slice
         * event, whose other boundaries have no event of their own
         * (0 = an ordinary slice; at most 1 once a task waits).
         */
        std::uint64_t loneSlices = 0;
        bool dispatching = false; ///< switch-in delayed by a sched fault
    };

    sim::Simulation &sim_;
    CpuConfig config_;
    sim::Rng rng_;
    SchedEventHook hook_;
    fault::FaultInjector *fault_ = nullptr;

    // GPS state: one entry per active job in three parallel arrays,
    // sorted by remaining work, largest first. advance() subtracts the
    // same rounded work from every job and rounding is monotone, so the
    // order holds; the minimum is the back, and finished jobs pop off
    // it. Callbacks of jobs finishing together are sorted by id before
    // they fire, which keeps the submission-order contract.
    std::vector<double> remaining_;    ///< demand left, in CPU ticks
    std::vector<JobId> ids_;
    std::vector<std::uint32_t> cbSlot_; ///< index into callbacks_
    /** Completion callbacks, recycled through callbackFree_. */
    std::vector<std::function<void()>> callbacks_;
    std::vector<std::uint32_t> callbackFree_;
    /** (id, callback slot) of finished jobs; reused by onCompletion(). */
    std::vector<std::pair<JobId, std::uint32_t>> finished_;
    JobId nextId_ = 1;
    sim::Tick lastAdvance_ = 0;
    sim::EventId completionEvent_;
    std::uint64_t completed_ = 0;
    double served_ = 0.0;

    // Discrete state.
    std::vector<Core> cores_;
    /** Jobs submitted and not yet completed or cancelled: each core's
     *  queue plus its running task (not a delayed switch-in's). */
    std::size_t discreteJobs_ = 0;
    unsigned nextCore_ = 0; ///< round-robin placement cursor
    std::vector<std::uint32_t> seenTids_;
    std::uint64_t dispatches_ = 0;
    std::uint64_t preemptions_ = 0;

    /** Lognormal demand inflation for the current overload level. */
    double jitterFactor(std::size_t active_after);

    void emitSched(const SchedEvent &ev);

    /** @name GPS engine. @{ */
    double currentRate() const;
    void advance();
    void reschedule();
    void onCompletion();
    JobId submitGps(sim::Tick demand, std::function<void()> on_done);
    /**
     * Move a callback out of the pool and free its slot. The caller
     * runs (or drops) what is returned, so a callback that submits jobs
     * (reusing its slot or growing the pool) never runs from the pool.
     */
    std::function<void()> takeCallback(std::uint32_t slot);
    /** @} */

    /** @name Discrete engine. @{ */
    JobId submitDiscrete(sim::Tick demand, const TaskRef &task,
                         std::function<void()> on_done);
    /**
     * Account the running task's progress up to now on one core and end
     * any lone run; the caller re-plans the slice.
     */
    void advanceCore(Core &core);
    /** Work one whole slice does: quantum * speed. */
    double sliceWork() const;
    /** Ticks to the end of a slice that starts with @p remaining work. */
    sim::Tick sliceTicks(double remaining) const;
    /** Leading whole slices from @p remaining, at most kMaxLoneSlices. */
    std::uint64_t countLoneSlices(double remaining) const;
    /** Fold @p k whole slices of the core's lone run into its state. */
    void foldSlices(Core &core, std::uint64_t k);
    /** Whole slices of the core's lone run that ended by now. */
    std::uint64_t slicesPassed(const Core &core) const;
    /** Pick the next task (or go idle) after prev left core @p c. */
    void dispatch(unsigned c, std::uint32_t prev_tid, bool prev_runnable);
    /** Actually pop + switch in (after any injected sched delay). */
    void switchIn(unsigned c, std::uint32_t prev_tid, bool prev_runnable);
    /** Schedule the running task's next slice end (or lone run). */
    void startSlice(unsigned c);
    /** Slice-end body: complete, preempt, or continue. */
    void onSlice(unsigned c);
    /** @} */
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_CPU_HH
