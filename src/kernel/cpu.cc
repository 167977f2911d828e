#include "kernel/cpu.hh"

#include <algorithm>
#include <cmath>

#include "fault/fault.hh"
#include "sim/logging.hh"

namespace reqobs::kernel {

namespace {

/** Work below this many ticks counts as finished (float slack). */
constexpr double kEpsilon = 1e-3;

/**
 * Whether k whole slices of per-slice work @p w leave exactly
 * remaining - k*w (DESIGN.md §15): w is an integer and remaining is
 * below 2^53, so every step's difference is representable.
 */
bool
exactSlices(double remaining, double w)
{
    return w == std::floor(w) && remaining < 9007199254740992.0;
}

} // namespace

CpuModel::CpuModel(sim::Simulation &sim, const CpuConfig &config)
    : sim_(sim), config_(config), rng_(sim.forkRng())
{
    if (config.cores == 0)
        sim::fatal("CpuModel: need at least one core");
    if (config.speed <= 0.0)
        sim::fatal("CpuModel: speed must be positive");
    if (config_.sched == SchedModel::Discrete) {
        if (config_.quantum <= 0)
            sim::fatal("CpuModel: discrete dispatch needs a positive "
                       "quantum");
        cores_.resize(config_.cores);
    }
    lastAdvance_ = sim.now();
}

double
CpuModel::jitterFactor(std::size_t active_after)
{
    // Contention jitter: inflate demand when the machine is
    // oversubscribed. Draws from rng_ only when the knob is live, so a
    // jitter-free run never consumes the stream.
    const double n = static_cast<double>(active_after);
    const double overload =
        std::clamp(n / static_cast<double>(config_.cores) - 1.0, 0.0,
                   config_.jitterCap);
    double factor = 1.0;
    if (overload > 0.0 && config_.jitterSigma > 0.0) {
        const double sigma = config_.jitterSigma * overload;
        factor = std::exp(sigma * rng_.normal());
    }
    return factor;
}

void
CpuModel::emitSched(const SchedEvent &ev)
{
    if (hook_)
        hook_(ev);
}

std::size_t
CpuModel::activeJobs() const
{
    return config_.sched == SchedModel::Gps ? remaining_.size()
                                            : discreteJobs_;
}

CpuModel::JobId
CpuModel::submit(sim::Tick demand, std::function<void()> on_done)
{
    return submit(demand, TaskRef{}, std::move(on_done));
}

CpuModel::JobId
CpuModel::submit(sim::Tick demand, const TaskRef &task,
                 std::function<void()> on_done)
{
    if (demand < 0)
        sim::panic("CpuModel::submit: negative demand");
    if (config_.sched == SchedModel::Gps)
        return submitGps(demand, std::move(on_done));
    return submitDiscrete(demand, task, std::move(on_done));
}

void
CpuModel::cancel(JobId id)
{
    if (config_.sched == SchedModel::Gps) {
        advance();
        const auto it = std::find(ids_.begin(), ids_.end(), id);
        if (it != ids_.end()) {
            const auto i = it - ids_.begin();
            takeCallback(cbSlot_[i]);
            remaining_.erase(remaining_.begin() + i);
            ids_.erase(it);
            cbSlot_.erase(cbSlot_.begin() + i);
            reschedule();
        }
        return;
    }
    for (unsigned c = 0; c < cores_.size(); ++c) {
        Core &core = cores_[c];
        if (core.busy && !core.dispatching && core.run.id == id) {
            advanceCore(core);
            core.slice.cancel();
            const std::uint32_t prev = core.run.tid;
            core.busy = false;
            core.run.onDone = nullptr;
            --discreteJobs_;
            dispatch(c, prev, /*prev_runnable=*/false);
            return;
        }
        for (auto it = core.queue.begin(); it != core.queue.end(); ++it) {
            if (it->id == id) {
                core.queue.erase(it);
                --discreteJobs_;
                return;
            }
        }
    }
}

void
CpuModel::setSpeed(double speed)
{
    if (speed <= 0.0)
        sim::fatal("CpuModel::setSpeed: speed must be positive");
    if (config_.sched == SchedModel::Gps) {
        advance();
        config_.speed = speed;
        reschedule();
        return;
    }
    // Bank progress at the old speed, then re-plan every running slice.
    for (Core &core : cores_)
        advanceCore(core);
    config_.speed = speed;
    for (unsigned c = 0; c < cores_.size(); ++c) {
        Core &core = cores_[c];
        if (core.busy && !core.dispatching) {
            core.slice.cancel();
            startSlice(c);
        }
    }
}

double
CpuModel::servedTicks() const
{
    // The boundaries a lone run has passed have not been folded yet.
    double served = served_;
    for (const Core &core : cores_)
        served += static_cast<double>(slicesPassed(core)) * sliceWork();
    return served;
}

// --- GPS engine (fluid sharing; bit-exact with the original) ---

double
CpuModel::currentRate() const
{
    if (remaining_.empty())
        return 0.0;
    const double n = static_cast<double>(remaining_.size());
    const double c = static_cast<double>(config_.cores);
    return config_.speed * std::min(1.0, c / n);
}

void
CpuModel::advance()
{
    const sim::Tick now = sim_.now();
    if (now == lastAdvance_)
        return;
    const double rate = currentRate();
    const double elapsed = static_cast<double>(now - lastAdvance_);
    if (rate > 0.0) {
        const double work = elapsed * rate;
        for (double &r : remaining_)
            r -= work;
        served_ += work * static_cast<double>(remaining_.size());
    }
    lastAdvance_ = now;
}

CpuModel::JobId
CpuModel::submitGps(sim::Tick demand, std::function<void()> on_done)
{
    advance();
    const double factor = jitterFactor(remaining_.size() + 1);

    const JobId id = nextId_++;
    const double work = std::max(1.0, static_cast<double>(demand) * factor);
    std::uint32_t slot;
    if (callbackFree_.empty()) {
        slot = static_cast<std::uint32_t>(callbacks_.size());
        callbacks_.push_back(std::move(on_done));
    } else {
        slot = callbackFree_.back();
        callbackFree_.pop_back();
        callbacks_[slot] = std::move(on_done);
    }
    // After the jobs with as much work left or more.
    const auto i = std::upper_bound(remaining_.begin(), remaining_.end(),
                                    work, std::greater<>()) -
                   remaining_.begin();
    remaining_.insert(remaining_.begin() + i, work);
    ids_.insert(ids_.begin() + i, id);
    cbSlot_.insert(cbSlot_.begin() + i, slot);
    reschedule();
    return id;
}

std::function<void()>
CpuModel::takeCallback(std::uint32_t slot)
{
    std::function<void()> fn = std::move(callbacks_[slot]);
    callbacks_[slot] = nullptr;
    callbackFree_.push_back(slot);
    return fn;
}

void
CpuModel::reschedule()
{
    if (remaining_.empty()) {
        completionEvent_.cancel();
        return;
    }
    const double dt = std::max(0.0, remaining_.back()) / currentRate();
    const sim::Tick when =
        sim_.now() + static_cast<sim::Tick>(std::ceil(std::max(0.0, dt)));
    // A new seq even when the tick is unchanged: events on one tick run
    // in scheduling order, and requeue() keys the event as a cancel plus
    // a schedule would.
    if (!completionEvent_.requeue(when))
        completionEvent_ = sim_.scheduleAt(when, [this] { onCompletion(); });
}

void
CpuModel::onCompletion()
{
    advance();
    // The finished jobs are the ones with the least work left: the back.
    finished_.clear();
    while (!remaining_.empty() && remaining_.back() <= kEpsilon) {
        finished_.emplace_back(ids_.back(), cbSlot_.back());
        remaining_.pop_back();
        ids_.pop_back();
        cbSlot_.pop_back();
    }
    completed_ += finished_.size();
    reschedule();
    // Run callbacks after rescheduling (they commonly submit new jobs),
    // in submission order: ids are monotonic.
    if (finished_.size() > 1)
        std::sort(finished_.begin(), finished_.end());
    for (const auto &done : finished_)
        takeCallback(done.second)();
}

// --- Discrete engine (per-core run queues + quantum dispatch) ---

CpuModel::JobId
CpuModel::submitDiscrete(sim::Tick demand, const TaskRef &task,
                         std::function<void()> on_done)
{
    const double factor = jitterFactor(activeJobs() + 1);

    const JobId id = nextId_++;
    Task t;
    t.id = id;
    t.tid = task.tid;
    t.pidTgid = task.pidTgid;
    t.remaining = std::max(1.0, static_cast<double>(demand) * factor);
    t.onDone = std::move(on_done);

    // Wakeup fires before any switch-in so a runqlat probe stamps the
    // wait start first; an immediate dispatch then measures zero wait.
    const auto pos =
        std::lower_bound(seenTids_.begin(), seenTids_.end(), task.tid);
    const bool seen = pos != seenTids_.end() && *pos == task.tid;
    if (!seen)
        seenTids_.insert(pos, task.tid);
    SchedEvent wake;
    wake.type =
        seen ? SchedEventType::Wakeup : SchedEventType::WakeupNew;
    wake.tid = task.tid;
    wake.pidTgid = task.pidTgid;
    emitSched(wake);

    const unsigned c = nextCore_;
    nextCore_ = (nextCore_ + 1) % static_cast<unsigned>(cores_.size());
    Core &core = cores_[c];
    core.queue.push_back(std::move(t));
    ++discreteJobs_;
    if (!core.busy) {
        dispatch(c, /*prev_tid=*/0, /*prev_runnable=*/false);
    } else if (core.loneSlices > 1) {
        // The first waiter ends the lone run at its next boundary.
        foldSlices(core, slicesPassed(core));
        if (core.loneSlices > 1) {
            core.loneSlices = 1;
            core.slice.retime(core.sliceStart + config_.quantum);
        }
    }
    return id;
}

void
CpuModel::advanceCore(Core &core)
{
    if (!core.busy || core.dispatching)
        return;
    // A boundary on this tick that has not passed yet is covered by the
    // partial slice below, whose work for a whole quantum is the same.
    foldSlices(core, slicesPassed(core));
    core.loneSlices = 0;
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

double
CpuModel::sliceWork() const
{
    // advanceCore's elapsed * speed for an elapsed whole quantum.
    return static_cast<double>(config_.quantum) * config_.speed;
}

sim::Tick
CpuModel::sliceTicks(double remaining) const
{
    const double ttf = remaining / config_.speed;
    const double dt =
        std::min(ttf, static_cast<double>(config_.quantum));
    return std::max<sim::Tick>(1, static_cast<sim::Tick>(std::ceil(dt)));
}

std::uint64_t
CpuModel::countLoneSlices(double remaining) const
{
    const double w = sliceWork();
    // A slice starting with r runs a whole quantum and leaves > epsilon.
    const auto whole = [&](double r) {
        return sliceTicks(r) == config_.quantum &&
               r - std::min(w, r) > kEpsilon;
    };
    if (exactSlices(remaining, w)) {
        // k whole slices leave remaining - k*w, and whole() is monotone
        // in the work left, so the whole slices are a prefix. Estimate
        // its length, then settle it with the predicate.
        const double est = std::ceil((remaining - kEpsilon) / w) - 1.0;
        std::uint64_t k =
            est <= 0.0 ? 0
            : est >= static_cast<double>(kMaxLoneSlices)
                ? kMaxLoneSlices
                : static_cast<std::uint64_t>(est);
        while (k > 0 && !whole(remaining - static_cast<double>(k - 1) * w))
            --k;
        while (k < kMaxLoneSlices &&
               whole(remaining - static_cast<double>(k) * w))
            ++k;
        return k;
    }
    std::uint64_t k = 0;
    for (; k < kMaxLoneSlices && whole(remaining); ++k)
        remaining -= std::min(w, remaining);
    return k;
}

void
CpuModel::foldSlices(Core &core, std::uint64_t k)
{
    if (k == 0)
        return;
    const double w = sliceWork();
    double &r = core.run.remaining;
    if (exactSlices(r, w)) {
        const double work = static_cast<double>(k) * w;
        r -= work;
        served_ += work;
    } else {
        for (std::uint64_t i = 0; i < k; ++i) {
            const double work = std::min(w, r);
            r -= work;
            served_ += work;
        }
    }
    core.sliceStart += static_cast<sim::Tick>(k) * config_.quantum;
    core.loneSlices -= k;
}

std::uint64_t
CpuModel::slicesPassed(const Core &core) const
{
    if (core.loneSlices == 0)
        return 0;
    const sim::Tick d = sim_.now() - core.sliceStart;
    std::uint64_t k = std::min<std::uint64_t>(
        core.loneSlices, static_cast<std::uint64_t>(d / config_.quantum));
    // Tie rule: a lone run's boundaries count as scheduled when the run
    // started, so one on this very tick has passed only if the running
    // event was scheduled after that. The last is the slice event
    // itself and never counts: pending, it has not passed; running, it
    // is advanceCore's partial slice.
    if (k > 0 && d == static_cast<sim::Tick>(k) * config_.quantum &&
        (k == core.loneSlices || core.slice.scheduledAfterRunning()))
        --k;
    return k;
}

void
CpuModel::dispatch(unsigned c, std::uint32_t prev_tid, bool prev_runnable)
{
    Core &core = cores_[c];
    if (core.queue.empty()) {
        // Going idle is not a switch-in: no injected sched delay.
        core.busy = false;
        SchedEvent ev;
        ev.type = SchedEventType::Switch;
        ev.prevTid = prev_tid;
        ev.prevRunnable = prev_runnable;
        emitSched(ev);
        return;
    }
    sim::Tick delay = 0;
    if (fault_ != nullptr)
        delay = fault_->injectSchedDelay();
    if (delay > 0) {
        // The switch-in itself is late (stolen timeslice / softirq
        // storm): the core is reserved but nothing runs yet.
        core.busy = true;
        core.dispatching = true;
        core.slice =
            sim_.schedule(delay, [this, c, prev_tid, prev_runnable] {
                cores_[c].dispatching = false;
                switchIn(c, prev_tid, prev_runnable);
            });
        return;
    }
    switchIn(c, prev_tid, prev_runnable);
}

void
CpuModel::switchIn(unsigned c, std::uint32_t prev_tid, bool prev_runnable)
{
    Core &core = cores_[c];
    if (core.queue.empty()) {
        // Every waiter was cancelled while the switch-in was delayed.
        core.busy = false;
        SchedEvent ev;
        ev.type = SchedEventType::Switch;
        ev.prevTid = prev_tid;
        ev.prevRunnable = prev_runnable;
        emitSched(ev);
        return;
    }
    core.run = std::move(core.queue.front());
    core.queue.pop_front();
    core.busy = true;
    ++dispatches_;
    SchedEvent ev;
    ev.type = SchedEventType::Switch;
    ev.prevTid = prev_tid;
    ev.prevRunnable = prev_runnable;
    ev.tid = core.run.tid;
    ev.pidTgid = core.run.pidTgid;
    emitSched(ev);
    startSlice(c);
}

void
CpuModel::startSlice(unsigned c)
{
    Core &core = cores_[c];
    core.sliceStart = sim_.now();
    // With no task waiting, the whole slices ahead end in silence: one
    // event at the last of them stands for all their boundaries, and
    // that boundary arms the final slice as a ticking core would.
    core.loneSlices =
        core.queue.empty() ? countLoneSlices(core.run.remaining) : 0;
    const sim::Tick delay =
        core.loneSlices > 0
            ? static_cast<sim::Tick>(core.loneSlices) * config_.quantum
            : sliceTicks(core.run.remaining);
    core.slice = sim_.schedule(delay, [this, c] { onSlice(c); });
}

void
CpuModel::onSlice(unsigned c)
{
    Core &core = cores_[c];
    advanceCore(core);
    if (core.run.remaining <= kEpsilon) {
        ++completed_;
        auto cb = std::move(core.run.onDone);
        const std::uint32_t prev = core.run.tid;
        core.busy = false;
        --discreteJobs_;
        // Dispatch the next waiter before the callback runs: callbacks
        // commonly submit new jobs (mirrors the GPS reschedule-first
        // contract).
        dispatch(c, prev, /*prev_runnable=*/false);
        if (cb)
            cb();
        return;
    }
    if (!core.queue.empty()) {
        // Quantum expiry with waiters: preempt, requeue at the tail.
        ++preemptions_;
        Task prev_task = std::move(core.run);
        const std::uint32_t prev = prev_task.tid;
        core.busy = false;
        core.queue.push_back(std::move(prev_task));
        dispatch(c, prev, /*prev_runnable=*/true);
        return;
    }
    // Alone on the core: keep running, no sched event.
    startSlice(c);
}

} // namespace reqobs::kernel
