/**
 * @file
 * Top-level simulation context: the virtual clock, the event queue and
 * the master random stream.
 *
 * A Simulation is the single object every other component hangs off.
 * Typical use:
 * @code
 *   Simulation sim(42);                       // master seed
 *   sim.schedule(milliseconds(1), [] { ... });
 *   sim.runFor(seconds(10));
 * @endcode
 */

#ifndef REQOBS_SIM_SIMULATION_HH
#define REQOBS_SIM_SIMULATION_HH

#include <cstdint>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace reqobs::sim {

/**
 * Owns virtual time. Not thread-safe: the whole simulation is
 * single-threaded and deterministic by design — simulated "threads" are
 * modelled in kernel::, not with OS threads.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1);

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current virtual time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run @p delay ticks from now. @pre delay >= 0. */
    template <typename Fn>
    EventId
    schedule(Tick delay, Fn &&fn)
    {
        checkDelay(delay);
        return events_.schedule(now_ + delay, std::forward<Fn>(fn));
    }

    /** Schedule @p fn at absolute tick @p when. @pre when >= now(). */
    template <typename Fn>
    EventId
    scheduleAt(Tick when, Fn &&fn)
    {
        checkAt(when);
        return events_.schedule(when, std::forward<Fn>(fn));
    }

    /** Run until the queue drains. */
    void run();

    /**
     * Run until virtual time would exceed @p deadline; events at exactly
     * @p deadline still execute. The clock is left at
     * min(deadline, last event tick).
     */
    void runUntil(Tick deadline);

    /** Convenience: runUntil(now() + duration). */
    void runFor(Tick duration) { runUntil(now_ + duration); }

    /** Execute a single event. @return false if none pending. */
    bool step();

    /**
     * Derive an independent random stream for one component.
     * Streams are a function of the master seed and the call order, so a
     * fixed construction order gives fixed streams.
     */
    Rng forkRng() { return masterRng_.fork(); }

    /** The raw event queue (for components that manage timers directly). */
    EventQueue &events() { return events_; }

    /** Events executed so far. */
    std::uint64_t executedEvents() const { return events_.executedCount(); }

  private:
    EventQueue events_;
    Rng masterRng_;
    Tick now_ = 0;

    /** Out-of-line argument validation (panics live in the .cc). */
    void checkDelay(Tick delay) const;
    void checkAt(Tick when) const;
};

} // namespace reqobs::sim

#endif // REQOBS_SIM_SIMULATION_HH
