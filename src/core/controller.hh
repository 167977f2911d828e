/**
 * @file
 * Closed-loop fleet controller: from in-kernel metrics to actuation.
 *
 * The paper characterizes request-level metrics (Eq. 1 rates, Eq. 2
 * send-variance, epoll-slack) but never acts on them; eBeeMetrics
 * argues these feedback-free QoS signals exist precisely to drive
 * decisions without touching the application. FleetController closes
 * that loop: it consumes the per-tenant estimates the
 * ObservabilityAgent/FleetAggregator pipeline already produces (including
 * the loss-aware reconstructed windows) and drives three actuators —
 *
 *  1. admission control: per-tenant shed probability at the client's
 *     admission gate (client::LoadGenerator::setAdmission) when the
 *     tenant's send-variance ratio crosses the Fig. 3 knee;
 *  2. tenant migration: drain a machine at the per-tenant load
 *     balancers when its epoll-slack collapses, routing new requests to
 *     healthier machines while inflight ones finish;
 *  3. worker-pool scaling: raise/lower a machine's DispatcherWorkers
 *     target (ServerApp::setWorkerTarget).
 *
 * The controller is itself built to degrade gracefully rather than
 * amplify trouble:
 *  - hysteresis bands: every actuator has distinct engage/disengage
 *    thresholds, so a signal hovering at one threshold cannot flap;
 *  - cooldown timers: each actuator class acts at most once per
 *    cooldown per target;
 *  - migration circuit breaker (the Supervisor's breaker pattern):
 *    consecutive drains that fail to restore the machine's slack open
 *    the breaker and stop further migrations — a controller that cannot
 *    help must stop thrashing placement;
 *  - staleness guard: when the newest metric window is older than
 *    staleAfter, the controller freezes all actuation instead of acting
 *    on garbage (counted in ControllerStats::frozenTicks).
 *
 * Decision core vs plumbing: tickWith() is pure — it takes a vector of
 * per-(machine, tenant) inputs and invokes the actuator callbacks; the
 * periodic tick assembles inputs through a caller-supplied provider.
 * Tests drive tickWith() directly with synthetic inputs.
 */

#ifndef REQOBS_CORE_CONTROLLER_HH
#define REQOBS_CORE_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulation.hh"

namespace reqobs::core {

/** Controller tunables; disabled by default so existing experiment
 *  paths are bit-unchanged. */
struct ControllerConfig
{
    bool enabled = false;

    /** Decision period. */
    sim::Tick tickPeriod = sim::milliseconds(200);
    /**
     * Freeze actuation when the newest input window is older than this
     * (sampler wedged, probes detached, machine hung): stale estimates
     * describe a fleet that no longer exists.
     */
    sim::Tick staleAfter = sim::milliseconds(1000);

    /** @name Admission control (per tenant). @{ */
    /** Engage shedding above this send-variance knee ratio... */
    double shedOnVarianceRatio = 8.0;
    /** ...and only disengage below this one (hysteresis band). */
    double shedOffVarianceRatio = 3.0;
    double shedStep = 0.05; ///< probability step per cooldown
    double shedMax = 0.5;   ///< never reject more than this
    sim::Tick shedRetryAfter = sim::milliseconds(20);
    sim::Tick shedCooldown = sim::milliseconds(400);
    /** @} */

    /** @name Migration (per machine). @{ */
    /**
     * Drain when a machine's worst tenant slack collapses below this.
     * The same threshold defines fleet "pressure": a parked machine is
     * reclaimed (undrained) only when the active fleet's min slack falls
     * below it — never because the idle machine itself looks healthy,
     * which it always does.
     */
    double drainSlackBelow = 0.10;
    /**
     * Active-fleet min slack above which a pending drain is judged
     * effective (breaker input). Between the two thresholds the verdict
     * stays open — the hysteresis band keeps borderline readings from
     * tripping or resetting the breaker.
     */
    double undrainSlackAbove = 0.35;
    sim::Tick migrationCooldown = sim::milliseconds(1200);
    /**
     * Circuit breaker: consecutive drains that fail to lift the
     * machine's slack back above drainSlackBelow within a cooldown
     * open the breaker; no further migrations happen after that.
     */
    unsigned breakerThreshold = 5;
    /** @} */

    /** @name Worker-pool scaling (per machine). @{ */
    double scaleUpSlackBelow = 0.15;
    double scaleDownSlackAbove = 0.60;
    unsigned scaleStep = 2;
    unsigned baseWorkers = 16; ///< scale-down floor / initial target
    unsigned maxWorkers = 32;  ///< scale-up ceiling
    sim::Tick scaleCooldown = sim::milliseconds(600);
    /** @} */

    /** @name Front-door accept-budget clamp (per tenant). @{ */
    /**
     * Clamp a tenant's accept budget when its front-door admission-path
     * drop rate (ingress + SYN queue + backlog + budget + shed drops per
     * second) crosses this — a connection storm is collapsing its
     * listener, and unbounded accepting would burn the machine's CPU on
     * handshakes instead of requests.
     */
    double budgetOnDropRate = 50.0;
    /** ...release only below this one (hysteresis band). */
    double budgetOffDropRate = 5.0;
    /**
     * Alternative engage signal: the tenant's in-kernel front-door
     * latency p99 (the eBPF log2-histogram probe) crossing this, ns.
     * 0 disables the latency trigger.
     */
    std::uint64_t budgetOnLatencyNs = 0;
    /** Accept budget (conns/sec) applied while clamped. */
    double budgetClampRps = 200.0;
    sim::Tick budgetCooldown = sim::milliseconds(600);
    /** @} */
};

/** One (machine, tenant) estimate fed to a controller tick. */
struct ControllerInput
{
    std::size_t machine = 0;
    std::size_t tenant = 0;
    /** Newest emitted window's timestamp; < 0 when none exists yet. */
    sim::Tick t = -1;
    double slack = 1.0;         ///< epoll-slack estimate
    double varianceRatio = 0.0; ///< CV² / baseline (Eq. 2 knee signal)
    bool saturated = false;     ///< detector state
    std::uint64_t sendCount = 0; ///< events in the newest window
    bool degraded = false;      ///< pipeline health at emit time

    /** @name Front-door signals (0 unless the machine has one). @{ */
    double frontDoorDropRate = 0.0;  ///< admission-path drops per second
    std::uint64_t frontDoorP99 = 0;  ///< eBPF front-door latency p99, ns
    /** @} */
};

/** Actuator callbacks; any unset member is simply never invoked. */
struct FleetActuators
{
    /** setShed(tenant, probability, retry_after). */
    std::function<void(std::size_t, double, sim::Tick)> setShed;
    /** setDrained(machine, drained) across every tenant's balancer. */
    std::function<void(std::size_t, bool)> setDrained;
    /** setWorkerTarget(machine, workers). */
    std::function<void(std::size_t, unsigned)> setWorkerTarget;
    /** setAcceptBudget(tenant, conns_per_sec); 0 restores unlimited. */
    std::function<void(std::size_t, double)> setAcceptBudget;
};

/** Observable controller behaviour (flap/robustness accounting). */
struct ControllerStats
{
    std::uint64_t ticks = 0;
    std::uint64_t frozenTicks = 0; ///< staleness guard engaged
    std::uint64_t migrations = 0;  ///< machines drained
    std::uint64_t undrains = 0;    ///< machines restored
    std::uint64_t scaleUps = 0;
    std::uint64_t scaleDowns = 0;
    std::uint64_t shedEngagements = 0; ///< 0 -> nonzero transitions
    double maxShed = 0.0;              ///< peak shed probability
    std::uint64_t budgetClamps = 0;    ///< accept budgets imposed
    std::uint64_t budgetRestores = 0;  ///< accept budgets lifted
    bool breakerOpen = false;          ///< migration breaker tripped
    unsigned breakerStreak = 0; ///< consecutive ineffective migrations
};

/** See file comment. */
class FleetController
{
  public:
    /**
     * @param machines/tenants Fleet shape (actuator index spaces).
     * The controller only observes and actuates; it owns no fleet
     * objects and is safe to destroy before them.
     */
    FleetController(sim::Simulation &sim, const ControllerConfig &config,
                    std::size_t machines, std::size_t tenants,
                    FleetActuators actuators);

    ~FleetController();

    FleetController(const FleetController &) = delete;
    FleetController &operator=(const FleetController &) = delete;

    /** Called at each tick to assemble the current inputs. */
    void setInputProvider(std::function<std::vector<ControllerInput>()> fn)
    {
        inputProvider_ = std::move(fn);
    }

    /** Begin periodic decision ticks. */
    void start();

    /** Stop ticking (actuator state is left as-is). */
    void stop();

    /**
     * One pure decision step over @p inputs at time @p now. Public so
     * tests can inject synthetic fleets without running a cluster.
     */
    void tickWith(const std::vector<ControllerInput> &inputs, sim::Tick now);

    const ControllerStats &stats() const { return stats_; }

    /** Current shed probability for tenant @p t. */
    double shedProbability(std::size_t t) const { return shed_[t].prob; }

    /** Whether tenant @p t's accept budget is currently clamped. */
    bool acceptBudgetClamped(std::size_t t) const
    {
        return shed_[t].budgetClamped;
    }

    /** Whether machine @p m is currently drained. */
    bool drained(std::size_t m) const { return machine_[m].drained; }

    /** Current worker target for machine @p m. */
    unsigned workerTarget(std::size_t m) const
    {
        return machine_[m].workerTarget;
    }

  private:
    /** Per-machine actuation state. */
    struct MachineState
    {
        bool drained = false;
        sim::Tick lastMigration = sim::Tick(-1);
        /** Drain pending an effectiveness verdict (breaker input). */
        bool drainUnjudged = false;
        unsigned workerTarget = 0;
        sim::Tick lastScale = sim::Tick(-1);
    };

    /** Per-tenant admission state. */
    struct TenantState
    {
        double prob = 0.0;
        sim::Tick lastChange = sim::Tick(-1);
        /** Front-door accept-budget clamp. */
        bool budgetClamped = false;
        sim::Tick lastBudget = sim::Tick(-1);
    };

    sim::Simulation &sim_;
    ControllerConfig config_;
    FleetActuators actuators_;
    std::function<std::vector<ControllerInput>()> inputProvider_;

    bool running_ = false;
    sim::EventId tickTimer_;
    ControllerStats stats_;
    std::vector<MachineState> machine_;
    std::vector<TenantState> shed_;

    void scheduleTick();
    bool cooledDown(sim::Tick last, sim::Tick cooldown, sim::Tick now) const
    {
        return last < 0 || now - last >= cooldown;
    }
};

} // namespace reqobs::core

#endif // REQOBS_CORE_CONTROLLER_HH
