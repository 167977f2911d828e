/**
 * @file
 * Supervised agent lifecycle: runs the ObservabilityAgent as a
 * restartable unit, riding through agent crashes, sampler stalls and
 * kernel-side map wipes without poisoning the metric stream — the
 * always-on collector regime of eBeeMetrics and "Waiting at the front
 * door" (PAPERS.md), where the observer itself is allowed to fail.
 *
 * Recovery model:
 *  - Kernel-side maps are the pinned-maps analogue: they outlive a
 *    userspace crash. The supervisor images the dying runtime's maps
 *    (EbpfRuntime::snapshotMaps) and restores them into the
 *    replacement's — unless the map-wipe fault says the pin was lost,
 *    in which case the restarted agent sees counters reset to zero and
 *    its discontinuity detection tears down exactly one window.
 *  - Userspace estimator state is checkpointed after every emitted
 *    sample (AgentCheckpoint via AgentConfig::sampleHook), so a crash
 *    loses at most the events that fired while the agent was down. The
 *    restored delta chains are reseeded (lastTs zeroed) so the
 *    outage-spanning gap never enters a window: accumulation continues
 *    unbiased across the restart.
 *  - Restarts run under jittered exponential backoff; a circuit
 *    breaker opens after repeated failed starts (no probe family
 *    attached), so a permanently broken probe environment degrades to
 *    "no observability" instead of a restart storm.
 *  - A watchdog restarts the agent when the sampler stops making
 *    progress (samples, stale ticks and discontinuities all frozen) —
 *    the recovery path for the sampler-stall fault, which leaves the
 *    agent alive but silent.
 */

#ifndef REQOBS_CORE_SUPERVISOR_HH
#define REQOBS_CORE_SUPERVISOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/agent.hh"
#include "fault/fault.hh"

namespace reqobs::core {

/** Restart-policy tunables. */
struct SupervisorConfig
{
    /** First restart delay after a crash, stall or failed start. */
    sim::Tick restartBackoffInitial = sim::milliseconds(10);
    /** Backoff multiplier per consecutive failure. */
    double restartBackoffFactor = 2.0;
    /** Backoff ceiling. */
    sim::Tick restartBackoffMax = sim::seconds(2);
    /** Uniform ± fraction of jitter on every restart delay (0 = none);
     *  desynchronises restart storms across a fleet. */
    double restartJitter = 0.2;
    /** Consecutive failed starts (zero probe families attached) that
     *  open the circuit breaker; 0 disables the breaker. */
    unsigned circuitBreakerThreshold = 5;
    /**
     * Watchdog ticks (one per agent sample period) without sampler
     * progress before the agent is declared stalled. Must exceed the
     * agent's stale-backoff ceiling (maxBackoffFactor periods between
     * legitimate sample ticks).
     */
    unsigned stallTimeoutTicks = 12;
};

/** Lifecycle counters, for reporting and determinism tests. */
struct SupervisorStats
{
    std::uint64_t crashes = 0;        ///< injected agent crashes fired
    std::uint64_t stallsDetected = 0; ///< watchdog-declared sampler stalls
    std::uint64_t restarts = 0;       ///< successful restarts
    std::uint64_t failedStarts = 0;   ///< starts with no probe attached
    std::uint64_t mapWipes = 0;       ///< restarts that lost kernel state
    std::uint64_t checkpoints = 0;    ///< checkpoints saved
    std::uint64_t restores = 0;       ///< checkpoints restored
    bool circuitOpen = false;         ///< breaker tripped; no more retries
    sim::Tick downtime = 0;           ///< total time with no live agent
};

/** See file comment. */
class Supervisor
{
  public:
    /**
     * @param injector Lifecycle + runtime fault source; may be null
     *                 (supervision is then pure pass-through).
     * @param rng      Forked stream for restart jitter only.
     */
    Supervisor(kernel::Kernel &kernel, kernel::Pid tgid,
               const SyscallProfile &profile, const AgentConfig &agent_config,
               const SupervisorConfig &config, fault::FaultInjector *injector,
               sim::Rng rng);
    ~Supervisor();

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Start the first agent incarnation and the watchdog. */
    void start();

    /** Tear everything down (final counters stay queryable). */
    void stop();

    /** Live agent, or nullptr while down / after the breaker opened. */
    ObservabilityAgent *agent() { return agent_.get(); }

    /** Samples collected across all incarnations. */
    const std::vector<MetricsSample> &samples() const { return samples_; }

    const SupervisorStats &stats() const { return stats_; }

    /** Live agent's health, or the last incarnation's final health. */
    AgentHealth health() const;

    /** Times each incarnation was (re)started — start() included. */
    const std::vector<sim::Tick> &startTimes() const { return startTimes_; }

    /**
     * Whole-run cumulative counters, robust to a dead agent: the live
     * agent's, else those of the last map snapshot.
     */
    FamilyCounters counters() const;

    /** @name Runtime counters accumulated across incarnations. @{ */
    std::uint64_t probeEvents() const;
    std::uint64_t probeInsns() const;
    sim::Tick probeCost() const;
    std::uint64_t mapUpdateFails() const;
    std::uint64_t ringbufDrops() const;
    std::uint64_t probeMisses() const;
    /** @} */

  private:
    kernel::Kernel &kernel_;
    kernel::Pid tgid_;
    SyscallProfile profile_;
    AgentConfig agentConfig_;
    SupervisorConfig config_;
    fault::FaultInjector *injector_;
    sim::Rng rng_;

    std::unique_ptr<ObservabilityAgent> agent_;
    bool running_ = false;
    /** Incarnations started so far; above 1 a start is a restart. */
    unsigned epoch_ = 0;

    /** teardownAgent() cancels the first three and stop() the fourth,
     *  so no timer fires for a dead agent or a stopped supervisor. */
    sim::EventId crashTimer_;
    sim::EventId stallTimer_;
    sim::EventId watchdogTimer_;
    sim::EventId restartTimer_;

    SupervisorStats stats_;
    std::vector<MetricsSample> samples_;
    std::vector<sim::Tick> startTimes_;

    AgentCheckpoint checkpoint_;
    bool haveCheckpoint_ = false;
    ebpf::EbpfRuntime::MapSnapshot mapSnap_;
    bool haveMapSnap_ = false;
    AgentHealth lastHealth_;

    sim::Tick backoff_ = 0;
    unsigned consecutiveFailures_ = 0;
    sim::Tick downSince_ = 0;

    /** Dead incarnations' runtime counters. */
    std::uint64_t accumEvents_ = 0;
    std::uint64_t accumInsns_ = 0;
    sim::Tick accumCost_ = 0;
    std::uint64_t accumMapUpdateFails_ = 0;
    std::uint64_t accumRingbufDrops_ = 0;
    std::uint64_t accumProbeMisses_ = 0;

    void spawnAgent();
    void reseedDeltaChains();
    void teardownAgent();
    void scheduleRestart();
    void onCrash();
    void onWatchdogTick();
    void armLifecycleFaults();
    void armWatchdog();
    std::uint64_t samplerProgress() const;
    ebpf::probes::SyscallStats snapStats(const char *map_name) const;

    std::uint64_t lastProgress_ = 0;
    unsigned idleWatchdogTicks_ = 0;
};

} // namespace reqobs::core

#endif // REQOBS_CORE_SUPERVISOR_HH
