/**
 * @file
 * Deterministic, seed-driven fault injection for the whole stack.
 *
 * A FaultPlan is a pure description of which faults to inject and how
 * hard; a FaultInjector combines a plan with a forked sim::Rng and makes
 * the actual per-event decisions. One injector is shared by all layers
 * (kernel syscalls, the eBPF runtime, the net pipes and the load
 * generator), so a given (seed, plan) pair always produces the exact
 * same fault sequence — chaos runs are as reproducible as clean ones.
 *
 * Determinism contract: decision methods draw from the injector's own
 * random stream only when the corresponding knob is enabled. With an
 * all-zero plan no stream is ever consumed, and the experiment harness
 * does not even construct an injector, so clean runs stay bit-identical
 * to a build without this subsystem.
 *
 * Injection points (see ISSUE 1 / DESIGN.md §7):
 *  - kernel: EINTR with restart semantics, recv EAGAIN bursts, partial
 *    send/recv (extra back-to-back syscalls), spurious epoll/select
 *    wakeups, clock jitter on tracepoint timestamps.
 *  - eBPF: forced -E2BIG on hash-map updates, forced -ENOSPC ring-buffer
 *    drops, attach-time probe failure.
 *  - net: periodic link flaps, connection resets.
 */

#ifndef REQOBS_FAULT_FAULT_HH
#define REQOBS_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/time.hh"

namespace reqobs::fault {

/** Everything defining one fault scenario. All knobs default to off. */
struct FaultPlan
{
    /** @name Kernel-layer faults. @{ */

    /** P(signal interrupts a blocking-capable syscall) per dispatch. */
    double eintrProbability = 0.0;
    /** Restart cap per logical operation (SA_RESTART semantics). */
    unsigned maxEintrRestarts = 2;

    /** P(a recv with queued data still returns EAGAIN) — burst start. */
    double eagainProbability = 0.0;
    /** Consecutive recv dispatches forced to EAGAIN once a burst starts. */
    unsigned eagainBurstLength = 3;

    /** P(a send/recv completes in multiple partial syscalls). */
    double partialIoProbability = 0.0;
    /** Maximum syscalls one partial operation is split into (>= 2). */
    unsigned maxPartialPieces = 4;

    /** P(a blocking epoll_wait/select wakes with nothing ready). */
    double spuriousWakeupProbability = 0.0;
    /** Delay from block to the injected spurious wake. */
    sim::Tick spuriousWakeupDelay = sim::microseconds(50);

    /** Max |jitter| (ns) added to every tracepoint timestamp. 0 = off. */
    sim::Tick clockJitterNs = 0;
    /** @} */

    /** @name eBPF-layer faults. @{ */

    /** P(a hash-map update from probe context fails with -E2BIG). */
    double mapUpdateFailProbability = 0.0;
    /** P(a ringbuf_output call drops with -ENOSPC). */
    double ringbufDropProbability = 0.0;
    /** P(loadAndAttach of a matching program fails at attach time). */
    double attachFailProbability = 0.0;
    /**
     * Program names attach failure applies to; empty = all programs.
     * (The agent names its probes "send.delta_exit", "recv.delta_exit",
     * "poll.duration_enter", "poll.duration_exit".)
     */
    std::vector<std::string> attachFailPrograms;
    /**
     * P(a tracepoint firing misses an attached program entirely) — the
     * analogue of the kernel's per-program missed-run counters
     * (recursion protection, overloaded CPUs). Unlike map-update and
     * ring-buffer faults this loses events from the otherwise lossless
     * delta probes, so it is the knob that exercises the loss-aware
     * estimator corrections.
     */
    double probeMissProbability = 0.0;
    /** @} */

    /** @name Agent-lifecycle faults (see core/supervisor). @{ */

    /**
     * Mean time between userspace agent crashes (0 = never). Each agent
     * incarnation draws one exponential crash delay with this mean at
     * start; the kernel-side map state survives the crash (the
     * pinned-maps analogue) unless mapWipeOnRestartProbability fires.
     */
    sim::Tick agentCrashMtbf = 0;
    /**
     * Mean time between sampler stalls (0 = never). A stall silently
     * stops the agent's periodic sampling without killing it — only a
     * supervisor watchdog can notice and recover.
     */
    sim::Tick samplerStallMtbf = 0;
    /**
     * P(kernel-side map state is gone when a restarted agent reattaches
     * — the map pin was lost with the crash). The restarted agent sees
     * cumulative counters reset to zero and must detect the
     * discontinuity instead of differencing across it.
     */
    double mapWipeOnRestartProbability = 0.0;
    /** @} */

    /** @name Net-layer faults. @{ */

    /** Link-flap cycle period (0 = no flaps). */
    sim::Tick linkFlapPeriod = 0;
    /** Time the link is down at the start of each period. */
    sim::Tick linkFlapDownTime = 0;
    /** P(a client request is lost to a connection reset). */
    double connResetProbability = 0.0;
    /** @} */

    /** @name Front-door faults (net/frontdoor; inert without one). @{ */

    /**
     * Injected SYN-flood rate (conns/sec) at the machine's front door:
     * anonymous handshakes that traverse the ingress + SYN queues and
     * consume accept-backlog slots but never carry a request. The flood
     * targets listener 0.
     */
    double synFloodRate = 0.0;

    /** P(an admission to the accept backlog is forced to fail). */
    double acceptBacklogOverflowProbability = 0.0;

    /**
     * P(an arriving SYN/handshake segment is dropped at ingress),
     * forcing the client onto its exponential-backoff retransmit timer
     * — the retransmit-storm fault class.
     */
    double retransmitStormProbability = 0.0;
    /** @} */

    /** @name Scheduler faults (discrete dispatch; inert under Gps). @{ */

    /**
     * P(a discrete-dispatch switch-in is delayed) — models a stolen
     * timeslice (softirq storm, throttled cgroup, noisy sibling): the
     * core sits reserved for schedDelayNs before the next task runs, so
     * the victim's run-queue latency inflates without any change in its
     * own demand.
     */
    double schedDelayProbability = 0.0;
    /** Injected switch-in delay when the fault fires. */
    sim::Tick schedDelayNs = sim::microseconds(200);
    /** @} */

    /** True when any knob is enabled (the injector is worth creating). */
    bool any() const;
};

/** Cumulative injected-fault counters, for reporting. */
struct FaultCounts
{
    std::uint64_t eintr = 0;          ///< syscalls interrupted
    std::uint64_t eagain = 0;         ///< recvs forced to EAGAIN
    std::uint64_t partialOps = 0;     ///< operations split into pieces
    std::uint64_t spuriousWakeups = 0;
    std::uint64_t mapUpdateFails = 0; ///< forced -E2BIG
    std::uint64_t ringbufDrops = 0;   ///< forced -ENOSPC
    std::uint64_t attachFails = 0;
    std::uint64_t probeMisses = 0;    ///< tracepoint firings lost entirely
    std::uint64_t linkFlapHolds = 0;  ///< segments delayed by a down link
    std::uint64_t connResets = 0;
    std::uint64_t agentCrashes = 0;   ///< userspace agent crashes fired
    std::uint64_t samplerStalls = 0;  ///< sampler stalls fired
    std::uint64_t mapWipes = 0;       ///< reattaches that lost map state
    std::uint64_t synFloodConns = 0;  ///< injected flood handshakes
    std::uint64_t backlogOverflows = 0; ///< forced accept-backlog failures
    std::uint64_t retransmitDrops = 0;  ///< forced ingress segment drops
    std::uint64_t schedDelays = 0;      ///< delayed discrete switch-ins
};

/** Per-event fault decisions; see file comment. */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, sim::Rng rng);

    const FaultPlan &plan() const { return plan_; }
    const FaultCounts &counts() const { return counts_; }

    /** @name Kernel-layer decisions. @{ */

    /** Interrupt this dispatch? @p restarts is the op's restarts so far. */
    bool injectEintr(unsigned restarts);

    /** Force EAGAIN on this recv despite queued data? */
    bool injectEagain();

    /** Pieces to split this operation into (1 = intact). */
    unsigned partialPieces(std::uint64_t bytes);

    /** Spuriously wake this blocking poll? */
    bool injectSpuriousWakeup();
    sim::Tick spuriousWakeupDelay() const
    {
        return plan_.spuriousWakeupDelay;
    }

    /** Signed timestamp jitter (ns) for one tracepoint event. */
    std::int64_t clockJitter();
    /** @} */

    /** @name eBPF-layer decisions. @{ */
    bool injectMapUpdateFail();
    bool injectRingbufDrop();
    bool injectAttachFail(const std::string &program_name);
    bool injectProbeMiss();
    /** @} */

    /** @name Agent-lifecycle decisions (see core/supervisor). @{ */

    /**
     * Exponential delay until this agent incarnation crashes (0 =
     * never). Drawn once per incarnation, at start; the crash is only
     * counted when it actually fires (noteAgentCrash), since a
     * scheduled crash is cancelled if the run ends first.
     */
    sim::Tick nextAgentCrashDelay();
    /** Exponential delay until this incarnation's sampler stalls. */
    sim::Tick nextSamplerStallDelay();
    /** Record that a scheduled crash actually fired. */
    void noteAgentCrash() { ++counts_.agentCrashes; }
    /** Record that a scheduled sampler stall actually fired. */
    void noteSamplerStall() { ++counts_.samplerStalls; }
    /** Is the kernel-side map state gone for this reattach? */
    bool injectMapWipe();
    /** @} */

    /** @name Net-layer decisions. @{ */

    /**
     * Remaining link downtime at @p now (0 when the link is up). The
     * flap schedule is periodic and purely time-driven: the link is down
     * during [k*period, k*period + downTime) for every k >= 1, so it
     * consumes no randomness and never perturbs other fault streams.
     */
    sim::Tick linkDownRemaining(sim::Tick now);

    /** Reset the connection carrying this request? */
    bool injectConnReset();
    /** @} */

    /** @name Front-door decisions (see net/frontdoor). @{ */

    /**
     * Exponential inter-arrival delay to the next injected flood SYN
     * (0 = flood disabled). The FrontDoor schedules the flood source
     * from these draws, so the flood consumes the injector's stream
     * only when the knob is on.
     */
    sim::Tick nextSynFloodDelay();
    /** Record that an injected flood handshake actually entered. */
    void noteSynFloodConn() { ++counts_.synFloodConns; }

    /** Force this accept-backlog admission to fail? */
    bool injectBacklogOverflow();

    /** Drop this arriving handshake segment at ingress? */
    bool injectRetransmitDrop();
    /** @} */

    /** @name Scheduler decisions (see kernel/cpu, discrete mode). @{ */

    /** Extra delay before this switch-in (0 = none this time). */
    sim::Tick injectSchedDelay();
    /** @} */

  private:
    /** Draws only when p > 0; an off knob never consumes the stream. */
    bool bernoulli(double p);

    FaultPlan plan_;
    sim::Rng rng_;
    FaultCounts counts_;
    unsigned eagainBurstLeft_ = 0;
};

} // namespace reqobs::fault

#endif // REQOBS_FAULT_FAULT_HH
