/**
 * @file
 * The observability agent: the paper's end-to-end pipeline.
 *
 * On start() the agent creates the eBPF maps, authors the probe bytecode
 * (delta probes for the send and recv families, a Listing-1 duration
 * probe pair for the poll syscall), verifies and attaches them to the
 * kernel's raw_syscalls tracepoints, then samples the in-kernel
 * cumulative counters on a fixed period. Each sample with enough new
 * syscalls becomes a MetricsSample feeding the Eq. 1 / Eq. 2 / slack
 * estimators — no userspace cooperation from the observed application
 * anywhere in the path.
 *
 * The agent samples N tenant slots, each through its own TenantMetrics:
 * window-start snapshots, the loss-aware reconstruction and the
 * estimator chain. Built for one application it attaches the paper's
 * Listing-1 programs; built from TenantBindings it attaches the
 * tenant-scoped set, one program per family serving every co-located
 * tenant, one stats slot each (DESIGN.md §10).
 */

#ifndef REQOBS_CORE_AGENT_HH
#define REQOBS_CORE_AGENT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/estimators.hh"
#include "core/profile.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"

namespace reqobs::core {

struct MetricsSample;

/** Agent tunables. */
struct AgentConfig
{
    /** Counter-sampling period. */
    sim::Tick samplePeriod = sim::milliseconds(100);
    /**
     * Minimum new send-family syscalls before a sample is emitted; below
     * this the window keeps accumulating (the paper finds Eq. 1 needs
     * >= ~2048 syscalls for stable estimates; low-rate workloads use the
     * accumulate-until-enough behaviour this implements).
     */
    std::uint64_t minWindowSyscalls = 256;
    SaturationConfig saturation;
    SlackConfig slack;
    ebpf::RuntimeConfig runtime;
    /**
     * Degradation-hardening knobs. All default off: the hardened paths
     * cost extra probe instructions / change scheduling, so clean runs
     * keep the exact pre-hardening behaviour. runExperiment() switches
     * them on automatically when a FaultPlan is active.
     * @{
     */
    /** Survive probe-attach failures in partial-operation mode. */
    bool tolerateAttachFailures = false;
    /** Emit guarded probe bytecode (ret<0 / inverted-timestamp skips). */
    bool guardedProbes = false;
    /** Double the sampling period while windows stay stale. */
    bool staleBackoff = false;
    /** Backoff ceiling as a multiple of samplePeriod. */
    unsigned maxBackoffFactor = 8;
    /**
     * De-bias each window for events the kernel counted as lost (missed
     * probe runs, failed map updates, ring-buffer drops) before feeding
     * the estimators — see correctForLoss(). Clean runs lose nothing,
     * so the correction is exactly inert there.
     */
    bool lossAware = false;
    /** @} */

    /**
     * @name Heavy-hitter sketch (tenant-scoped form only).
     *
     * Attach an extra in-kernel probe that counts send-family events
     * per tenant slot in an eHashPipe-style hash pipe, so a controller
     * finds the noisiest tenants via SketchMap::topK() without reading
     * every stats slot. Off by default: the extra probe costs per-event
     * time, so existing runs are unchanged. The Listing-1 form ignores
     * it and attaches its four programs only (tests/scale_test.cc pins
     * the count).
     * @{
     */
    bool heavyHitterSketch = false;
    std::uint32_t sketchStages = 4; ///< hash-pipe depth
    std::uint32_t sketchWidth = 8;  ///< slots per stage
    /** @} */

    /**
     * Run-queue latency histogram (tenant-scoped form only; the
     * Listing-1 form ignores it). Attaches the runqlat probe pair to
     * the sched tracepoints and stamps a per-tenant run-queue wait p99
     * onto every sample — the fourth metric family next to Eq. 1,
     * Eq. 2 and epoll slack. Only meaningful under
     * SchedModel::Discrete: the GPS fluid model never fires sched
     * tracepoints, so the histogram stays empty. Off by default
     * (attached probes change event costs).
     */
    bool runqlatHistogram = false;

    /**
     * Called after every emitted sample — the supervisor's checkpoint
     * hook. Unset (the default) means no call and no overhead.
     */
    std::function<void(const MetricsSample &)> sampleHook;
};

/**
 * Agent self-diagnostics, stamped on every MetricsSample and queryable
 * live. Lets consumers of a degraded sample stream distinguish "the
 * application is quiet" from "the observability pipeline is sick".
 */
struct AgentHealth
{
    bool sendAttached = false; ///< send delta probe live
    bool recvAttached = false; ///< recv delta probe live
    bool pollAttached = false; ///< both halves of the duration pair live
    /** Configured optional probes (sketch, runqlat) that failed to attach. */
    unsigned optionalAttachFails = 0;
    std::uint64_t mapUpdateFails = 0; ///< cumulative failed map updates
    std::uint64_t ringbufDrops = 0;   ///< cumulative ring-buffer drops
    std::uint64_t probeMisses = 0;    ///< cumulative missed probe runs
    std::uint64_t staleWindows = 0;   ///< sample ticks below the window min
    std::uint64_t discontinuities = 0; ///< torn windows dropped (counter
                                       ///  resets, restart-spanning windows)
    std::uint64_t lossCorrectedEvents = 0; ///< events re-added by the
                                           ///  loss-aware correction
    unsigned backoffFactor = 1;       ///< current sampling-period multiplier

    /** Any probe family missing or any in-kernel data loss observed. */
    bool degraded() const
    {
        return !sendAttached || !recvAttached || !pollAttached ||
               optionalAttachFails > 0 || mapUpdateFails > 0 ||
               ringbufDrops > 0 || probeMisses > 0 || discontinuities > 0;
    }
};

/** One emitted metrics window. */
struct MetricsSample
{
    sim::Tick t = 0;            ///< sample timestamp
    DeltaWindow send;           ///< inter-send deltas
    DeltaWindow recv;           ///< inter-recv deltas
    double rpsObsv = 0.0;       ///< Eq. 1 on the send window
    std::uint64_t pollCount = 0;
    double pollMeanDurNs = 0.0; ///< mean poll-syscall duration
    bool saturated = false;     ///< detector state after this window
    double slack = 0.0;         ///< slack estimate after this window
    AgentHealth health;         ///< pipeline self-diagnostics at emit time
    /** @name Run-queue latency window (runqlat family). Zeros unless
     *  AgentConfig::runqlatHistogram under SchedModel::Discrete. @{ */
    std::uint64_t runqCount = 0; ///< switch-ins bucketed this window
    double runqP99Ns = 0.0;      ///< window run-queue wait p99 (ns)
    /** @} */
};

/** One tenant's cumulative in-kernel counters, one entry per family. */
struct FamilyCounters
{
    ebpf::probes::SyscallStats send{};
    ebpf::probes::SyscallStats recv{};
    ebpf::probes::SyscallStats poll{};
};

/**
 * Userspace agent state worth surviving a crash: the window-start
 * counter snapshots plus the estimator accumulators plus the cumulative
 * health counters. Together with the runtime's kernel-side map snapshot
 * (EbpfRuntime::snapshotMaps) this is everything a replacement agent
 * needs to continue the metric stream where the dead one left off.
 */
struct AgentCheckpoint
{
    FamilyCounters windowStart;
    RpsEstimator rps;
    SaturationDetector saturation;
    SlackEstimator slack;
    AgentHealth health; ///< cumulative counters at checkpoint time
};

/**
 * One tenant's window stage; see file comment. A window runs from the
 * last emitted sample (or reseed) to the sample tick that closes it.
 */
class TenantMetrics
{
  public:
    explicit TenantMetrics(const AgentConfig &config = {});

    /**
     * Events recorded since the window started on the first attached
     * family of @p health (send preferred: it is Eq. 1's signal).
     */
    std::uint64_t fresh(const FamilyCounters &now,
                        const AgentHealth &health) const;

    /**
     * Close the window at counters @p now and start the next one there.
     * Stamps @p runtime's loss counters on @p health; with
     * AgentConfig::lossAware, de-biases the window for the events its
     * programs lost meanwhile (@p share prorates in-program losses; see
     * lostEvents) and adds them to health.lossCorrectedEvents. Then
     * feeds the estimators and returns the emitted sample, carrying
     * @p health and the run-queue latency pair (zeros when that family
     * is off) verbatim.
     */
    MetricsSample observe(sim::Tick t, const FamilyCounters &now,
                          const ebpf::EbpfRuntime &runtime, double share,
                          AgentHealth &health, std::uint64_t runq_count = 0,
                          double runq_p99_ns = 0.0);

    /** Drop the accumulating window: the next one starts at @p now. */
    void reseed(const FamilyCounters &now, const ebpf::EbpfRuntime &runtime,
                const AgentHealth &health);

    const FamilyCounters &windowStart() const { return start_; }
    const std::vector<MetricsSample> &samples() const { return samples_; }
    const RpsEstimator &rps() const { return rps_; }
    const SaturationDetector &saturation() const { return saturation_; }
    const SlackEstimator &slackEstimator() const { return slack_; }

    /** Window start and estimators, plus @p health. */
    AgentCheckpoint checkpoint(const AgentHealth &health) const;

    /**
     * Resume from @p ckpt on a fresh @p runtime, whose loss counters
     * restart at zero: the checkpointed loss totals become base offsets
     * of every later stamp, and @p health is stamped now.
     */
    void restore(const AgentCheckpoint &ckpt,
                 const ebpf::EbpfRuntime &runtime, AgentHealth &health);

  private:
    /** Loss counters of the send, recv, poll-enter and poll-exit
     *  programs, in that order. */
    using LossSnaps = std::array<LossSnap, 4>;
    static LossSnaps familySnap(const ebpf::EbpfRuntime &runtime,
                                const AgentHealth &health);
    void stampLoss(const ebpf::EbpfRuntime &runtime,
                   AgentHealth &health) const;

    bool lossAware_;
    FamilyCounters start_;
    LossSnaps lossStart_{};
    /** Loss totals of earlier incarnations (restore()). */
    AgentHealth carried_;
    RpsEstimator rps_;
    SaturationDetector saturation_;
    SlackEstimator slack_;
    std::vector<MetricsSample> samples_;
};

/** Probe bindings for one tenant on a machine. */
struct TenantBinding
{
    std::string name;       ///< workload name (labels/results)
    kernel::Pid tgid = 0;   ///< the tenant process the probes filter on
    SyscallProfile profile; ///< its syscall vocabulary
};

/** See file comment. */
class ObservabilityAgent
{
  public:
    /**
     * Listing-1 form: one slot, the paper's probes.
     * @param tgid    The observed application's process id.
     * @param profile Which syscalls carry its request signal.
     */
    ObservabilityAgent(kernel::Kernel &kernel, kernel::Pid tgid,
                       const SyscallProfile &profile,
                       const AgentConfig &config = {});

    /**
     * Tenant-scoped form: one probe set for every tenant on the
     * machine; slot i of every map belongs to @p tenants [i].
     */
    ObservabilityAgent(kernel::Kernel &kernel,
                       std::vector<TenantBinding> tenants,
                       const AgentConfig &config = {});

    ~ObservabilityAgent();

    ObservabilityAgent(const ObservabilityAgent &) = delete;
    ObservabilityAgent &operator=(const ObservabilityAgent &) = delete;

    /** Load + attach the probes and begin periodic sampling. */
    void start();

    /** Detach probes and stop sampling. */
    void stop();

    bool running() const { return running_; }

    /** Slot @p i's window stage: its samples and live estimates. */
    const TenantMetrics &tenant(std::size_t i = 0) const
    {
        return metrics_[i];
    }

    /** @name Slot 0's live estimates and emitted samples. @{ */
    const RpsEstimator &rps() const { return tenant().rps(); }
    const SaturationDetector &saturation() const
    {
        return tenant().saturation();
    }
    const SlackEstimator &slackEstimator() const
    {
        return tenant().slackEstimator();
    }
    const std::vector<MetricsSample> &samples() const
    {
        return tenant().samples();
    }
    /** @} */

    /** Live pipeline self-diagnostics (machine-wide). */
    const AgentHealth &health() const { return health_; }

    /** @name Whole-run aggregates from slot @p i's cumulative counters. @{ */
    /** The three families' cumulative counters as the maps hold them. */
    FamilyCounters counters(std::size_t i = 0) const;
    double overallObservedRps(std::size_t i = 0) const;
    std::uint64_t sendSyscalls(std::size_t i = 0) const;
    /** Whole-run run-queue wait p99 (0 without runqlatHistogram). */
    double overallRunqP99Ns(std::size_t i = 0) const;
    /** @} */

    /**
     * Noisiest tenants by in-kernel send-event count, read from the
     * heavy-hitter sketch: (tenant slot, approximate count) sorted
     * descending. Empty unless AgentConfig::heavyHitterSketch.
     */
    std::vector<std::pair<std::uint32_t, std::uint64_t>>
    topTenants(std::size_t k) const;

    ebpf::EbpfRuntime &runtime() { return *runtime_; }

    /** @name Crash-recovery support for slot 0 (see core/supervisor). @{ */

    /** Snapshot the userspace state (estimators + counter snapshots). */
    AgentCheckpoint checkpoint() const;

    /**
     * Adopt a checkpoint into a freshly start()ed agent. The new
     * incarnation's attach health is kept; estimator state and the
     * cumulative counters resume from the checkpoint (this runtime's
     * own loss counters restart at zero, so the checkpointed totals
     * become base offsets).
     */
    void restore(const AgentCheckpoint &ckpt);

    /**
     * Drop the currently-accumulating window at the next sample tick:
     * a window spanning an outage mixes pre-crash and post-restart
     * event streams (including the one outage-wide delta) and must be
     * torn down, not emitted.
     */
    void markWindowTorn() { tearNextWindow_ = true; }

    /**
     * Fault hook: silently stop the periodic sampler while the agent
     * still reports running() — a hung collector thread. Only an
     * external watchdog can notice and recover.
     */
    void stallSampler() { sampleTimer_.cancel(); }
    /** @} */

  private:
    ObservabilityAgent(kernel::Kernel &kernel,
                       std::vector<TenantBinding> tenants, bool scoped,
                       const AgentConfig &config);

    kernel::Kernel &kernel_;
    std::vector<TenantBinding> tenants_;
    bool scoped_; ///< tenant-scoped probes (else Listing-1)
    AgentConfig config_;
    std::unique_ptr<ebpf::EbpfRuntime> runtime_;

    ebpf::probes::DeltaMaps sendMaps_;
    ebpf::probes::DeltaMaps recvMaps_;
    ebpf::probes::DurationMaps pollMaps_;
    int sketchFd_ = -1; ///< heavy-hitter sketch (when enabled)
    ebpf::probes::RunqlatMaps runqMaps_; ///< runqlat pair (when enabled)

    bool running_ = false;
    sim::EventId sampleTimer_;
    AgentHealth health_;
    unsigned backoff_ = 1; ///< current samplePeriod multiplier

    bool tearNextWindow_ = false;
    std::vector<TenantMetrics> metrics_;

    /**
     * @name Per-tick scratch: the sampler allocates nothing.
     * now_ is sized at construction, the run-queue pair in start() with
     * its maps. Sizing now_ in start() read ≈ 7% slower on colo-antag,
     * a heap-layout effect (EXPERIMENTS.md, "One agent").
     * @{
     */
    std::vector<FamilyCounters> now_;
    /** Run-queue histograms at window start, kRunqlatBuckets per slot. */
    std::vector<std::uint64_t> runqSnap_;
    std::vector<std::uint64_t> runqWindow_;
    /** @} */

    ebpf::probes::SyscallStats readStats(int fd, std::size_t slot) const;
    std::uint64_t closeRunqWindow(std::size_t slot);
    void scheduleSample();
    void takeSample();
};

} // namespace reqobs::core

#endif // REQOBS_CORE_AGENT_HH
