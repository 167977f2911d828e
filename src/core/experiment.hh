/**
 * @file
 * End-to-end experiment harness: build the full stack (simulated server,
 * impaired loopback, open-loop clients, observability agent), run one
 * load point, and report both the ground-truth client metrics and the
 * eBPF-observed metrics. The bench binaries that regenerate the paper's
 * figures and tables are thin loops over this harness.
 */

#ifndef REQOBS_CORE_EXPERIMENT_HH
#define REQOBS_CORE_EXPERIMENT_HH

#include <cstdint>
#include <vector>

#include "client/storm_generator.hh"
#include "core/agent.hh"
#include "core/supervisor.hh"
#include "fault/fault.hh"
#include "kernel/system_spec.hh"
#include "net/frontdoor.hh"
#include "net/netem.hh"
#include "net/tcp.hh"
#include "workload/config.hh"

namespace reqobs::core {

/**
 * Optional host-network front door for the tenant, plus an optional
 * connection storm against it. Disabled (the default) constructs
 * nothing and forks no RNG stream, so existing runs stay bit-identical.
 */
struct FrontDoorOptions
{
    bool enabled = false;
    net::FrontDoorConfig door;      ///< per-machine ingress path
    net::ListenerConfig listener;   ///< tenant listener template
    /** Listener (and acceptor-thread) count; each storm conn costs one
     *  acceptor's CPU, so this bounds the storm's CPU footprint. */
    unsigned listeners = 1;
    bool stormEnabled = false;      ///< drive StormGenerators at them
    client::StormConfig storm;      ///< .connRps is the TOTAL rate,
                                    ///  split across the listeners
};

/** Everything defining one experiment run. */
struct ExperimentConfig
{
    workload::WorkloadConfig workload;
    kernel::SystemSpec system = kernel::amdEpyc7302();
    net::NetemConfig netem;   ///< loopback impairment (Table II / Fig. 5)
    net::TcpConfig tcp;

    double offeredRps = 0.0;       ///< open-loop arrival rate (required)
    std::uint64_t requests = 20000;
    sim::Tick warmup = sim::milliseconds(200);
    /** p99 threshold; 0 derives a per-workload default. */
    sim::Tick qosLatency = 0;
    std::uint64_t seed = 1;

    bool attachAgent = true; ///< false = probe-free baseline runs
    AgentConfig agent;

    /**
     * Run the agent under a Supervisor even without lifecycle faults.
     * Default off: unsupervised clean runs keep the exact historical
     * construction order. Any agent-lifecycle fault knob (crash MTBF,
     * stall MTBF, map wipe) forces supervision regardless.
     */
    bool supervised = false;
    SupervisorConfig supervisor;

    /**
     * Fault-injection plan. All-zero (the default) means no injector is
     * even constructed: the run is bit-identical to a pre-fault-framework
     * build. Any active knob creates a FaultInjector on its own forked
     * RNG stream and switches the agent into its hardened configuration
     * (tolerant attach, guarded probes, stale backoff, loss-aware
     * estimators) — unless autoHarden is cleared for ablation runs, in
     * which case config.agent's own knobs are used as-is.
     */
    fault::FaultPlan fault;
    bool autoHarden = true;

    /** Host-network front door + storm (off by default; see above). */
    FrontDoorOptions frontDoor;
};

/**
 * Ground truth + observed metrics for one run.
 *
 * GROWTH DISCIPLINE: this struct is append-only. Bench binaries emit
 * its fields as positional table columns and stable-named JSON rows
 * that downstream tooling diffs byte-for-byte across revisions, so
 * existing fields must never be reordered, renamed, or removed — new
 * fields go at the end of their section (or the struct). The layout
 * test in tests/experiment_test.cc pins the declaration order.
 */
struct ExperimentResult
{
    double offeredRps = 0.0;
    double achievedRps = 0.0;  ///< RPS_Real (client-side completions)
    double observedRps = 0.0;  ///< RPS_Obsv (Eq. 1, in-kernel counters)

    std::uint64_t completed = 0;
    std::uint64_t p50Ns = 0;
    std::uint64_t p95Ns = 0;
    std::uint64_t p99Ns = 0;
    bool qosViolated = false;

    double sendVarNs2 = 0.0;      ///< Eq. 2 over the whole run
    double recvVarNs2 = 0.0;
    double pollMeanDurNs = 0.0;   ///< epoll/select mean duration

    std::uint64_t syscalls = 0;       ///< total kernel syscalls dispatched
    std::uint64_t probeEvents = 0;    ///< tracepoint firings seen by eBPF
    std::uint64_t probeInsns = 0;     ///< interpreted eBPF instructions
    std::int64_t probeCostNs = 0;     ///< simulated probe overhead charged

    /** Windowed samples from the agent (empty when attachAgent=false). */
    std::vector<MetricsSample> samples;

    /** @name Fault-injection outcome (zero when no plan was active). @{ */
    fault::FaultCounts faultCounts;     ///< injector-side event counts
    AgentHealth agentHealth;            ///< agent self-diagnostics at end
    std::uint64_t probeMapUpdateFails = 0; ///< failed map updates (eBPF)
    std::uint64_t probeRingbufDrops = 0;   ///< dropped ringbuf records
    SupervisorStats supervisorStats;       ///< lifecycle outcome (zero
                                           ///  when unsupervised)
    /** @} */

    /** @name Front-door outcome (zero when frontDoor.enabled=false). @{ */
    net::FrontDoorCounts frontDoorCounts;  ///< summed over listeners
    std::uint64_t frontDoorAcceptP50Ns = 0; ///< SYN -> accept latency
    std::uint64_t frontDoorAcceptP99Ns = 0;
    std::uint64_t stormEstablished = 0;    ///< storm conns accepted
    std::uint64_t stormFailed = 0;         ///< storm conns given up on
    std::uint64_t stormConnP99Ns = 0;      ///< SYN -> response, client side
    /** @} */
};

/** Per-workload default p99 QoS threshold. */
sim::Tick defaultQosLatency(const workload::WorkloadConfig &workload,
                            const net::NetemConfig &netem);

/** Run one experiment; fully deterministic for a given config. */
ExperimentResult runExperiment(const ExperimentConfig &config);

/** One point of a load sweep. */
struct SweepPoint
{
    double loadFraction = 0.0; ///< offered / saturation RPS
    ExperimentResult result;
};

/**
 * How a sweep derives each load point's config from the base config.
 * Two call sites historically duplicated this logic with different
 * constants: the harness default (long windows, below) and the bench
 * profile (shorter windows, bench::benchScaling()). Both now feed
 * sweepPointConfig().
 */
struct SweepScaling
{
    /** requests = clamp(offeredRps * requestsPerRps, min, max). */
    double requestsPerRps = 8.0;
    std::uint64_t minRequests = 4000;
    std::uint64_t maxRequests = 80000;

    /** Cap warmup at 20% of the offered-load window. */
    bool scaleWarmup = false;
    /** Cap the agent sample period at 10% of the window. */
    bool scaleSampling = false;
    /** Give each load level its own seed (seed += frac * 1000). */
    bool perLevelSeedOffset = false;
};

/** Derive the config for one sweep point at @p load_fraction. */
ExperimentConfig sweepPointConfig(const ExperimentConfig &base,
                                  double load_fraction,
                                  const SweepScaling &scaling = {});

/**
 * Run many independent experiments, one per config, on a pool of
 * worker threads. Results come back in input order, and each run is
 * bit-identical to a serial runExperiment() call: every experiment owns
 * its entire simulation, so parallelism changes wall time only.
 *
 * @param threads Worker count; 0 = the REQOBS_JOBS env var (canonical;
 *        REQOBS_THREADS is accepted as a legacy alias) if set, else
 *        hardware concurrency. Clamped to [1, configs.size()];
 *        1 runs serially on the calling thread, and so does a call
 *        made from inside a job of another parallel batch.
 */
std::vector<ExperimentResult>
runExperimentsParallel(const std::vector<ExperimentConfig> &configs,
                       unsigned threads = 0);

/**
 * Worker count requested via the environment: REQOBS_JOBS (canonical),
 * falling back to the legacy REQOBS_THREADS. Returns 0 when neither is
 * set or the value is not a plain unsigned integer (rejected with a
 * one-line stderr warning); values above a sane ceiling clamp.
 * Exposed for tests.
 */
unsigned parallelJobsFromEnv();

/**
 * The worker count runExperimentsParallel(threads=0) would actually use
 * for @p jobs independent runs: REQOBS_JOBS env override, else hardware
 * concurrency (with a serial fallback when the runtime reports 0
 * cores), clamped to [1, jobs]. Exposed so benches can record the
 * effective parallelism next to their timings instead of guessing.
 */
unsigned effectiveParallelJobs(std::size_t jobs);

/**
 * Parallel load sweep: one experiment per fraction, results in input
 * order. Equivalent to (and checked against) mapping runExperiment over
 * sweepPointConfig serially.
 */
std::vector<SweepPoint>
runSweepParallel(const ExperimentConfig &base,
                 const std::vector<double> &load_fractions,
                 const SweepScaling &scaling = {}, unsigned threads = 0);

/**
 * Sweep offered load across @p load_fractions of the workload's
 * saturation RPS, reusing @p base for every other knob. Request counts
 * scale with the rate so each point sees enough syscalls.
 * Serial wrapper kept for compatibility; runs through runSweepParallel
 * with a single thread.
 */
std::vector<SweepPoint> runLoadSweep(const ExperimentConfig &base,
                                     const std::vector<double> &load_fractions);

} // namespace reqobs::core

#endif // REQOBS_CORE_EXPERIMENT_HH
