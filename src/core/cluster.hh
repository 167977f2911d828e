/**
 * @file
 * Cluster experiment harness: N machines × T co-located tenants, one
 * load-balanced client population per tenant, one tenant-scoped
 * ObservabilityAgent per machine, fleet-level aggregation on top.
 *
 * runExperiment() is the degenerate case of this harness: one machine,
 * one tenant, no antagonist. runClusterExperiment() detects that case
 * and delegates to runExperiment() outright, so the single-machine path
 * (and every figure bench built on it) is bit-identical to the
 * pre-cluster harness by construction.
 */

#ifndef REQOBS_CORE_CLUSTER_HH
#define REQOBS_CORE_CLUSTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.hh"
#include "core/experiment.hh"
#include "core/fleet.hh"
#include "net/load_balancer.hh"
#include "workload/machine.hh"

namespace reqobs::core {

/**
 * One step of a tenant's offered-load schedule: at tick @p at (absolute
 * sim time) the tenant's arrival rate becomes offeredRps * factor.
 * Diurnal curves and flash crowds are both a handful of phases.
 */
struct LoadPhase
{
    sim::Tick at = 0;
    double factor = 1.0;
};

/** One tenant of the cluster (co-located on every machine). */
struct ClusterTenantSpec
{
    workload::WorkloadConfig workload;
    /** Aggregate open-loop arrival rate across the whole fleet. */
    double offeredRps = 0.0;
    /** Arrival budget for this tenant's client population. */
    std::uint64_t requests = 20000;
    /** Offered-load schedule; empty = constant offeredRps. */
    std::vector<LoadPhase> loadProfile;
};

/** Everything defining one cluster run. */
struct ClusterExperimentConfig
{
    std::vector<ClusterTenantSpec> tenants;
    unsigned machines = 1;
    /**
     * Optional per-machine CPU speed factors (size == machines). A
     * heterogeneous fleet is where least-connections beats round-robin;
     * empty = homogeneous.
     */
    std::vector<double> machineSpeedFactors;

    kernel::SystemSpec system = kernel::amdEpyc7302();
    /**
     * @name CPU scheduling model (see kernel/cpu.hh).
     *
     * Gps (default) keeps every existing run bit-identical. Discrete
     * enables the sched tracepoints on every machine, so agents can
     * attach the runqlat probe pair (AgentConfig::runqlatHistogram).
     * schedQuantum 0 keeps the CpuConfig default timeslice.
     * @{
     */
    kernel::SchedModel sched = kernel::SchedModel::Gps;
    sim::Tick schedQuantum = 0;
    /** @} */
    net::NetemConfig netem;
    net::TcpConfig tcp;
    net::LbPolicy lbPolicy = net::LbPolicy::RoundRobin;

    sim::Tick warmup = sim::milliseconds(200);
    /** p99 threshold; 0 derives each tenant's per-workload default. */
    sim::Tick qosLatency = 0;
    std::uint64_t seed = 1;

    bool attachAgents = true;
    AgentConfig agent;

    /**
     * Closed-loop fleet controller (see core/controller). Disabled by
     * default: with controller.enabled == false nothing is constructed
     * or scheduled, so existing runs are bit-identical. Enabling it
     * requires attachAgents (the controller feeds on agent estimates).
     */
    ControllerConfig controller;

    /** Co-locate a best-effort CPU antagonist on every machine. */
    bool antagonist = false;
    workload::AntagonistConfig antagonistConfig;
};

/** One tenant's outcome on one machine. */
struct TenantMachineResult
{
    double observedRps = 0.0;  ///< Eq. 1 from this machine's tenant slot
    double achievedRps = 0.0;  ///< client completions landed here
    std::uint64_t completed = 0;
    double sendVarNs2 = 0.0;
    double pollMeanDurNs = 0.0;
    /** Send-family events the verified bytecode attributed to the slot. */
    std::uint64_t probeSendSyscalls = 0;
    /** The kernel's own per-tgid dispatch count (attribution cross-check). */
    std::uint64_t kernelSyscalls = 0;
    std::uint64_t samples = 0; ///< emitted metric windows
    /** Whole-run run-queue wait p99 (0 without runqlatHistogram). */
    double runqP99Ns = 0.0;
};

/** One tenant's fleet-wide outcome. */
struct ClusterTenantResult
{
    std::string name;
    double offeredRps = 0.0;
    double achievedRps = 0.0; ///< client-side fleet truth
    double observedRps = 0.0; ///< Σ per-machine Eq. 1 estimates
    std::uint64_t completed = 0;
    std::uint64_t p50Ns = 0;
    std::uint64_t p95Ns = 0;
    std::uint64_t p99Ns = 0;
    bool qosViolated = false;
    /**
     * @name Admission-control outcome.
     *
     * arrivals is set on every non-degenerate run (zero on the
     * degenerate runExperiment() path); shedded and shedDropped stay
     * zero without a controller.
     * @{
     */
    std::uint64_t arrivals = 0;    ///< logical requests generated
    std::uint64_t shedded = 0;     ///< admission rejections (incl. retries)
    std::uint64_t shedDropped = 0; ///< requests abandoned after max retries
    /** @} */
    std::vector<TenantMachineResult> machines;
    /** Per-machine sample streams merged on agent-period buckets. */
    std::vector<FleetSample> fleetSeries;
    /** Max per-machine whole-run runq p99 (0 without runqlatHistogram). */
    double runqP99Ns = 0.0;
};

/** Whole-cluster outcome. */
struct ClusterExperimentResult
{
    std::vector<ClusterTenantResult> tenants;
    double fleetOfferedRps = 0.0;
    double fleetAchievedRps = 0.0;
    double fleetObservedRps = 0.0;
    std::uint64_t syscalls = 0;    ///< Σ machines
    std::uint64_t probeEvents = 0; ///< Σ agents
    std::uint64_t probeInsns = 0;
    std::int64_t probeCostNs = 0;
    /** Controller behaviour over the run (zeros when disabled). */
    ControllerStats controller;
};

/** True when @p config reduces to a plain runExperiment() call. */
bool isDegenerateCluster(const ClusterExperimentConfig &config);

/** Run one cluster experiment; fully deterministic for a given config. */
ClusterExperimentResult
runClusterExperiment(const ClusterExperimentConfig &config);

/**
 * Run many independent cluster experiments on the shared worker pool;
 * results in input order, each bit-identical to a serial call (every
 * run owns its simulation). Thread resolution and the inline fallback
 * for nested calls match runExperimentsParallel().
 */
std::vector<ClusterExperimentResult>
runClusterExperimentsParallel(
    const std::vector<ClusterExperimentConfig> &configs,
    unsigned threads = 0);

} // namespace reqobs::core

#endif // REQOBS_CORE_CLUSTER_HH
