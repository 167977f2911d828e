/**
 * @file
 * The benchmark's four workloads as lists of harness configurations,
 * and the simulated outputs the benchmark compares, checks and digests.
 *
 * Every workload is a fixed list of experiments derived from one seed.
 * A single-machine experiment runs through core::runExperiment(), a
 * multi-machine or multi-tenant one through core::runClusterExperiment()
 * (serial path; no parallel-engine knob is ever set).
 */

#ifndef REQOBS_PERFBENCH_WORKLOADS_HH
#define REQOBS_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hh"
#include "core/experiment.hh"
#include "net/frontdoor.hh"

namespace perfbench {

using namespace reqobs;

/** One experiment of a workload: exactly one of the two configs is used. */
struct Experiment
{
    bool cluster = false;
    core::ExperimentConfig single;
    core::ClusterExperimentConfig multi;
};

/** A named workload: its experiments plus the seed they came from. */
struct Workload
{
    std::string name;
    std::uint64_t seed = 0;
    std::vector<Experiment> experiments;
    /** CPU scheduling model every experiment uses. */
    kernel::SchedModel sched = kernel::SchedModel::Gps;
};

/** Seed of the bench each workload is taken from. */
std::uint64_t defaultSeed(const std::string &name);

/**
 * Build workload @p name from @p seed. @p scale multiplies every
 * experiment's request budget (1 for measurement; the smoke test uses
 * tiny values). Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed, double scale,
                  Workload &out);

/** One tenant's simulated outcome. */
struct TenantOutputs
{
    std::uint64_t completed = 0;
    std::uint64_t p99Ns = 0;
    double achievedRps = 0.0;
    double observedRps = 0.0; ///< Eq. 1 over the whole run
    /** Requests the client may have sent: arrivals (cluster) or the
     *  request budget (single machine). */
    std::uint64_t sendBound = 0;
    /** Send-family events the probes attributed to the tenant. */
    std::uint64_t probeSends = 0;
    /** The kernel's own syscall count for the tenant's process. */
    std::uint64_t kernelSyscalls = 0;
};

/** One experiment's simulated outcome: what is checked and digested. */
struct Outputs
{
    std::uint64_t syscalls = 0;
    std::uint64_t probeEvents = 0;
    std::uint64_t probeInsns = 0;
    std::int64_t probeCostNs = 0;
    std::vector<TenantOutputs> tenants;

    /** Map-update failures and ring drops; only the single-machine
     *  result carries them (cluster results do not export them). */
    bool lossCounted = false;
    std::uint64_t mapUpdateFails = 0;
    std::uint64_t ringbufDrops = 0;

    bool door = false;
    net::FrontDoorCounts doorCounts;
    std::uint64_t stormEstablished = 0;
    std::uint64_t stormFailed = 0;
};

/** Run @p e through the public harness and collect its outputs. */
Outputs runHarness(const Experiment &e);

/**
 * Self-checks on one experiment's outputs. Returns an empty string when
 * every check passes, else a description of the first failure.
 */
std::string selfCheck(const Outputs &o);

/** 64-bit FNV-1a digest of the outputs the traced run must reproduce. */
std::uint64_t digest(const Outputs &o);

/** Fold @p value into a running FNV-1a digest. */
std::uint64_t fold(std::uint64_t h, std::uint64_t value);

/** |Eq. 1 observed - achieved| / achieved per tenant, in percent. */
void appendRpsErrors(const Outputs &o, std::vector<double> &out);

} // namespace perfbench

#endif // REQOBS_PERFBENCH_WORKLOADS_HH
