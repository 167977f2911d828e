/**
 * @file
 * The benchmark's outside-in mirror of the harness: builds one
 * experiment's stack from the same public constructors, in the same
 * order, that core::runExperiment() and the serial path of
 * core::runClusterExperiment() use, then either stops (set-up timing)
 * or steps the simulation one event at a time with host-time spans
 * around each event and around probe execution (the traced run).
 *
 * Nothing here reaches inside the library: layer boundaries are public
 * calls, and probe time is bracketed by two zero-cost C++ probes
 * attached through the kernel's tracepoint API, one before and one
 * after the agent's programs.
 */

#ifndef REQOBS_PERFBENCH_STACK_HH
#define REQOBS_PERFBENCH_STACK_HH

#include <cstdint>

#include "workloads.hh"

namespace perfbench {

/** Host nanoseconds spent building a stack, by layer. */
struct SetupSpans
{
    double simNs = 0.0;      ///< Simulation
    double workloadNs = 0.0; ///< machines, tenants, antagonist, front door
    double clientNs = 0.0;   ///< load / fleet / storm generators (links)
    double agentNs = 0.0;    ///< agents: maps, load, verify, attach

    double totalNs() const { return simNs + workloadNs + clientNs + agentNs; }
    SetupSpans &operator+=(const SetupSpans &o);
};

/** Per-layer counts and host-time spans, summed over experiments. */
struct LayerTrace
{
    SetupSpans setup;
    double runSpanNs = 0.0;   ///< the event loop, end to end
    double eventSpanNs = 0.0; ///< sum of per-event spans
    double probeNs = 0.0;     ///< between the bracketing probes

    std::uint64_t events = 0;
    std::uint64_t fires = 0; ///< tracepoint fires reaching agent probes

    /** Events during which some CPU model completed a job. */
    std::uint64_t cpuEvents = 0;
    double cpuEventSelfNs = 0.0; ///< their spans, probe time excluded
    double eventSelfNs = 0.0;    ///< every event's span minus probe time
    /** activeJobs() summed over machines, sampled every 64th
     *  event (walking every core after every event costs too much). */
    double activeSum = 0.0;
    std::uint64_t activeSamples = 0;
    std::uint64_t activeMax = 0;

    std::uint64_t syscalls = 0;
    std::uint64_t cpuJobs = 0;
    std::uint64_t cpuDispatches = 0;
    std::uint64_t cpuPreemptions = 0;

    std::uint64_t probeRuns = 0;
    std::uint64_t probeInsns = 0;
    double probeSimCostNs = 0.0;
    std::uint64_t mapUpdateFails = 0;
    std::uint64_t ringbufDrops = 0;
    std::uint64_t loadedPrograms = 0;
    std::uint64_t nativePrograms = 0;

    std::uint64_t doorSyns = 0;
    std::uint64_t doorAccepted = 0;
    std::uint64_t doorDrops = 0;
    std::uint64_t doorRetransmits = 0;

    std::uint64_t clientSent = 0;
    std::uint64_t clientCompleted = 0;
    std::uint64_t stormAttempted = 0;
    std::uint64_t stormFailed = 0;

    std::uint64_t stalls = 0;
    std::uint64_t samples = 0;
    std::uint64_t degradedSamples = 0;
};

/** What building one stack without running it reports. */
struct BuildOnly
{
    SetupSpans spans;
    std::uint64_t loadedPrograms = 0;
    std::uint64_t nativePrograms = 0;
};

/** Build and start @p e's stack, stop before its first event. */
BuildOnly buildOnly(const Experiment &e);

/**
 * Build @p e's stack with the probe brackets, run it to the harness's
 * horizon one timed event at a time, add its layer figures to @p trace
 * and return its simulated outputs (for comparison with the harness).
 */
Outputs runTraced(const Experiment &e, LayerTrace &trace);

} // namespace perfbench

#endif // REQOBS_PERFBENCH_STACK_HH
