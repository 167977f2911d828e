/**
 * @file
 * Canonical byte serialization of ClusterExperimentResult for the
 * determinism test suites.
 *
 * Every numeric field is rendered exactly (hex floats for doubles), so
 * two serializations compare equal iff the results are bit-identical.
 */

#ifndef REQOBS_TESTS_CLUSTER_BYTES_HH
#define REQOBS_TESTS_CLUSTER_BYTES_HH

#include <cstdio>
#include <string>

#include "core/cluster.hh"

namespace reqobs::test {

inline std::string
clusterBytes(const core::ClusterExperimentResult &r)
{
    std::string out;
    char buf[512];
    auto emit = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };

    emit("fleet %a %a %a sys=%llu pe=%llu pi=%llu pc=%lld\n",
         r.fleetOfferedRps, r.fleetAchievedRps, r.fleetObservedRps,
         (unsigned long long)r.syscalls, (unsigned long long)r.probeEvents,
         (unsigned long long)r.probeInsns, (long long)r.probeCostNs);
    emit("ctl %llu %llu %llu %llu %llu %llu %llu %a %d %u\n",
         (unsigned long long)r.controller.ticks,
         (unsigned long long)r.controller.frozenTicks,
         (unsigned long long)r.controller.migrations,
         (unsigned long long)r.controller.undrains,
         (unsigned long long)r.controller.scaleUps,
         (unsigned long long)r.controller.scaleDowns,
         (unsigned long long)r.controller.shedEngagements,
         r.controller.maxShed, (int)r.controller.breakerOpen,
         r.controller.breakerStreak);
    for (const core::ClusterTenantResult &t : r.tenants) {
        emit("tenant %s %a %a %a c=%llu p50=%llu p95=%llu p99=%llu "
             "qos=%d arr=%llu shed=%llu drop=%llu rq=%a\n",
             t.name.c_str(), t.offeredRps, t.achievedRps, t.observedRps,
             (unsigned long long)t.completed, (unsigned long long)t.p50Ns,
             (unsigned long long)t.p95Ns, (unsigned long long)t.p99Ns,
             (int)t.qosViolated, (unsigned long long)t.arrivals,
             (unsigned long long)t.shedded,
             (unsigned long long)t.shedDropped, t.runqP99Ns);
        for (const core::TenantMachineResult &m : t.machines) {
            emit("  machine %a %a c=%llu sv=%a poll=%a pss=%llu ks=%llu "
                 "s=%llu rq=%a\n",
                 m.observedRps, m.achievedRps,
                 (unsigned long long)m.completed, m.sendVarNs2,
                 m.pollMeanDurNs, (unsigned long long)m.probeSendSyscalls,
                 (unsigned long long)m.kernelSyscalls,
                 (unsigned long long)m.samples, m.runqP99Ns);
        }
        for (const core::FleetSample &s : t.fleetSeries) {
            emit("  fs t=%lld %a %a %a sc=%llu n=%u rq=%a\n",
                 (long long)s.t, s.rpsObsv, s.varianceNs2, s.slack,
                 (unsigned long long)s.sendCount, s.contributors,
                 s.runqP99Ns);
        }
    }
    return out;
}

} // namespace reqobs::test

#endif // REQOBS_TESTS_CLUSTER_BYTES_HH
