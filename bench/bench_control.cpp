/**
 * @file
 * Closed-loop control from in-kernel metrics: does acting on the
 * paper's estimators (Eq. 1 rate, Eq. 2 send-variance knee, epoll
 * slack) hold per-tenant QoS where the same fleet run open-loop
 * violates it?
 *
 * Part 1 — diurnal + flash crowd on a heterogeneous fleet. Two tenants
 * (img-dnn + xapian) co-located on three machines, one of them half
 * speed. The img-dnn tenant follows a diurnal curve with a flash crowd
 * at the daily peak. Open loop, the slow machine saturates at the peak
 * and the flash crowd drowns the rest; closed loop, the controller
 * drains the slow machine off the balancers when its slack collapses
 * and sheds the flash crowd at the admission gate when the variance
 * knee fires.
 *
 * Part 2 — worker-pool scaling. A dispatcher/worker-pool tenant
 * (triton-http) on two machines takes a flash crowd beyond its
 * provisioned pool capacity. Open loop the pool drowns; closed loop the
 * controller unparks pre-provisioned workers when slack collapses.
 *
 * Both parts run the identical scenario twice — controller off, then
 * on — and the run fails (non-zero exit) if the closed loop violates
 * any tenant's QoS, the open loop violates none, or the controller
 * misbehaves (flapping migrations, tripped breaker, frozen ticks).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/cluster.hh"

namespace {

using namespace reqobs;

bench::JsonRows g_json;
int g_failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok)
        ++g_failures;
}

void
printTenantRows(const core::ClusterExperimentResult &res)
{
    for (const auto &t : res.tenants) {
        std::printf("%-12s %9.1f %9.1f %10.2f %6s %9llu %9llu\n",
                    t.name.c_str(), t.offeredRps, t.achievedRps,
                    static_cast<double>(t.p99Ns) / 1e6,
                    t.qosViolated ? "VIOL" : "held",
                    static_cast<unsigned long long>(t.shedded),
                    static_cast<unsigned long long>(t.shedDropped));
    }
}

void
printControllerRow(const core::ControllerStats &cs)
{
    std::printf("controller: ticks=%llu frozen=%llu migrations=%llu "
                "undrains=%llu scaleUp=%llu scaleDown=%llu "
                "shedEngage=%llu maxShed=%.2f breaker=%s\n",
                static_cast<unsigned long long>(cs.ticks),
                static_cast<unsigned long long>(cs.frozenTicks),
                static_cast<unsigned long long>(cs.migrations),
                static_cast<unsigned long long>(cs.undrains),
                static_cast<unsigned long long>(cs.scaleUps),
                static_cast<unsigned long long>(cs.scaleDowns),
                static_cast<unsigned long long>(cs.shedEngagements),
                cs.maxShed, cs.breakerOpen ? "OPEN" : "closed");
}

bool
anyViolated(const core::ClusterExperimentResult &res)
{
    for (const auto &t : res.tenants)
        if (t.qosViolated)
            return true;
    return false;
}

bool
allHeld(const core::ClusterExperimentResult &res)
{
    return !anyViolated(res);
}

void
jsonVerdict(const std::string &part,
            const core::ClusterExperimentResult &open,
            const core::ClusterExperimentResult &closed)
{
    // verdict: 1 = expected outcome; maxShed: the closed loop's peak
    // shed probability.
    const double verdict =
        (anyViolated(open) && allHeld(closed)) ? 1.0 : 0.0;
    g_json.add(part, "open-violates+closed-holds", "verdict", verdict,
               "maxShed", closed.controller.maxShed);
}

/** Diurnal curve with a flash crowd at the daily peak. */
std::vector<core::LoadPhase>
diurnalFlashProfile(sim::Tick warmup)
{
    return {
        {warmup, 0.70},                       // night
        {warmup + sim::seconds(3), 1.00},     // day ramp
        {warmup + sim::seconds(6), 1.50},     // flash crowd
        {warmup + sim::milliseconds(8500), 0.70}, // recovery
    };
}

core::ClusterExperimentConfig
diurnalConfig(bool closed_loop)
{
    core::ClusterExperimentConfig cfg;
    cfg.machines = 3;
    cfg.machineSpeedFactors = {1.0, 1.0, 0.4};
    cfg.lbPolicy = net::LbPolicy::RoundRobin;
    cfg.warmup = sim::milliseconds(500);
    // One explicit fleet-wide p99 target (~14x the img-dnn mean demand)
    // instead of the per-workload defaults: the verdict should hinge on
    // the controller, not on where each derived threshold happens to sit.
    cfg.qosLatency = sim::milliseconds(110);
    cfg.seed = 11;
    cfg.agent.minWindowSyscalls = 64;
    cfg.agent.samplePeriod = sim::milliseconds(50);

    // Peak-normal rates sized against the heterogeneous capacity
    // (2.5 machine-equivalents): img-dnn at 40% of fleet saturation at
    // the daily peak, xapian a steady 20% background.
    const auto img = workload::workloadByName("img-dnn");
    const auto xap = workload::workloadByName("xapian");
    core::ClusterTenantSpec a;
    a.workload = img;
    a.offeredRps = 0.40 * img.saturationRps * 2.5;
    a.requests = 22000;
    a.loadProfile = diurnalFlashProfile(cfg.warmup);
    cfg.tenants.push_back(std::move(a));
    core::ClusterTenantSpec b;
    b.workload = xap;
    b.offeredRps = 0.20 * xap.saturationRps * 2.5;
    b.requests = 6000;
    cfg.tenants.push_back(std::move(b));

    cfg.controller.enabled = closed_loop;
    cfg.controller.tickPeriod = sim::milliseconds(100);
    cfg.controller.shedCooldown = sim::milliseconds(250);
    cfg.controller.shedStep = 0.15;
    cfg.controller.shedMax = 0.5;
    cfg.controller.migrationCooldown = sim::milliseconds(1000);
    // Neither tenant runs a dispatcher/worker pool, so pool scaling
    // would be pure no-op actuations; pin the band shut.
    cfg.controller.maxWorkers = cfg.controller.baseWorkers;
    return cfg;
}

void
partOneDiurnalFlash()
{
    bench::printHeader("Diurnal + flash crowd (img-dnn + xapian, 3 machines,"
                       " speeds 1.0/1.0/0.4)");
    std::printf("%-12s %9s %9s %10s %6s %9s %9s\n", "tenant", "offered",
                "achieved", "p99ms", "qos", "shedded", "dropped");
    bench::dashRule();

    const auto open = core::runClusterExperiment(diurnalConfig(false));
    std::printf("-- open loop --\n");
    printTenantRows(open);
    const auto closed = core::runClusterExperiment(diurnalConfig(true));
    std::printf("-- closed loop --\n");
    printTenantRows(closed);
    printControllerRow(closed.controller);

    check(anyViolated(open), "open loop violates at least one tenant's QoS");
    check(allHeld(closed), "closed loop holds every tenant's QoS");
    check(closed.controller.migrations >= 1,
          "slow machine drained at least once");
    check(closed.controller.migrations + closed.controller.undrains <= 4,
          "migrations bounded (no flapping)");
    check(!closed.controller.breakerOpen, "migration breaker never trips");
    check(closed.controller.maxShed <= 0.5 + 1e-9, "shed capped at shedMax");
    jsonVerdict("diurnal-flash", open, closed);

    std::printf("\nExpected shape: open loop, the half-speed machine takes "
                "a full third of the\narrivals and saturates at the daily "
                "peak, and the flash crowd drowns the\nrest; closed loop "
                "drains it off the balancers and sheds the crowd at the\n"
                "admission gate, trading a bounded reject fraction for an "
                "intact tail.\n");
}

core::ClusterExperimentConfig
scalingConfig(bool closed_loop)
{
    core::ClusterExperimentConfig cfg;
    cfg.machines = 2;
    cfg.lbPolicy = net::LbPolicy::LeastConnections;
    cfg.warmup = sim::milliseconds(500);
    cfg.seed = 13;
    // ~200ms inferences at tens of RPS: small windows, fast sampling.
    cfg.agent.minWindowSyscalls = 8;
    cfg.agent.samplePeriod = sim::milliseconds(100);

    const auto wl = workload::workloadByName("triton-http");
    core::ClusterTenantSpec t;
    t.workload = wl;
    // 70% of the 4-worker fleet capacity at base load...
    t.offeredRps = 0.70 * wl.saturationRps * 2.0;
    t.requests = 700;
    // ...and a flash crowd far beyond it (but within the 8-worker pool).
    t.loadProfile = {
        {cfg.warmup, 1.0},
        {cfg.warmup + sim::seconds(5), 2.1},
        {cfg.warmup + sim::seconds(11), 1.0},
    };
    cfg.tenants.push_back(std::move(t));

    cfg.controller.enabled = closed_loop;
    cfg.controller.tickPeriod = sim::milliseconds(100);
    cfg.controller.baseWorkers = wl.workers;
    cfg.controller.maxWorkers = 2 * wl.workers;
    cfg.controller.scaleStep = 2;
    cfg.controller.scaleCooldown = sim::milliseconds(500);
    // The dispatcher is never the bottleneck here, so its epoll slack
    // does not collapse to ~0 when the worker pool drowns — it halves
    // (arrival gaps shrink with the crowd). Put the scale band around
    // that: engage below 0.55, release above 0.80.
    cfg.controller.scaleUpSlackBelow = 0.55;
    cfg.controller.scaleDownSlackAbove = 0.80;
    // Two machines: the drain actuator can never fire (a drain would
    // leave one machine for the whole tenant), isolating pool scaling.
    return cfg;
}

void
partTwoWorkerScaling()
{
    bench::printHeader("Flash crowd vs worker-pool scaling (triton-http, "
                       "2 machines, pool 4 -> 8)");
    std::printf("%-12s %9s %9s %10s %6s %9s %9s\n", "tenant", "offered",
                "achieved", "p99ms", "qos", "shedded", "dropped");
    bench::dashRule();

    const auto open = core::runClusterExperiment(scalingConfig(false));
    std::printf("-- open loop --\n");
    printTenantRows(open);
    const auto closed = core::runClusterExperiment(scalingConfig(true));
    std::printf("-- closed loop --\n");
    printTenantRows(closed);
    printControllerRow(closed.controller);

    check(anyViolated(open), "open loop violates the tenant's QoS");
    check(allHeld(closed), "closed loop holds the tenant's QoS");
    check(closed.controller.scaleUps >= 1, "pool scaled up during the flash");
    check(closed.controller.migrations == 0,
          "no migrations on a two-machine fleet");
    check(!closed.controller.breakerOpen, "migration breaker never trips");
    jsonVerdict("worker-scaling", open, closed);

    std::printf("\nExpected shape: the flash crowd exceeds the 4-worker "
                "pools' capacity, so the\nopen loop's queues grow for the "
                "whole crowd; the controller unparks the\npre-provisioned "
                "workers within a few ticks of the slack collapse and the\n"
                "backlog never builds.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::jsonPathArg(argc, argv);
    partOneDiurnalFlash();
    partTwoWorkerScaling();
    if (!json_path.empty())
        g_json.write(json_path);
    if (g_failures > 0) {
        std::printf("\n%d check(s) FAILED\n", g_failures);
        return 1;
    }
    std::printf("\nall checks passed\n");
    return 0;
}
