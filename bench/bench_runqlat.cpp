/**
 * @file
 * Run-queue latency as the early-warning signal: the runqlat probe
 * pair (fourth metric family) against Eq. 2 send-variance on the
 * bench_colocation scenario, under the discrete-dispatch scheduler.
 *
 * Part 1 — detection lag. Two co-located tenants run in steady state;
 * a best-effort CPU antagonist switches on mid-run and drives the
 * machine into QoS violation. For each antagonist intensity across a
 * ramp, both metrics are watched on the same merged fleet series with
 * the same crossing rule (first window above 4x the pre-onset
 * baseline). Run-queue latency rises the moment tasks start queueing;
 * send variance only moves once completions are already bursty — so
 * runqlat must detect the violation with lower lag at every rung.
 *
 * Part 2 — root-cause disambiguation. Same tenants degraded two ways:
 * the CPU antagonist vs netem network impairment. Client p99 rises in
 * both runs; run-queue p99 rises ONLY under the antagonist (netem adds
 * its delay outside the machine, so the run queues never see it). A
 * flat runqlat under a degraded client tail localizes the bottleneck
 * off-box — the call Eq. 2 can only gesture at (its antagonist/netem
 * separation is a few x, runqlat's is three orders of magnitude).
 *
 * Exit is non-zero if any printed check fails (same contract as
 * bench_frontdoor / bench_control).
 */

#include <algorithm>
#include <cstdio>
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

constexpr sim::Tick kOnset = sim::seconds(2);

/**
 * The bench_colocation two-tenant mix at a moderate steady load, on
 * the discrete scheduler with the runqlat family enabled.
 */
core::ClusterExperimentConfig
baseConfig()
{
    core::ClusterExperimentConfig cfg;
    for (const char *name : {"img-dnn", "xapian"}) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(name);
        t.offeredRps = 0.4 * t.workload.saturationRps / 2.0;
        // ~5 s of steady arrivals: 2 s clean baseline, 3 s post-onset.
        t.requests = static_cast<std::uint64_t>(t.offeredRps * 5.0);
        cfg.tenants.push_back(std::move(t));
    }
    cfg.machines = 1;
    cfg.sched = kernel::SchedModel::Discrete;
    cfg.agent.minWindowSyscalls = 128;
    cfg.agent.runqlatHistogram = true;
    cfg.seed = 23;
    return cfg;
}

/**
 * First merged window at or after the onset where @p metric exceeds
 * 4x its pre-onset maximum (with @p floor guarding an all-zero
 * baseline). Returns the detection lag in ms, or -1 if never crossed.
 */
double
detectionLagMs(const std::vector<core::FleetSample> &series,
               double (*metric)(const core::FleetSample &), sim::Tick warmup,
               double floor)
{
    double baseline = floor;
    for (const auto &s : series)
        if (s.t >= warmup && s.t < kOnset)
            baseline = std::max(baseline, metric(s));
    const double threshold = 4.0 * baseline;
    for (const auto &s : series)
        if (s.t >= kOnset && metric(s) > threshold)
            return static_cast<double>(s.t - kOnset) / 1e6;
    return -1.0;
}

double
runqMetric(const core::FleetSample &s)
{
    return s.runqP99Ns;
}

double
varMetric(const core::FleetSample &s)
{
    return s.varianceNs2;
}

/** Worst (slowest) detection lag across the run's tenants. */
double
worstLagMs(const core::ClusterExperimentResult &res,
           double (*metric)(const core::FleetSample &), sim::Tick warmup,
           double floor, sim::Tick horizon_hint)
{
    double worst = 0.0;
    for (const auto &tr : res.tenants) {
        double lag = detectionLagMs(tr.fleetSeries, metric, warmup, floor);
        if (lag < 0.0) // never detected: charge the remaining horizon
            lag = static_cast<double>(horizon_hint - kOnset) / 1e6;
        worst = std::max(worst, lag);
    }
    return worst;
}

void
partOneDetectionLag()
{
    bench::printHeader("Detection lag: runqlat p99 vs Eq. 2 send variance "
                       "(antagonist onset at t=2s)");

    const std::vector<unsigned> ramp = {24, 48, 96};
    std::vector<core::ClusterExperimentConfig> configs;
    for (unsigned threads : ramp) {
        core::ClusterExperimentConfig cfg = baseConfig();
        cfg.antagonist = true;
        cfg.antagonistConfig.threads = threads;
        cfg.antagonistConfig.startAt = kOnset;
        configs.push_back(std::move(cfg));
    }
    const auto results = core::runClusterExperimentsParallel(configs);

    std::printf("%-12s %14s %14s %10s\n", "antagonist", "runqlat_ms",
                "variance_ms", "winner");
    bench::dashRule();

    double sum_runq = 0.0, sum_var = 0.0;
    bool runq_never_slower = true;
    for (std::size_t i = 0; i < ramp.size(); ++i) {
        // Post-onset tail is ~3 s; cap undetected lags there.
        const sim::Tick horizon = kOnset + sim::seconds(3);
        const double lag_runq =
            worstLagMs(results[i], runqMetric, configs[i].warmup,
                       2048.0, horizon);
        const double lag_var =
            worstLagMs(results[i], varMetric, configs[i].warmup,
                       1.0, horizon);
        sum_runq += lag_runq;
        sum_var += lag_var;
        if (lag_runq > lag_var)
            runq_never_slower = false;
        const std::string label =
            std::to_string(ramp[i]) + "-thread";
        std::printf("%-12s %14.1f %14.1f %10s\n", label.c_str(), lag_runq,
                    lag_var,
                    lag_runq < lag_var
                        ? "runqlat"
                        : (lag_runq == lag_var ? "tie" : "variance"));
        g_json.add("detection", label, "runqLagMs", lag_runq, "eq2LagMs",
                   lag_var);
    }

    check(runq_never_slower,
          "runqlat detection lag <= Eq. 2 lag at every antagonist rung");
    check(sum_runq < sum_var,
          "runqlat detects strictly earlier than Eq. 2 on aggregate");

    std::printf("\nExpected shape: run-queue latency crosses its baseline "
                "within one or two\nsample windows of the antagonist "
                "waking (tasks queue immediately); the\nsend-variance "
                "crossing trails it because completions must first slow "
                "enough\nto make the send stream visibly bursty "
                "(Fig. 3's mechanism).\n");
}

void
partTwoDisambiguation()
{
    bench::printHeader("Root cause: CPU saturation vs network degradation "
                       "(same client symptom)");

    core::ClusterExperimentConfig antag = baseConfig();
    antag.antagonist = true;
    antag.antagonistConfig.threads = 64;

    core::ClusterExperimentConfig netem = baseConfig();
    netem.netem.delay = sim::milliseconds(5);
    netem.netem.jitter = sim::milliseconds(2);
    netem.netem.lossProbability = 0.0;

    core::ClusterExperimentConfig clean = baseConfig();

    const auto results = core::runClusterExperimentsParallel(
        {antag, netem, clean});
    const auto &ra = results[0];
    const auto &rn = results[1];
    const auto &rc = results[2];

    std::printf("%-12s %14s %14s %14s\n", "run", "client_p99_ms",
                "runq_p99_us", "variance_ns2");
    bench::dashRule();
    auto row = [](const char *label,
                  const core::ClusterExperimentResult &res) {
        std::uint64_t p99 = 0;
        double runq = 0.0, var = 0.0;
        for (const auto &tr : res.tenants) {
            p99 = std::max(p99, tr.p99Ns);
            runq = std::max(runq, tr.runqP99Ns);
            for (const auto &s : tr.fleetSeries)
                var = std::max(var, s.varianceNs2);
        }
        std::printf("%-12s %14.2f %14.2f %14.3g\n", label,
                    static_cast<double>(p99) / 1e6, runq / 1e3, var);
        return std::make_pair(runq, p99);
    };
    const auto [runq_a, p99_a] = row("antagonist", ra);
    const auto [runq_n, p99_n] = row("netem", rn);
    const auto [runq_c, p99_c] = row("clean", rc);

    // Both degradations hurt the client...
    check(p99_a > p99_c, "antagonist inflates client p99 over clean");
    check(p99_n > p99_c, "netem inflates client p99 over clean");
    // ...but only CPU contention moves the run queues.
    check(runq_a > 5.0 * std::max(runq_n, 1.0),
          "runq p99 rises >5x under the antagonist vs netem");
    check(runq_n <= 2.0 * std::max(runq_c, 1.0),
          "runq p99 stays flat under netem (within 2x of clean)");

    g_json.add("disambiguation", "antagonist", "runqP99Ns", runq_a,
               "clientP99Ns", static_cast<double>(p99_a));
    g_json.add("disambiguation", "netem", "runqP99Ns", runq_n,
               "clientP99Ns", static_cast<double>(p99_n));
    g_json.add("disambiguation", "clean", "runqP99Ns", runq_c,
               "clientP99Ns", static_cast<double>(p99_c));

    std::printf("\nExpected shape: the client tail degrades in both "
                "impaired runs, but run-queue\np99 separates them — "
                "elevated only when the CPU is the bottleneck. Network\n"
                "impairment adds delay outside the machine, so the run "
                "queues stay as short\nas the clean run's.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::jsonPathArg(argc, argv);
    partOneDetectionLag();
    partTwoDisambiguation();
    if (!json_path.empty())
        g_json.write(json_path);
    if (g_failures > 0) {
        std::printf("\n%d check(s) FAILED\n", g_failures);
        return 1;
    }
    std::printf("\nall checks passed\n");
    return 0;
}
