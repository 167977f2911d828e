/**
 * @file
 * Fleet aggregation: does the paper's Eq. 1 linearity survive merging
 * per-machine in-kernel estimates across a load-balanced fleet?
 *
 * Part 1 repeats the Fig. 2 correlation at fleet level for 1/2/4
 * machines: per-machine RPS_obsv windows are merged on sample-period
 * buckets (rates add) and regressed against the fleet's client-side
 * achieved rate.
 *
 * Part 2 ablates the load-balancing policy on a speed-skewed fleet:
 * round-robin overloads the slow machines while least-connections sheds
 * onto the fast ones, and the fleet-aggregated estimate must stay on
 * the Eq. 1 line either way — the aggregator only ever sums rates, so
 * placement policy is invisible to it.
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

std::vector<double>
fractions()
{
    return {0.4, 0.6, 0.8, 1.0};
}

/** Cluster config: one tenant spread over @p machines machines. */
core::ClusterExperimentConfig
fleetConfig(const workload::WorkloadConfig &wl, unsigned machines,
            double frac, net::LbPolicy policy,
            std::vector<double> speed = {})
{
    core::ClusterExperimentConfig cfg;
    core::ClusterTenantSpec t;
    t.workload = wl;
    double capacity = static_cast<double>(machines);
    if (!speed.empty())
        capacity = 0.0;
    for (double s : speed)
        capacity += s;
    t.offeredRps = frac * wl.saturationRps * capacity;
    t.requests = static_cast<std::uint64_t>(
        std::clamp(t.offeredRps * 4.0, 2500.0, 25000.0 * machines));
    cfg.tenants.push_back(std::move(t));
    cfg.machines = machines;
    cfg.machineSpeedFactors = std::move(speed);
    cfg.lbPolicy = policy;
    cfg.agent.minWindowSyscalls = 256;
    cfg.seed = 7 + static_cast<std::uint64_t>(frac * 1000.0);
    return cfg;
}

/**
 * Fleet-level Fig. 2 fit: up to ten full-fleet buckets per level (every
 * machine contributing) against that level's achieved fleet rate.
 */
double
fleetR2(const std::vector<core::ClusterExperimentResult> &levels)
{
    stats::LinearRegression reg;
    for (const auto &res : levels) {
        const auto &tr = res.tenants[0];
        std::size_t used = 0;
        for (const auto &s : tr.fleetSeries) {
            if (used >= 10)
                break;
            if (s.rpsObsv > 0.0 &&
                s.contributors == tr.machines.size()) {
                reg.add(s.rpsObsv, tr.achievedRps);
                ++used;
            }
        }
    }
    return reg.fit().r2;
}

std::vector<core::ClusterExperimentResult>
fleetSweep(const workload::WorkloadConfig &wl, unsigned machines,
           net::LbPolicy policy, const std::vector<double> &speed = {})
{
    std::vector<core::ClusterExperimentConfig> configs;
    for (double frac : fractions())
        configs.push_back(fleetConfig(wl, machines, frac, policy, speed));
    return core::runClusterExperimentsParallel(configs);
}

void
partOneMachineCount()
{
    bench::printHeader("Fleet Eq. 1 R^2 vs machine count (round-robin, "
                       "homogeneous)");
    const std::vector<std::string> workloads = {"img-dnn", "xapian"};
    const std::vector<unsigned> counts = {1, 2, 4};

    std::vector<std::string> cols;
    for (unsigned m : counts)
        cols.push_back("m" + std::to_string(m));
    bench::MatrixTable::header("workload", cols);

    for (const auto &name : workloads) {
        const auto wl = workload::workloadByName(name);
        bench::MatrixTable::rowLabel(name);
        for (unsigned m : counts) {
            const auto levels =
                fleetSweep(wl, m, net::LbPolicy::RoundRobin);
            const double r2 = fleetR2(levels);
            bench::MatrixTable::cell(r2);
            g_json.add("fleet", name + "/m" + std::to_string(m), "r2", r2);
        }
        bench::MatrixTable::endRow();
    }

    std::printf("\nExpected shape: the m1 column is the single-machine "
                "Fig. 2 fit (the cluster\nharness degenerates to the "
                "plain experiment there); aggregation preserves or\n"
                "sharpens the linearity because summing per-machine rates "
                "averages out their\nindependent window noise.\n");
}

void
partTwoLbAblation()
{
    bench::printHeader("LB policy ablation (img-dnn, 4 machines, speeds "
                       "1.0/0.9/0.7/0.5)");
    const auto wl = workload::workloadByName("img-dnn");
    const std::vector<double> speed = {1.0, 0.9, 0.7, 0.5};
    const std::vector<net::LbPolicy> policies = {
        net::LbPolicy::RoundRobin, net::LbPolicy::LeastConnections};

    std::printf("%-18s %8s %10s %10s %10s %10s\n", "policy", "R^2",
                "ach@1.0", "p99@1.0ms", "min_share", "max_share");
    bench::dashRule();
    for (const auto policy : policies) {
        const auto levels = fleetSweep(wl, 4, policy, speed);
        const double r2 = fleetR2(levels);
        const auto &top = levels.back().tenants[0];
        std::uint64_t min_c = top.machines[0].completed;
        std::uint64_t max_c = min_c;
        for (const auto &m : top.machines) {
            min_c = std::min(min_c, m.completed);
            max_c = std::max(max_c, m.completed);
        }
        const double total = static_cast<double>(
            std::max<std::uint64_t>(top.completed, 1));
        std::printf("%-18s %8.4f %10.1f %10.2f %9.1f%% %9.1f%%\n",
                    net::lbPolicyName(policy), r2, top.achievedRps,
                    static_cast<double>(top.p99Ns) / 1e6,
                    100.0 * static_cast<double>(min_c) / total,
                    100.0 * static_cast<double>(max_c) / total);
        g_json.add("lb", std::string("img-dnn/") + net::lbPolicyName(policy),
                   "r2", r2);
    }

    std::printf("\nExpected shape: least-connections shifts completions "
                "toward the fast\nmachines (wider share spread, better "
                "achieved rate and tail at saturation),\nwhile both "
                "policies leave the fleet-aggregated R^2 on the Eq. 1 "
                "line — the\naggregator sums rates and never sees "
                "placement.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::jsonPathArg(argc, argv);
    partOneMachineCount();
    partTwoLbAblation();
    if (!json_path.empty())
        g_json.write(json_path);
    return 0;
}
