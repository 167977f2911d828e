/**
 * @file
 * Host-network front door under connection storms: what the paper's
 * syscall-level metrics can and cannot see, and what acting on the
 * front-door signal buys.
 *
 * Part 1 — rank blindness. A victim tenant (data-caching) runs at 95%
 * load over persistent connections while a short-lived-connection storm
 * of increasing intensity hammers a front-door listener on the same
 * machine. The storm's accept/serve work steals CPU, so the victim's
 * ground-truth p99 climbs with storm intensity — but the victim's
 * syscall footprint barely changes, so the Eq. 1 observed-RPS estimate
 * stays flat and loses rank correlation with the victim's QoS. The
 * front-door latency (ingress -> accept, the quantity the sock_accept /
 * net_rx_enqueue eBPF probe pair measures) is monotone in storm
 * intensity and keeps the rank.
 *
 * Part 2 — open vs closed loop. Four listeners take a storm heavy
 * enough to pin four acceptor cores; at 85% victim load that is
 * sustained machine overload and the victim's QoS collapses. Closed
 * loop, the FleetController watches the front-door drop rate and clamps
 * the tenant's accept budget, turning expensive post-accept service
 * into cheap pre-accept drops; the victim's QoS holds.
 *
 * Exit is non-zero if any printed check fails (same contract as
 * bench_control).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "client/load_generator.hh"
#include "client/storm_generator.hh"
#include "core/controller.hh"
#include "workload/machine.hh"

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

/** Kendall rank correlation over all pairs (ties count as neither). */
double
kendallTau(const std::vector<double> &x, const std::vector<double> &y)
{
    int concordant = 0, discordant = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = i + 1; j < x.size(); ++j) {
            const double s = (x[j] - x[i]) * (y[j] - y[i]);
            if (s > 0.0)
                ++concordant;
            else if (s < 0.0)
                ++discordant;
        }
    }
    const int pairs = concordant + discordant;
    return pairs > 0 ? static_cast<double>(concordant - discordant) / pairs
                     : 0.0;
}

/**
 * An edge front-end host: same family as the paper's AMD server but
 * 8 cores, so acceptor threads pinned by a storm are a meaningful
 * fraction of the machine (on the 2-socket SMT evaluation box a storm
 * would need dozens of listeners to matter).
 */
kernel::SystemSpec
edgeHostSpec()
{
    kernel::SystemSpec spec = kernel::amdEpyc7302();
    spec.sockets = 1;
    spec.coresPerSocket = 8;
    spec.threadsPerCore = 1;
    return spec;
}

// ---------------------------------------------------------------------------
// Part 1: storm-intensity sweep, signal ranks.
// ---------------------------------------------------------------------------

core::ExperimentConfig
stormPointConfig(double storm_conn_rps)
{
    const auto wl = workload::workloadByName("data-caching");
    core::ExperimentConfig cfg = bench::benchConfig(wl, /*seed=*/21);
    cfg.system = edgeHostSpec();
    cfg.offeredRps = 0.95 * wl.saturationRps;
    cfg.requests = 30000;
    cfg.warmup = sim::milliseconds(200);

    cfg.frontDoor.enabled = true;
    // Storm requests are cheap individually but the acceptors serve them
    // inline: past ~1/serviceDemand conns/sec per listener the acceptor
    // cores pin and the backlog (then the retransmit path) takes the
    // overflow. Two listeners bound the storm at two of eight cores.
    cfg.frontDoor.listener.serviceDemand = sim::microseconds(200);
    cfg.frontDoor.listeners = 2;
    if (storm_conn_rps > 0.0) {
        cfg.frontDoor.stormEnabled = true;
        cfg.frontDoor.storm.connRps = storm_conn_rps;
        cfg.frontDoor.storm.warmup = cfg.warmup;
    }
    return cfg;
}

void
partOneStormRank()
{
    bench::printHeader("Storm sweep: victim QoS vs Eq. 1 vs front-door "
                       "latency (data-caching @ 0.95 load)");
    // Levels chosen below the machine's saturation knee: the victim's
    // tail degrades monotonically while its throughput (and therefore
    // its syscall rate, and therefore Eq. 1) holds completely still.
    // Past ~6k conns/sec the machine saturates and the victim's
    // throughput collapses too — a storm Eq. 1 does see, eventually,
    // once the damage is done.
    const std::vector<double> storm_levels = {0.0, 2000.0, 3500.0, 5000.0};

    std::vector<core::ExperimentConfig> configs;
    for (double s : storm_levels)
        configs.push_back(stormPointConfig(s));
    const auto results = core::runExperimentsParallel(configs);

    std::printf("%-10s %9s %9s %10s %10s %9s %9s %9s\n", "storm_cps",
                "achieved", "rps_obsv", "vict_p99ms", "door_p99ms",
                "accepted", "drops", "retrans");
    bench::dashRule();
    std::vector<double> victim_p99, obs_rps, door_p99;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        victim_p99.push_back(static_cast<double>(r.p99Ns));
        obs_rps.push_back(r.observedRps);
        door_p99.push_back(static_cast<double>(r.frontDoorAcceptP99Ns));
        std::printf("%-10.0f %9.1f %9.1f %10.2f %10.2f %9llu %9llu %9llu\n",
                    storm_levels[i], r.achievedRps, r.observedRps,
                    static_cast<double>(r.p99Ns) / 1e6,
                    static_cast<double>(r.frontDoorAcceptP99Ns) / 1e6,
                    static_cast<unsigned long long>(
                        r.frontDoorCounts.accepted),
                    static_cast<unsigned long long>(
                        r.frontDoorCounts.drops()),
                    static_cast<unsigned long long>(
                        r.frontDoorCounts.retransmits));
    }

    // Rank structure: the front-door signal should order the levels the
    // same way the victim's ground-truth tail does; Eq. 1 should not.
    const double tau_door = kendallTau(door_p99, victim_p99);
    const double tau_obs = kendallTau(obs_rps, victim_p99);
    double obs_min = obs_rps[0], obs_max = obs_rps[0];
    for (double v : obs_rps) {
        obs_min = std::min(obs_min, v);
        obs_max = std::max(obs_max, v);
    }
    const double obs_spread =
        obs_max > 0.0 ? (obs_max - obs_min) / obs_max : 0.0;
    std::printf("kendall tau vs victim p99: front-door=%.2f eq1=%.2f "
                "(eq1 spread %.1f%%)\n",
                tau_door, tau_obs, 100.0 * obs_spread);

    bool door_monotone = true;
    for (std::size_t i = 1; i < door_p99.size(); ++i)
        door_monotone = door_monotone && door_p99[i] >= door_p99[i - 1];
    check(victim_p99.back() > 1.5 * victim_p99.front(),
          "storm degrades the victim's ground-truth p99 (>1.5x)");
    check(door_monotone && door_p99.back() > 0.0,
          "front-door latency is monotone in storm intensity");
    check(obs_spread < 0.15,
          "Eq. 1 observed RPS is flat across storm levels (<15% spread)");
    check(tau_door >= 2.0 / 3.0,
          "front-door latency keeps rank with victim p99 (tau >= 2/3)");
    check(tau_door > tau_obs,
          "Eq. 1 loses the rank the front-door signal keeps");
    g_json.add("storm-rank", "door-tau", "kendallTau", tau_door,
               "eq1Spread", obs_spread);
    g_json.add("storm-rank", "eq1-tau", "kendallTau", tau_obs, "eq1Spread",
               obs_spread);

    std::printf("\nExpected shape: the victim's syscall stream never sees "
                "the storm (it all\nhappens before accept returns), so "
                "RPS_obsv stays put while the victim's\ntail climbs; the "
                "ingress->accept latency the front-door probes measure is\n"
                "the signal that still ranks the damage.\n");
}

// ---------------------------------------------------------------------------
// Part 2: open vs closed loop under a saturating storm.
// ---------------------------------------------------------------------------

constexpr unsigned kStormListeners = 4;

struct LoopOutcome
{
    double achievedRps = 0.0;
    std::uint64_t p99Ns = 0;
    bool qosViolated = false;
    net::FrontDoorCounts door;
    std::uint64_t stormEstablished = 0;
    core::ControllerStats ctrl;
};

LoopOutcome
runLoop(bool closed_loop)
{
    const auto wl = workload::workloadByName("data-caching");
    sim::Simulation sim(31);

    kernel::KernelConfig kc;
    kc.cpu = edgeHostSpec().toCpuConfig();
    workload::Machine machine(sim, kc);
    workload::ServerApp &app = machine.addTenant(wl);

    const net::NetemConfig netem;
    const net::TcpConfig tcp;
    client::ClientConfig cc;
    cc.offeredRps = 0.85 * wl.saturationRps;
    cc.maxRequests = 50000;
    cc.warmup = sim::milliseconds(300);
    cc.qosLatency = core::defaultQosLatency(wl, netem);
    client::LoadGenerator gen(sim, app, netem, tcp, cc, nullptr);

    net::FrontDoor &door = machine.enableFrontDoor(net::FrontDoorConfig{});
    net::ListenerConfig lc;
    lc.serviceDemand = sim::microseconds(200);
    for (unsigned i = 0; i < kStormListeners; ++i)
        machine.addFrontDoorListener(0, lc);

    // Four storms, each beyond its acceptor's ~5k conns/sec service
    // capacity: four pinned cores of eight on top of the victim's load.
    std::vector<std::unique_ptr<client::StormGenerator>> storms;
    for (unsigned i = 0; i < kStormListeners; ++i) {
        client::StormConfig sc;
        sc.connRps = 8000.0;
        sc.listener = i;
        sc.warmup = cc.warmup;
        storms.push_back(std::make_unique<client::StormGenerator>(
            sim, door, netem, tcp, sc));
    }

    core::ControllerConfig ccfg;
    ccfg.enabled = closed_loop;
    ccfg.tickPeriod = sim::milliseconds(50);
    ccfg.budgetOnDropRate = 500.0;
    ccfg.budgetOffDropRate = 50.0;
    ccfg.budgetClampRps = 800.0;
    ccfg.budgetCooldown = sim::milliseconds(200);
    // Single machine, front-door signal only: pin the other actuators'
    // bands shut (their engage conditions never hold at slack=1/var=0).
    ccfg.maxWorkers = ccfg.baseWorkers;
    std::unique_ptr<core::FleetController> ctrl;
    if (closed_loop) {
        core::FleetActuators act;
        act.setAcceptBudget = [&door](std::size_t, double rps) {
            for (unsigned i = 0; i < kStormListeners; ++i)
                door.setAcceptBudget(i,
                                     rps > 0.0 ? rps / kStormListeners : 0.0);
        };
        ctrl = std::make_unique<core::FleetController>(sim, ccfg, 1, 1,
                                                       std::move(act));
        auto last_drops = std::make_shared<std::uint64_t>(0);
        const sim::Tick period = ccfg.tickPeriod;
        ctrl->setInputProvider([&door, &sim, last_drops, period] {
            const std::uint64_t drops = door.totals().drops();
            core::ControllerInput in;
            in.machine = 0;
            in.tenant = 0;
            in.t = sim.now();
            in.frontDoorDropRate =
                static_cast<double>(drops - *last_drops) /
                sim::toSeconds(period);
            *last_drops = drops;
            return std::vector<core::ControllerInput>{in};
        });
    }

    machine.start();
    gen.start();
    for (auto &s : storms)
        s->start();
    if (ctrl)
        ctrl->start();

    const sim::Tick horizon =
        cc.warmup + sim::seconds(1) + sim::milliseconds(500);
    sim.runUntil(horizon);

    LoopOutcome out;
    out.achievedRps = gen.achievedRps();
    out.p99Ns = gen.latencies().p99();
    out.qosViolated = gen.qosViolated();
    out.door = door.totals();
    for (const auto &s : storms)
        out.stormEstablished += s->established();
    if (ctrl) {
        out.ctrl = ctrl->stats();
        ctrl->stop();
    }
    for (auto &s : storms)
        s->stop();
    gen.stop();
    return out;
}

void
printLoopRow(const char *label, const LoopOutcome &o)
{
    std::printf("%-8s %9.1f %10.2f %6s %9llu %9llu %9llu %7llu\n", label,
                o.achievedRps, static_cast<double>(o.p99Ns) / 1e6,
                o.qosViolated ? "VIOL" : "held",
                static_cast<unsigned long long>(o.door.accepted),
                static_cast<unsigned long long>(o.door.drops()),
                static_cast<unsigned long long>(o.door.budgetDrops),
                static_cast<unsigned long long>(o.ctrl.budgetClamps));
}

void
partTwoClosedLoop()
{
    bench::printHeader("Saturating storm: open loop vs accept-budget "
                       "closed loop (data-caching @ 0.85 load)");
    std::printf("%-8s %9s %10s %6s %9s %9s %9s %7s\n", "loop", "achieved",
                "vict_p99ms", "qos", "accepted", "drops", "bgt_drops",
                "clamps");
    bench::dashRule();

    const LoopOutcome open = runLoop(false);
    printLoopRow("open", open);
    const LoopOutcome closed = runLoop(true);
    printLoopRow("closed", closed);

    check(open.qosViolated, "open loop: storm violates the victim's QoS");
    check(!closed.qosViolated, "closed loop: victim's QoS holds");
    check(closed.ctrl.budgetClamps >= 1,
          "controller clamped the accept budget at least once");
    check(closed.door.budgetDrops > 0,
          "clamp turned storm conns into pre-accept budget drops");
    check(closed.door.accepted < open.door.accepted,
          "closed loop accepts (and serves) fewer storm conns");
    const double verdict =
        (open.qosViolated && !closed.qosViolated) ? 1.0 : 0.0;
    g_json.add("storm-control", "open-violates+closed-holds", "verdict",
               verdict, "budgetClamps",
               static_cast<double>(closed.ctrl.budgetClamps));

    std::printf("\nExpected shape: open loop the four acceptor threads pin "
                "four of eight cores\nand the machine runs ~120%% committed "
                "for the whole storm, so the victim's\ntail collapses; "
                "closed loop "
                "the drop-rate signal trips the budget clamp within a\nfew "
                "ticks and the storm is turned away before it costs accept/"
                "serve CPU.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::jsonPathArg(argc, argv);
    partOneStormRank();
    partTwoClosedLoop();
    if (!json_path.empty())
        g_json.write(json_path);
    if (g_failures > 0) {
        std::printf("\n%d check(s) FAILED\n", g_failures);
        return 1;
    }
    std::printf("\nall checks passed\n");
    return 0;
}
