/**
 * @file
 * Host-side performance report for the simulator itself (not the
 * simulated metrics): eBPF engine throughput (reference interpreter vs
 * native kernels), event-queue throughput, and wall time per figure
 * sweep, serial vs parallel. Prints a human-readable report and writes
 * the same numbers as JSON (--json <path>, default BENCH_perf.json) so
 * regressions are diffable across commits.
 *
 * All numbers here are wall-clock host measurements; the *simulated*
 * outputs are bit-identical regardless of engine or thread count
 * (asserted by tests/ebpf_diff_test.cc and the sweep tests), so this
 * binary only answers "how fast", never "what value".
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "sim/logging.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"

namespace {

using namespace reqobs;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One engine's throughput on the Listing-1 duration probe pair. */
struct EngineRun
{
    double seconds = 0.0;
    double eventsPerSec = 0.0;
    double insnsPerSec = 0.0;
};

EngineRun
runListingOneProbe(ebpf::ExecEngine engine, std::uint64_t pairs)
{
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    ebpf::RuntimeConfig rc;
    rc.engine = engine;
    ebpf::EbpfRuntime rt(kernel, rc);
    const auto maps = ebpf::probes::createDurationMaps(rt, "perf");
    auto v1 = rt.loadAndAttach(
        ebpf::probes::buildDurationEnter(rt, 1000, 232, maps),
        kernel::TracepointId::SysEnter);
    auto v2 = rt.loadAndAttach(
        ebpf::probes::buildDurationExit(rt, 1000, 232, maps),
        kernel::TracepointId::SysExit);
    if (!v1 || !v2)
        sim::fatal("bench_perf: Listing-1 probe failed to load");

    kernel::RawSyscallEvent en;
    en.point = kernel::TracepointId::SysEnter;
    en.syscall = 232;
    en.pidTgid = kernel::makePidTgid(1000, 1);
    kernel::RawSyscallEvent ex = en;
    ex.point = kernel::TracepointId::SysExit;

    std::uint64_t ts = 1;
    // Warm up branch predictors and the map before timing.
    for (std::uint64_t i = 0; i < pairs / 20 + 1; ++i) {
        en.timestamp = static_cast<sim::Tick>(ts += 1000);
        kernel.tracepoints().fire(en);
        ex.timestamp = static_cast<sim::Tick>(ts += 700);
        kernel.tracepoints().fire(ex);
    }
    const std::uint64_t insns0 = rt.insnsInterpreted();
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < pairs; ++i) {
        en.timestamp = static_cast<sim::Tick>(ts += 1000);
        kernel.tracepoints().fire(en);
        ex.timestamp = static_cast<sim::Tick>(ts += 700);
        kernel.tracepoints().fire(ex);
    }
    EngineRun r;
    r.seconds = secondsSince(start);
    r.eventsPerSec = static_cast<double>(2 * pairs) / r.seconds;
    r.insnsPerSec =
        static_cast<double>(rt.insnsInterpreted() - insns0) / r.seconds;
    return r;
}

/** Schedule-and-run throughput with @p outstanding events in flight. */
double
eventQueueThroughput(std::uint64_t total, std::uint64_t outstanding,
                     bool cancel_half)
{
    sim::Simulation sim(1);
    std::uint64_t fired = 0;
    const auto start = Clock::now();
    std::uint64_t scheduled = 0;
    while (scheduled < total) {
        std::vector<sim::EventId> ids;
        ids.reserve(outstanding);
        for (std::uint64_t i = 0; i < outstanding && scheduled < total;
             ++i, ++scheduled) {
            ids.push_back(sim.schedule(static_cast<sim::Tick>(i + 1),
                                       [&fired] { ++fired; }));
        }
        if (cancel_half) {
            for (std::size_t i = 0; i < ids.size(); i += 2)
                ids[i].cancel();
        }
        sim.runFor(static_cast<sim::Tick>(outstanding + 1));
    }
    return static_cast<double>(scheduled) / secondsSince(start);
}

/** The sweep workload behind each sweep-based figure bench. */
double
figureSweepSeconds(int fig, unsigned threads)
{
    const auto start = Clock::now();
    switch (fig) {
    case 2:
        for (const auto &wl : workload::paperWorkloads()) {
            core::ExperimentConfig base = bench::benchConfig(wl);
            core::runSweepParallel(base,
                                   {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                    0.9, 1.0},
                                   bench::benchScaling(), threads);
        }
        break;
    case 3:
        for (const auto &wl : workload::paperWorkloads()) {
            core::ExperimentConfig base = bench::benchConfig(wl);
            core::runSweepParallel(base, bench::kneeFractions(),
                                   bench::benchScaling(), threads);
        }
        break;
    case 4:
        for (const auto &wl : workload::paperWorkloads()) {
            core::ExperimentConfig base = bench::benchConfig(wl);
            core::runSweepParallel(base,
                                   {0.30, 0.50, 0.65, 0.80, 0.90, 0.95,
                                    1.00, 1.10, 1.20, 1.30},
                                   bench::benchScaling(), threads);
        }
        break;
    case 5: {
        const auto wl = workload::workloadByName("triton-grpc");
        net::NetemConfig lossy;
        lossy.lossProbability = 0.01;
        for (const auto &netem : {net::NetemConfig{}, lossy}) {
            core::ExperimentConfig base = bench::benchConfig(wl);
            base.netem = netem;
            core::runSweepParallel(base, {0.3, 0.5, 0.7, 0.9, 1.0},
                                   bench::benchScaling(), threads);
        }
        break;
    }
    default:
        sim::fatal("bench_perf: unknown figure %d", fig);
    }
    return secondsSince(start);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_perf.json";
    double min_speedup = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc)
            min_speedup = std::atof(argv[++i]);
    }

    // hardware_concurrency() may legitimately return 0 ("not
    // computable") and is 1 in single-core containers; either way the
    // sweeps below still run, they just can't demonstrate parallel
    // speedup. Record both the raw detection and what the harness will
    // actually use so the JSON is honest about the environment.
    const unsigned cores_detected = std::thread::hardware_concurrency();
    const unsigned cores = cores_detected == 0 ? 1 : cores_detected;
    const unsigned effective_jobs = core::effectiveParallelJobs(
        workload::paperWorkloads().size() * 10);
    bench::printHeader("Host-side performance (wall clock)");
    std::printf("host cores: %u (detected %u), parallel jobs: %u\n", cores,
                cores_detected, effective_jobs);

    // --- eBPF execution engines on the Listing-1 probe pair ---
    const std::uint64_t kPairs = 500000;
    const EngineRun ref =
        runListingOneProbe(ebpf::ExecEngine::Reference, kPairs);
    const EngineRun nat =
        runListingOneProbe(ebpf::ExecEngine::Native, kPairs);
    const double native_speedup = nat.eventsPerSec / ref.eventsPerSec;
    std::printf("\neBPF Listing-1 probe pair (%llu enter/exit pairs)\n",
                (unsigned long long)kPairs);
    std::printf("  %-22s %12s %14s\n", "engine", "events/s", "insns/s");
    std::printf("  %-22s %12.0f %14.0f\n", "reference interpreter",
                ref.eventsPerSec, ref.insnsPerSec);
    std::printf("  %-22s %12.0f %14.0f\n", "native kernels",
                nat.eventsPerSec, nat.insnsPerSec);
    std::printf("  native speedup: %.2fx\n", native_speedup);

    // --- event queue ---
    const std::uint64_t kEvents = 2000000;
    const double eq_run = eventQueueThroughput(kEvents, 1024, false);
    const double eq_cancel = eventQueueThroughput(kEvents, 1024, true);
    std::printf("\nevent queue (1024 outstanding)\n");
    std::printf("  schedule+run:        %12.0f events/s\n", eq_run);
    std::printf("  with half cancelled: %12.0f events/s\n", eq_cancel);

    // --- figure sweeps, serial vs parallel ---
    // fig1 reproduces a single traced request timeline, not a load
    // sweep, so it has no sweep to parallelize and is excluded here.
    std::printf("\nfigure sweeps, wall seconds (fig1 is not sweep-based)\n");
    std::printf("  %-6s %10s %10s %9s\n", "figure", "serial", "parallel",
                "speedup");
    double serial_s[6] = {0};
    double parallel_s[6] = {0};
    for (int fig : {2, 3, 4, 5}) {
        serial_s[fig] = figureSweepSeconds(fig, 1);
        parallel_s[fig] = figureSweepSeconds(fig, 0);
        std::printf("  fig%-3d %10.2f %10.2f %8.2fx\n", fig, serial_s[fig],
                    parallel_s[fig], serial_s[fig] / parallel_s[fig]);
    }

    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_perf: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"host_cores\": %u,\n", cores);
    std::fprintf(f, "  \"host_cores_detected\": %u,\n", cores_detected);
    std::fprintf(f, "  \"effective_jobs\": %u,\n", effective_jobs);
    std::fprintf(f, "  \"ebpf_listing1_probe\": {\n");
    std::fprintf(f, "    \"pairs\": %llu,\n", (unsigned long long)kPairs);
    std::fprintf(f,
                 "    \"reference\": {\"events_per_sec\": %.0f, "
                 "\"insns_per_sec\": %.0f},\n",
                 ref.eventsPerSec, ref.insnsPerSec);
    std::fprintf(f,
                 "    \"native\": {\"events_per_sec\": %.0f, "
                 "\"insns_per_sec\": %.0f},\n",
                 nat.eventsPerSec, nat.insnsPerSec);
    std::fprintf(f, "    \"native_speedup\": %.3f\n  },\n", native_speedup);
    std::fprintf(f, "  \"event_queue\": {\n");
    std::fprintf(f, "    \"schedule_run_per_sec\": %.0f,\n", eq_run);
    std::fprintf(f, "    \"half_cancelled_per_sec\": %.0f\n  },\n",
                 eq_cancel);
    std::fprintf(f, "  \"figure_sweeps_wall_seconds\": {\n");
    bool first = true;
    for (int fig : {2, 3, 4, 5}) {
        std::fprintf(f,
                     "%s    \"fig%d\": {\"serial\": %.3f, \"parallel\": "
                     "%.3f, \"speedup\": %.3f}",
                     first ? "" : ",\n", fig, serial_s[fig],
                     parallel_s[fig], serial_s[fig] / parallel_s[fig]);
        first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());

    // Perf floor gate for CI: the native engine exists to beat the
    // reference interpreter by an order of magnitude on this exact
    // probe pair; a regression below the floor fails the run visibly.
    if (min_speedup > 0.0 && native_speedup < min_speedup) {
        std::fprintf(stderr,
                     "bench_perf: FAIL native speedup %.2fx below floor "
                     "%.2fx\n",
                     native_speedup, min_speedup);
        return 1;
    }
    return 0;
}
