/**
 * @file
 * End-to-end simulator benchmark: simulated syscalls per host second
 * over whole experiments, on one of four workloads, plus an outside-in
 * per-layer trace. See README.md in this directory.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scale F] [--commit ID] [--source-digest HEX]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones. The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Host times are rescaled to a reference host speed (speed_probe.hh),
 * and each experiment counts with its fastest repetition in the run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "ebpf/runtime.hh"
#include "speed_probe.hh"
#include "stack.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seedSet = false;
    double seconds = 10.0;
    int trace = 0;
    double scale = 1.0;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scale F] [--commit ID] "
                 "[--source-digest HEX]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *v = argv[++i];
        if (key == "--workload") {
            a.workload = v;
        } else if (key == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
            a.seedSet = true;
        } else if (key == "--seconds") {
            a.seconds = std::atof(v);
        } else if (key == "--trace") {
            a.trace = std::atoi(v);
        } else if (key == "--scale") {
            a.scale = std::atof(v);
        } else if (key == "--commit") {
            a.commit = v;
        } else if (key == "--source-digest") {
            a.sourceDigest = v;
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.seconds <= 0.0 || a.scale <= 0.0 || (a.trace != 0 && a.trace != 1))
        usage("bad --seconds, --scale or --trace");
    return a;
}

/**
 * Each of these silently changes what is measured (probe engine,
 * scheduler model, worker threads), so a run under any of them would
 * not be comparable with another.
 */
void
refuseOverrides()
{
    for (const char *name :
         {"REQOBS_ENGINE", "REQOBS_SCHED", "REQOBS_JOBS", "REQOBS_THREADS"}) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set: it changes "
                         "what is measured; unset it\n",
                         name);
            std::exit(2);
        }
    }
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const char *
engineName(reqobs::ebpf::ExecEngine e)
{
    switch (e) {
    case reqobs::ebpf::ExecEngine::Reference:
        return "reference";
    case reqobs::ebpf::ExecEngine::Native:
        return "native";
    case reqobs::ebpf::ExecEngine::Translated:
        break;
    }
    return "translated";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printReport(const std::vector<Metric> &metrics, bool correct,
            std::uint64_t attempted, std::uint64_t failed)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** Harness outputs of one pass over the workload, with its host time. */
struct Pass
{
    std::vector<Outputs> outputs;
    std::vector<Interval> runs; ///< per experiment
    Interval whole;
    std::uint64_t syscalls = 0;
};

Pass
harnessPass(const Workload &w, const SpeedProbe &probe)
{
    Pass p;
    const SpeedSample s0 = probe.now();
    SpeedSample at = s0;
    for (const Experiment &e : w.experiments) {
        p.outputs.push_back(runHarness(e));
        const SpeedSample next = probe.now();
        p.runs.push_back(between(at, next));
        at = next;
    }
    p.whole = between(s0, at);
    for (const Outputs &o : p.outputs)
        p.syscalls += o.syscalls;
    return p;
}

/**
 * Experiment @p i of @p pass in reference-speed seconds: rescaled by the
 * probe readings taken during it, or by the whole pass's when it was
 * too short to collect a few.
 */
double
referenceSeconds(const Pass &pass, std::size_t i)
{
    constexpr std::uint64_t kMinReadings = 5;
    const Interval &run = pass.runs[i];
    return atReferenceSpeed(run.workSeconds, run.runs >= kMinReadings
                                                 ? run.kernelNs
                                                 : pass.whole.kernelNs);
}

/** Peak resident set of this process image, in MiB (VmHWM). */
double
peakRssMb()
{
    // Not getrusage(): its maxrss survives exec, so a child of a larger
    // parent (python, say) would report the parent's footprint.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb / 1024.0;
}

std::uint64_t
workloadDigest(const std::vector<Outputs> &outputs)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const Outputs &o : outputs)
        h = fold(h, digest(o));
    return h;
}

/**
 * Self-check every experiment of @p pass; an experiment whose digest
 * differs from @p reference (the first pass) fails too, since the
 * simulator is deterministic. Prints each failure.
 */
std::uint64_t
countFailures(const Pass &pass, const Pass &reference)
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < pass.outputs.size(); ++i) {
        std::string why = selfCheck(pass.outputs[i]);
        if (why.empty() &&
            digest(pass.outputs[i]) != digest(reference.outputs[i]))
            why = "outputs differ from the first pass";
        if (!why.empty()) {
            ++failed;
            std::printf("self-check FAILED: experiment %zu: %s\n", i,
                        why.c_str());
        }
    }
    return failed;
}

void
printManifest(const Args &a, const Workload &w, std::uint64_t loaded,
              std::uint64_t native)
{
    std::printf(
        "manifest: {\"workload\": \"%s\", \"commit\": \"%s\", "
        "\"source_digest\": \"%s\", \"build_type\": \"%s\", "
        "\"compiler\": \"%s\", \"host_cores\": %u, \"seed\": %llu, "
        "\"scale\": %g, \"sched\": \"%s\", \"engine_default\": \"%s\", "
        "\"native_programs\": %llu, \"loaded_programs\": %llu, "
        "\"native_share\": %.4f, \"comparable\": true}\n",
        w.name.c_str(), a.commit.c_str(), a.sourceDigest.c_str(),
        PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
        std::thread::hardware_concurrency(),
        static_cast<unsigned long long>(w.seed), a.scale,
        w.sched == reqobs::kernel::SchedModel::Discrete ? "discrete" : "gps",
        engineName(reqobs::ebpf::defaultExecEngine()),
        static_cast<unsigned long long>(native),
        static_cast<unsigned long long>(loaded),
        ratio(static_cast<double>(native), static_cast<double>(loaded)));
}

/**
 * Set-up time samples: build-only passes, each rescaled by a speed
 * reading taken just before it. Sampled in short bursts spread over the
 * whole run, so that one slow phase of the host does not set the median.
 */
struct SetupSampler
{
    std::vector<double> totals; ///< reference-speed seconds per pass
    std::uint64_t loaded = 0;   ///< programs the agents loaded
    std::uint64_t native = 0;   ///< of which compiled native

    /** Build-only passes for about @p seconds (at least one). */
    void
    sample(const Workload &w, double seconds)
    {
        const auto t0 = Clock::now();
        do {
            const double speed = kernelNsNow();
            double ns = 0.0;
            loaded = native = 0;
            for (const Experiment &e : w.experiments) {
                const BuildOnly b = buildOnly(e);
                ns += b.spans.totalNs();
                loaded += b.loadedPrograms;
                native += b.nativePrograms;
            }
            totals.push_back(atReferenceSpeed(ns * 1e-9, speed));
        } while (secondsSince(t0) < seconds);
    }
};

/** Median over (experiment, tenant) of |Eq. 1 - achieved| / achieved. */
double
rpsErrPct(const Pass &pass)
{
    std::vector<double> errors;
    for (const Outputs &o : pass.outputs)
        appendRpsErrors(o, errors);
    return median(errors);
}

void
printFailedFrac(std::uint64_t failed, std::uint64_t attempted)
{
    std::printf("failed_frac %.6f (%llu of %llu experiments failed a "
                "self-check)\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
}

int
runEndToEnd(const Args &a, const Workload &w)
{
    SetupSampler setup;
    setup.sample(w, 0.5);
    printManifest(a, w, setup.loaded, setup.native);

    // Whole passes until the time is up; at least three, so the first
    // (cold caches, allocator growth) can be left out. Set-up bursts
    // take about 5% of the time in between.
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    while (passes.size() < 3 || secondsSince(t0) < a.seconds) {
        {
            const SpeedProbe probe;
            passes.push_back(harnessPass(w, probe));
        }
        setup.sample(w, 0.05 * passes.back().whole.workSeconds);
    }

    std::uint64_t failed = 0, attempted = 0;
    for (const Pass &p : passes) {
        failed += countFailures(p, passes[0]);
        attempted += p.outputs.size();
    }
    // Host noise only ever slows a run down, so each experiment counts
    // with its fastest repetition (the first pass, cold, left out).
    double best_s = 0.0, raw_s = 0.0;
    std::vector<double> kernel_ns;
    for (std::size_t i = 0; i < w.experiments.size(); ++i) {
        double best = referenceSeconds(passes[1], i);
        double raw = passes[1].runs[i].workSeconds;
        for (std::size_t p = 2; p < passes.size(); ++p) {
            best = std::min(best, referenceSeconds(passes[p], i));
            raw = std::min(raw, passes[p].runs[i].workSeconds);
        }
        best_s += best;
        raw_s += raw;
    }
    for (std::size_t p = 1; p < passes.size(); ++p)
        kernel_ns.push_back(passes[p].whole.kernelNs);
    const double syscalls = static_cast<double>(passes[0].syscalls);

    std::printf("workload %s: %zu experiments, %llu simulated syscalls per "
                "pass, %zu passes, digest %016llx\n",
                w.name.c_str(), w.experiments.size(),
                static_cast<unsigned long long>(passes[0].syscalls),
                passes.size(),
                static_cast<unsigned long long>(
                    workloadDigest(passes[0].outputs)));
    printFailedFrac(failed, attempted);
    std::printf("host speed: probe kernel %.0f ns (reference %.0f ns); "
                "unscaled rate %.1f syscalls/s\n",
                median(kernel_ns), kReferenceNs, syscalls / raw_s);
    // Simulated, so fixed by the seed but spread widely across seeds:
    // reported here and in the trace, not as a bounded metric.
    std::printf("rps_err_pct %.6f %% (median Eq. 1 error over experiments "
                "and tenants)\n",
                rpsErrPct(passes[0]));

    const std::vector<Metric> metrics = {
        {"sim_syscalls_per_s", syscalls / best_s, "1/s"},
        {"setup_s", median(setup.totals), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    printReport(metrics, failed == 0, attempted, failed);
    return 0;
}

int
runTrace(const Args &a, const Workload &w)
{
    // Pairs of (untraced harness pass, traced mirror pass) until the
    // time is up; at least one pair.
    std::vector<Pass> passes;
    std::vector<std::vector<Outputs>> mirrored;
    LayerTrace trace;
    double traced_s = 0.0;
    {
        const SpeedProbe probe;
        const auto t0 = Clock::now();
        do {
            passes.push_back(harnessPass(w, probe));
            const SpeedSample s0 = probe.now();
            std::vector<Outputs> outs;
            for (const Experiment &e : w.experiments)
                outs.push_back(runTraced(e, trace));
            const Interval iv = between(s0, probe.now());
            traced_s += atReferenceSpeed(iv.workSeconds, iv.kernelNs);
            mirrored.push_back(std::move(outs));
        } while (secondsSince(t0) < a.seconds);
    }

    // The traced stack must reproduce the harness exactly; if it does
    // not, the per-layer figures describe some other run and are marked
    // invalid (the harness's own self-checks are unaffected).
    bool valid = true;
    for (std::size_t p = 0; p < passes.size(); ++p)
        for (std::size_t i = 0; i < w.experiments.size(); ++i)
            if (digest(passes[p].outputs[i]) != digest(mirrored[p][i])) {
                valid = false;
                std::printf("trace mirror MISMATCH: pass %zu experiment "
                            "%zu\n",
                            p, i);
            }

    std::uint64_t failed = 0, attempted = 0;
    double untraced_s = 0.0;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        // Cluster results do not export loss counters; the mirror's
        // stand in when it reproduced the run.
        if (valid)
            for (std::size_t i = 0; i < passes[p].outputs.size(); ++i)
                if (!passes[p].outputs[i].lossCounted) {
                    Outputs &o = passes[p].outputs[i];
                    o.lossCounted = true;
                    o.mapUpdateFails = mirrored[p][i].mapUpdateFails;
                    o.ringbufDrops = mirrored[p][i].ringbufDrops;
                }
        failed += countFailures(passes[p], passes[0]);
        attempted += passes[p].outputs.size();
        untraced_s += atReferenceSpeed(passes[p].whole.workSeconds,
                                       passes[p].whole.kernelNs);
    }

    printManifest(a, w, trace.loadedPrograms / passes.size(),
                  trace.nativePrograms / passes.size());
    std::printf("workload %s: %zu experiments, %zu traced passes, digest "
                "%016llx, trace %s\n",
                w.name.c_str(), w.experiments.size(), passes.size(),
                static_cast<unsigned long long>(
                    workloadDigest(passes[0].outputs)),
                valid ? "valid (mirror reproduces the harness exactly)"
                      : "INVALID (mirror differs from the harness)");
    printFailedFrac(failed, attempted);

    // Per pass: counts are exact (every pass is identical), host times
    // are means over the traced passes.
    const double n = static_cast<double>(passes.size());
    auto per = [n](double v) { return v / n; };
    auto count = [n](std::uint64_t v) { return static_cast<double>(v) / n; };
    const double sim_self = trace.runSpanNs - trace.probeNs;

    const std::vector<Metric> metrics = {
        {"sim.events", count(trace.events), "count"},
        {"sim.ns_per_event", ratio(sim_self, trace.events), "ns"},
        {"kernel.syscalls", count(trace.syscalls), "count"},
        {"kernel.events_per_syscall",
         ratio(static_cast<double>(trace.events),
               static_cast<double>(trace.syscalls)),
         "events/syscall"},
        {"kernel.cpu_jobs", count(trace.cpuJobs), "count"},
        {"kernel.cpu_active_mean",
         ratio(trace.activeSum, static_cast<double>(trace.activeSamples)),
         "jobs"},
        {"kernel.cpu_active_max", static_cast<double>(trace.activeMax),
         "jobs"},
        {"kernel.cpu_dispatches", count(trace.cpuDispatches), "count"},
        {"kernel.cpu_preemptions", count(trace.cpuPreemptions), "count"},
        {"kernel.cpu_event_ns",
         ratio(trace.cpuEventSelfNs, static_cast<double>(trace.cpuEvents)),
         "ns"},
        {"kernel.cpu_event_share",
         ratio(trace.cpuEventSelfNs, trace.eventSelfNs), "ratio"},
        {"ebpf.fires", count(trace.fires), "count"},
        {"ebpf.runs", count(trace.probeRuns), "count"},
        {"ebpf.insns", count(trace.probeInsns), "count"},
        {"ebpf.sim_cost_ms", per(trace.probeSimCostNs) * 1e-6, "ms"},
        {"ebpf.self_s", per(trace.probeNs) * 1e-9, "s"},
        {"ebpf.ns_per_fire",
         ratio(trace.probeNs, static_cast<double>(trace.fires)), "ns"},
        {"ebpf.share", ratio(trace.probeNs, trace.runSpanNs), "ratio"},
        {"ebpf.native_share",
         ratio(static_cast<double>(trace.nativePrograms),
               static_cast<double>(trace.loadedPrograms)),
         "ratio"},
        {"ebpf.native_programs", count(trace.nativePrograms), "count"},
        {"ebpf.loaded_programs", count(trace.loadedPrograms), "count"},
        {"ebpf.attach_ms", per(trace.setup.agentNs) * 1e-6, "ms"},
        {"ebpf.map_update_fails", count(trace.mapUpdateFails), "count"},
        {"ebpf.ringbuf_drops", count(trace.ringbufDrops), "count"},
        {"net.door_syns", count(trace.doorSyns), "count"},
        {"net.door_accepted", count(trace.doorAccepted), "count"},
        {"net.door_drops", count(trace.doorDrops), "count"},
        {"net.door_retransmits", count(trace.doorRetransmits), "count"},
        {"client.sent", count(trace.clientSent), "count"},
        {"client.completed", count(trace.clientCompleted), "count"},
        {"client.storm_failed_ratio",
         ratio(static_cast<double>(trace.stormFailed),
               static_cast<double>(trace.stormAttempted)),
         "ratio"},
        {"client.setup_ms", per(trace.setup.clientNs) * 1e-6, "ms"},
        {"workload.stalls", count(trace.stalls), "count"},
        {"workload.setup_ms", per(trace.setup.workloadNs) * 1e-6, "ms"},
        {"core.samples", count(trace.samples), "count"},
        {"core.degraded_samples", count(trace.degradedSamples), "count"},
        {"core.rps_err_pct", rpsErrPct(passes[0]), "%"},
        {"trace.overhead", ratio(traced_s, untraced_s), "ratio"},
        {"trace.span_coverage", ratio(trace.eventSpanNs, trace.runSpanNs),
         "ratio"},
        {"trace.valid", valid ? 1.0 : 0.0, "flag"},
    };
    printReport(metrics, failed == 0, attempted, failed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    refuseOverrides();

    Workload w;
    const std::uint64_t seed =
        args.seedSet ? args.seed : defaultSeed(args.workload);
    if (!makeWorkload(args.workload, seed, args.scale, w))
        usage(("unknown workload " + args.workload).c_str());

    return args.trace ? runTrace(args, w) : runEndToEnd(args, w);
}
