/**
 * @file
 * Scale proof for scalar tracepoint dispatch: drive one simulated
 * machine past 10^7 syscalls/sec of wall-clock event processing with
 * the full multi-tenant probe set attached (tenant duration pair,
 * tenant send/recv delta, heavy-hitter sketch). Every syscall fires
 * sys_enter and sys_exit once each through TracepointRegistry::fire,
 * the path every experiment takes. The native row runs for at least
 * one second of wall time; the reference-interpreter row runs a shorter
 * storm, which the native engine replays and must match on every
 * probe-visible output.
 *
 * Like bench_perf, every number here is a host wall-clock measurement;
 * the simulated outputs are engine-invariant (asserted inline below and
 * in tests/ebpf_diff_test.cc).
 *
 * Flags: --json <path> (default BENCH_scale.json), --floor <syscalls/s>
 * (exit 1 if the native row misses the floor), --syscalls <n> (minimum
 * native storm size, default 12M).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "ebpf/maps.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace {

using namespace reqobs;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// x86-64 syscall numbers, matching the probe library's vocabulary.
constexpr std::int64_t kSendto = 44;
constexpr std::int64_t kRecvfrom = 45;
constexpr std::int64_t kEpollWait = 232;
constexpr std::int64_t kWrite = 1;

constexpr std::uint32_t kTenants = 4;

/** Syscalls per storm round (the timestamp columns' length). */
constexpr std::size_t kRound = 4096;

/** One machine: sim + kernel + runtime with the tenant probe set. */
struct Rig
{
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<kernel::Kernel> kernel;
    std::unique_ptr<ebpf::EbpfRuntime> rt;
    ebpf::probes::DurationMaps dur;
    ebpf::probes::DeltaMaps delta;
    int sketchFd = -1;
};

Rig
makeTenantRig(ebpf::ExecEngine engine)
{
    Rig r;
    r.sim = std::make_unique<sim::Simulation>(1);
    r.kernel = std::make_unique<kernel::Kernel>(*r.sim);
    ebpf::RuntimeConfig rc;
    rc.engine = engine;
    r.rt = std::make_unique<ebpf::EbpfRuntime>(*r.kernel, rc);

    ebpf::probes::TenantSet ts;
    ts.tgids = {1000, 2000, 3000, 4000};
    ts.pollSyscalls = {kEpollWait, kEpollWait, kEpollWait, kEpollWait};
    const std::vector<std::int64_t> family{kSendto, kRecvfrom};

    r.dur = ebpf::probes::createTenantDurationMaps(*r.rt, kTenants,
                                                   "scale.dur");
    r.delta = ebpf::probes::createTenantDeltaMaps(*r.rt, kTenants,
                                                  "scale.delta");
    r.sketchFd = ebpf::probes::createTenantSketchMap(*r.rt, 4, 64, "scale");

    const auto v1 = r.rt->loadAndAttach(
        ebpf::probes::buildTenantDurationEnter(*r.rt, ts, r.dur),
        kernel::TracepointId::SysEnter);
    const auto v2 = r.rt->loadAndAttach(
        ebpf::probes::buildTenantDurationExit(*r.rt, ts, r.dur),
        kernel::TracepointId::SysExit);
    const auto v3 = r.rt->loadAndAttach(
        ebpf::probes::buildTenantDeltaExit(*r.rt, ts, family, r.delta),
        kernel::TracepointId::SysExit);
    const auto v4 = r.rt->loadAndAttach(
        ebpf::probes::buildTenantHeavyHitter(*r.rt, ts, family, r.sketchFd),
        kernel::TracepointId::SysExit);
    if (!v1 || !v2 || !v3 || !v4)
        sim::fatal("bench_scale: tenant probe set failed to load");
    return r;
}

/**
 * Precomputed storm columns: 2/3 of events from the four monitored
 * tenants, 1/3 background noise from unmonitored tgids, syscall mix
 * rotating send/recv/poll/write across 8 threads per process. Only the
 * timestamp columns are rewritten per round.
 */
struct Storm
{
    std::vector<std::int64_t> sys, rets;
    std::vector<kernel::PidTgid> pids;
    std::vector<sim::Tick> enterTs, exitTs;

    std::size_t size() const { return sys.size(); }
};

Storm
makeStorm(std::size_t n)
{
    static constexpr std::uint32_t kTgids[6] = {1000, 2000, 9000,
                                                3000, 4000, 9001};
    static constexpr std::int64_t kSys[4] = {kSendto, kRecvfrom, kEpollWait,
                                             kWrite};
    Storm s;
    s.sys.resize(n);
    s.rets.resize(n);
    s.pids.resize(n);
    s.enterTs.resize(n);
    s.exitTs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t tgid = kTgids[i % 6];
        const std::uint32_t tid =
            tgid + 1 + static_cast<std::uint32_t>((i / 6) % 8);
        s.pids[i] = kernel::makePidTgid(tgid, tid);
        s.sys[i] = kSys[i % 4];
        s.rets[i] = 64;
    }
    return s;
}

/** Rewrite the timestamp columns for the round starting at @p base. */
void
stampRound(Storm &s, sim::Tick base)
{
    const std::size_t n = s.size();
    for (std::size_t i = 0; i < n; ++i)
        s.enterTs[i] = base + static_cast<sim::Tick>(i) * 200;
    const sim::Tick exit_base = base + static_cast<sim::Tick>(n) * 200 + 700;
    for (std::size_t i = 0; i < n; ++i)
        s.exitTs[i] = exit_base + static_cast<sim::Tick>(i) * 200;
}

/**
 * Fire one storm round starting at @p base: every sys_enter, then every
 * sys_exit, one fire() per event. @return the next round's base.
 */
sim::Tick
runRound(Rig &r, Storm &s, sim::Tick base)
{
    stampRound(s, base);
    kernel::TracepointRegistry &tp = r.kernel->tracepoints();
    kernel::RawSyscallEvent ev;
    ev.point = kernel::TracepointId::SysEnter;
    for (std::size_t i = 0; i < s.size(); ++i) {
        ev.syscall = s.sys[i];
        ev.pidTgid = s.pids[i];
        ev.timestamp = s.enterTs[i];
        tp.fire(ev);
    }
    ev.point = kernel::TracepointId::SysExit;
    for (std::size_t i = 0; i < s.size(); ++i) {
        ev.syscall = s.sys[i];
        ev.ret = s.rets[i];
        ev.pidTgid = s.pids[i];
        ev.timestamp = s.exitTs[i];
        tp.fire(ev);
    }
    return base + static_cast<sim::Tick>(2 * s.size()) * 200 + 1400;
}

/** Every probe-visible output of a tenant rig, for equivalence checks. */
struct Fingerprint
{
    std::uint64_t events = 0;
    std::uint64_t insns = 0;
    std::int64_t cost = 0;
    std::uint64_t mapFails = 0;
    std::uint64_t drops = 0;
    std::vector<ebpf::probes::SyscallStats> durStats, deltaStats;
    std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>> top;

    bool operator==(const Fingerprint &o) const
    {
        auto statsEq = [](const std::vector<ebpf::probes::SyscallStats> &a,
                          const std::vector<ebpf::probes::SyscallStats> &b) {
            if (a.size() != b.size())
                return false;
            return a.empty() ||
                   std::memcmp(a.data(), b.data(),
                               a.size() *
                                   sizeof(ebpf::probes::SyscallStats)) == 0;
        };
        return events == o.events && insns == o.insns && cost == o.cost &&
               mapFails == o.mapFails && drops == o.drops &&
               statsEq(durStats, o.durStats) &&
               statsEq(deltaStats, o.deltaStats) && top == o.top;
    }
};

Fingerprint
fingerprint(const Rig &r)
{
    Fingerprint f;
    f.events = r.rt->eventsProcessed();
    f.insns = r.rt->insnsInterpreted();
    f.cost = r.rt->totalProbeCost();
    f.mapFails = r.rt->mapUpdateFails();
    f.drops = r.rt->ringbufDrops();
    for (std::uint32_t slot = 0; slot < kTenants; ++slot) {
        f.durStats.push_back(
            r.rt->arrayAt(r.dur.statsFd)
                .at<ebpf::probes::SyscallStats>(slot));
        f.deltaStats.push_back(
            r.rt->arrayAt(r.delta.statsFd)
                .at<ebpf::probes::SyscallStats>(slot));
    }
    f.top = r.rt->sketchAt(r.sketchFd).topK(kTenants);
    return f;
}

/** One measured configuration for the report/JSON. */
struct Row
{
    std::string label;
    std::uint64_t syscalls = 0;
    double seconds = 0.0;
    double syscallsPerSec = 0.0;
    double probeEventsPerSec = 0.0;
};

/**
 * Run one warm-up round, then time rounds until at least @p syscalls
 * syscalls (rounded down to whole rounds, at least one) and
 * @p min_seconds of wall time have passed.
 */
Row
measure(const std::string &label, ebpf::ExecEngine engine,
        std::uint64_t syscalls, double min_seconds,
        Fingerprint *fp = nullptr)
{
    Rig r = makeTenantRig(engine);
    Storm s = makeStorm(kRound);
    const std::uint64_t min_rounds =
        std::max<std::uint64_t>(1, syscalls / kRound);
    // Warm caches, branch history, and the hash map's bucket layout.
    sim::Tick base = runRound(r, s, 1);
    const std::uint64_t events0 = r.rt->eventsProcessed();
    std::uint64_t rounds = 0;
    double secs = 0.0;
    const auto start = Clock::now();
    do {
        base = runRound(r, s, base);
        ++rounds;
        secs = secondsSince(start);
    } while (rounds < min_rounds || secs < min_seconds);
    Row row;
    row.label = label;
    row.syscalls = rounds * kRound;
    row.seconds = secs;
    row.syscallsPerSec = static_cast<double>(row.syscalls) / secs;
    row.probeEventsPerSec =
        static_cast<double>(r.rt->eventsProcessed() - events0) / secs;
    if (fp)
        *fp = fingerprint(r);
    return row;
}

void
printRow(const Row &r)
{
    std::printf("  %-28s %10.2fs %14.0f %14.0f\n", r.label.c_str(),
                r.seconds, r.syscallsPerSec, r.probeEventsPerSec);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_scale.json";
    double floor = 0.0;
    std::uint64_t headline_syscalls = 12000000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc)
            floor = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--syscalls") == 0 && i + 1 < argc)
            headline_syscalls = std::strtoull(argv[++i], nullptr, 10);
    }

    bench::printHeader("Scale: one machine under a syscall storm");
    std::printf("tenant probe set: duration pair + send/recv delta + "
                "heavy hitter (4 tenants); scalar fire() per event\n");
    std::printf("  %-28s %11s %14s %14s\n", "configuration", "wall",
                "syscalls/s", "probe ev/s");

    Fingerprint fp_ref, fp_nat;
    const Row ref = measure("reference interpreter",
                            ebpf::ExecEngine::Reference,
                            headline_syscalls / 12, 0.0, &fp_ref);
    printRow(ref);
    const Row nat = measure("native kernels", ebpf::ExecEngine::Native,
                            headline_syscalls, 1.0);
    printRow(nat);

    // The native engine replays the reference row's storm exactly.
    measure("native (reference storm)", ebpf::ExecEngine::Native,
            ref.syscalls, 0.0, &fp_nat);
    if (!(fp_ref == fp_nat))
        sim::fatal("bench_scale: reference/native outputs diverged");
    std::printf("  reference == native on every probe-visible output "
                "(counters, stats, sketch)\n");

    const unsigned host_cores = std::thread::hardware_concurrency();
    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_scale: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"round\": %zu,\n", kRound);
    auto emitRow = [f](const char *key, const Row &r) {
        std::fprintf(f,
                     "  \"%s\": {\"syscalls\": %llu, \"seconds\": %.3f, "
                     "\"syscalls_per_sec\": %.0f, "
                     "\"probe_events_per_sec\": %.0f},\n",
                     key, static_cast<unsigned long long>(r.syscalls),
                     r.seconds, r.syscallsPerSec, r.probeEventsPerSec);
    };
    emitRow("reference_scalar", ref);
    emitRow("native_scalar", nat);
    std::fprintf(f, "  \"host_cores\": %u\n", host_cores);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());

    if (floor > 0.0 && nat.syscallsPerSec < floor) {
        std::fprintf(stderr,
                     "bench_scale: FAIL %.0f syscalls/s below floor %.0f\n",
                     nat.syscallsPerSec, floor);
        return 1;
    }
    return 0;
}
