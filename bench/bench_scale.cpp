/**
 * @file
 * Scale proof for the native engine + batched pipeline: drive one
 * simulated machine past 10^7 syscalls/sec of wall-clock event
 * processing with the full multi-tenant probe set attached (tenant
 * duration pair, tenant send/recv delta, heavy-hitter sketch), then
 * run 1 to 16 independent storm rigs on as many host threads. Events
 * enter through Kernel::dispatchRawBatch as structure-of-arrays bursts
 * — the amortised path — with the scalar per-event path measured
 * alongside and checked byte-identical on every probe-visible output.
 *
 * Like bench_perf, every number here is a host wall-clock measurement;
 * the simulated outputs are engine- and batching-invariant (asserted
 * inline below and in tests/scale_test.cc).
 *
 * Flags: --json <path> (default BENCH_scale.json), --floor <ev/s>
 * (exit 1 if the headline machine misses the floor), --syscalls <n>
 * (headline storm size, default 12M).
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
makeTenantRig(ebpf::ExecEngine engine, std::uint32_t batch_cpus)
{
    Rig r;
    r.sim = std::make_unique<sim::Simulation>(1);
    r.kernel = std::make_unique<kernel::Kernel>(*r.sim);
    ebpf::RuntimeConfig rc;
    rc.engine = engine;
    rc.batchCpus = batch_cpus;
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
makeStorm(std::size_t batch)
{
    static constexpr std::uint32_t kTgids[6] = {1000, 2000, 9000,
                                                3000, 4000, 9001};
    static constexpr std::int64_t kSys[4] = {kSendto, kRecvfrom, kEpollWait,
                                             kWrite};
    Storm s;
    s.sys.resize(batch);
    s.rets.resize(batch);
    s.pids.resize(batch);
    s.enterTs.resize(batch);
    s.exitTs.resize(batch);
    for (std::size_t i = 0; i < batch; ++i) {
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

/** Ticks one round advances the clock (next round's base offset). */
sim::Tick
roundSpan(const Storm &s)
{
    return static_cast<sim::Tick>(2 * s.size()) * 200 + 1400;
}

/** Run @p rounds storm rounds through the batched path. */
double
runBatched(Rig &r, Storm &s, std::uint64_t rounds)
{
    kernel::RawSyscallBatch en;
    en.point = kernel::TracepointId::SysEnter;
    en.n = s.size();
    en.syscalls = s.sys.data();
    en.pidTgids = s.pids.data();
    en.timestamps = s.enterTs.data();
    kernel::RawSyscallBatch ex = en;
    ex.point = kernel::TracepointId::SysExit;
    ex.rets = s.rets.data();
    ex.timestamps = s.exitTs.data();

    sim::Tick base = 1;
    const auto start = Clock::now();
    for (std::uint64_t round = 0; round < rounds; ++round) {
        stampRound(s, base);
        r.kernel->dispatchRawBatch(en);
        r.kernel->dispatchRawBatch(ex);
        base += roundSpan(s);
    }
    return secondsSince(start);
}

/** Same storm, scalar per-event dispatch (the pre-batching path). */
double
runScalar(Rig &r, Storm &s, std::uint64_t rounds)
{
    sim::Tick base = 1;
    const auto start = Clock::now();
    for (std::uint64_t round = 0; round < rounds; ++round) {
        stampRound(s, base);
        kernel::RawSyscallEvent ev;
        ev.point = kernel::TracepointId::SysEnter;
        for (std::size_t i = 0; i < s.size(); ++i) {
            ev.syscall = s.sys[i];
            ev.pidTgid = s.pids[i];
            ev.timestamp = s.enterTs[i];
            r.kernel->tracepoints().fire(ev);
        }
        ev.point = kernel::TracepointId::SysExit;
        for (std::size_t i = 0; i < s.size(); ++i) {
            ev.syscall = s.sys[i];
            ev.ret = s.rets[i];
            ev.pidTgid = s.pids[i];
            ev.timestamp = s.exitTs[i];
            r.kernel->tracepoints().fire(ev);
        }
        base += roundSpan(s);
    }
    return secondsSince(start);
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

Row
measure(const std::string &label, ebpf::ExecEngine engine,
        std::uint64_t syscalls, std::size_t batch, bool batched,
        Fingerprint *fp = nullptr, std::uint32_t batch_cpus = 1)
{
    Rig r = makeTenantRig(engine, batch_cpus);
    Storm s = makeStorm(batch);
    const std::uint64_t rounds = std::max<std::uint64_t>(
        1, syscalls / batch);
    // Warm caches, branch history, and the hash map's bucket layout.
    (void)(batched ? runBatched(r, s, 1) : runScalar(r, s, 1));
    const std::uint64_t events0 = r.rt->eventsProcessed();
    const double secs =
        batched ? runBatched(r, s, rounds) : runScalar(r, s, rounds);
    Row row;
    row.label = label;
    row.syscalls = rounds * batch;
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

/**
 * Per-CPU sharding ablation: the plain Listing-1 duration pair with its
 * stats slab replaced by a PerCpuArrayMap, all events from one tenant
 * so every lane lands on the same slot — worst case for a shared
 * accumulator, best case for shards. Returns syscalls/sec and checks
 * the shard fold against the scalar total.
 */
double
perCpuAblation(std::uint32_t cpus, std::uint64_t syscalls,
               std::size_t batch, ebpf::probes::SyscallStats *folded)
{
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    ebpf::RuntimeConfig rc;
    rc.engine = ebpf::ExecEngine::Native;
    rc.batchCpus = cpus;
    ebpf::EbpfRuntime rt(kernel, rc);
    ebpf::probes::DurationMaps maps;
    maps.startFd = rt.createHashMap(sizeof(std::uint64_t),
                                    sizeof(std::uint64_t), 16384,
                                    "ablate.start");
    maps.statsFd = rt.createPerCpuArrayMap(
        sizeof(ebpf::probes::SyscallStats), 1, cpus, "ablate.stats");
    const auto v1 = rt.loadAndAttach(
        ebpf::probes::buildDurationEnter(rt, 1000, kEpollWait, maps),
        kernel::TracepointId::SysEnter);
    const auto v2 = rt.loadAndAttach(
        ebpf::probes::buildDurationExit(rt, 1000, kEpollWait, maps),
        kernel::TracepointId::SysExit);
    if (!v1 || !v2)
        sim::fatal("bench_scale: ablation probe failed to load");

    Storm s = makeStorm(batch);
    // One tenant, one syscall: every event takes the full probe path.
    for (std::size_t i = 0; i < batch; ++i) {
        s.pids[i] = kernel::makePidTgid(
            1000, 1001 + static_cast<std::uint32_t>(i % 32));
        s.sys[i] = kEpollWait;
    }

    kernel::RawSyscallBatch en;
    en.point = kernel::TracepointId::SysEnter;
    en.n = batch;
    en.syscalls = s.sys.data();
    en.pidTgids = s.pids.data();
    en.timestamps = s.enterTs.data();
    kernel::RawSyscallBatch ex = en;
    ex.point = kernel::TracepointId::SysExit;
    ex.rets = s.rets.data();
    ex.timestamps = s.exitTs.data();

    const std::uint64_t rounds =
        std::max<std::uint64_t>(1, syscalls / batch);
    sim::Tick base = 1;
    const auto start = Clock::now();
    for (std::uint64_t round = 0; round < rounds; ++round) {
        stampRound(s, base);
        kernel.dispatchRawBatch(en);
        kernel.dispatchRawBatch(ex);
        base += roundSpan(s);
    }
    const double secs = secondsSince(start);

    auto &stats = dynamic_cast<ebpf::PerCpuArrayMap &>(rt.mapAt(maps.statsFd));
    *folded = {};
    for (std::uint32_t cpu = 0; cpu < stats.cpus(); ++cpu) {
        const auto shard =
            stats.shardAt<ebpf::probes::SyscallStats>(cpu, 0);
        folded->count += shard.count;
        folded->sumNs += shard.sumNs;
        folded->sumSqQ += shard.sumSqQ;
    }
    return static_cast<double>(rounds * batch) / secs;
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
    constexpr std::size_t kBatch = 4096;

    bench::printHeader("Scale: one machine under a batched syscall storm");
    std::printf("tenant probe set: duration pair + send/recv delta + "
                "heavy hitter (4 tenants)\n");
    std::printf("  %-28s %11s %14s %14s\n", "configuration", "wall",
                "syscalls/s", "probe ev/s");

    // --- engine ladder, batched pipeline ---
    const Row ref = measure("reference + batch",
                            ebpf::ExecEngine::Reference,
                            headline_syscalls / 12, kBatch, true);
    printRow(ref);
    const Row nat = measure("native + batch", ebpf::ExecEngine::Native,
                            headline_syscalls, kBatch, true);
    printRow(nat);

    // --- batch vs scalar on the native engine, equivalence-checked ---
    Fingerprint fp_scalar, fp_batch;
    const Row nat_scalar =
        measure("native + scalar dispatch", ebpf::ExecEngine::Native,
                headline_syscalls / 4, kBatch, false, &fp_scalar);
    printRow(nat_scalar);
    const Row nat_same =
        measure("native + batch (same storm)", ebpf::ExecEngine::Native,
                headline_syscalls / 4, kBatch, true, &fp_batch);
    printRow(nat_same);
    if (!(fp_scalar == fp_batch))
        sim::fatal("bench_scale: batch/scalar outputs diverged");
    std::printf("  batch == scalar on every probe-visible output "
                "(counters, stats, sketch)\n");

    // --- per-CPU shard ablation ---
    ebpf::probes::SyscallStats fold1, fold4;
    const double shard1 =
        perCpuAblation(1, headline_syscalls / 4, kBatch, &fold1);
    const double shard4 =
        perCpuAblation(4, headline_syscalls / 4, kBatch, &fold4);
    if (fold1.count != fold4.count || fold1.sumNs != fold4.sumNs ||
        fold1.sumSqQ != fold4.sumSqQ)
        sim::fatal("bench_scale: per-CPU shard fold diverged");
    std::printf("\nper-CPU stats sharding (Listing-1 pair, every event "
                "hits slot 0)\n");
    std::printf("  %-28s %14.0f syscalls/s\n", "1 shard", shard1);
    std::printf("  %-28s %14.0f syscalls/s (fold == 1-shard totals)\n",
                "4 shards", shard4);

    // --- raw-storm thread sweep: M independent rigs, one OS thread
    // each. This measures host event-processing capacity only — every
    // rig is an isolated storm with no cluster harness, and on hosts
    // with fewer cores than machines the aggregate line is flat by
    // construction. ---
    const unsigned host_cores = std::thread::hardware_concurrency();
    std::printf("\nraw-storm thread sweep (host capacity, NOT cluster "
                "scaling; %llu syscalls per machine; host cores: %u)\n",
                static_cast<unsigned long long>(headline_syscalls / 8),
                host_cores);
    std::printf("  %-10s %-16s %12s %16s\n", "machines", "engine",
                "wall secs", "agg syscalls/s");
    std::vector<std::pair<unsigned, double>> cluster;
    for (unsigned machines : {1u, 2u, 4u, 8u, 16u}) {
        std::vector<std::unique_ptr<Rig>> rigs;
        std::vector<Storm> storms;
        for (unsigned m = 0; m < machines; ++m) {
            rigs.push_back(std::make_unique<Rig>(
                makeTenantRig(ebpf::ExecEngine::Native, 1)));
            storms.push_back(makeStorm(kBatch));
        }
        const std::uint64_t per_machine =
            std::max<std::uint64_t>(1, headline_syscalls / 8 / kBatch);
        const auto start = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned m = 0; m < machines; ++m) {
            threads.emplace_back([&, m] {
                runBatched(*rigs[m], storms[m], per_machine);
            });
        }
        for (auto &t : threads)
            t.join();
        const double secs = secondsSince(start);
        const double agg =
            static_cast<double>(machines * per_machine * kBatch) / secs;
        std::printf("  %-10u %-16s %12.2f %16.0f\n", machines,
                    "native+batch", secs, agg);
        cluster.emplace_back(machines, agg);
    }

    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_scale: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"batch\": %zu,\n", kBatch);
    auto emitRow = [f](const char *key, const Row &r, const char *sep) {
        std::fprintf(f,
                     "  \"%s\": {\"syscalls\": %llu, \"seconds\": %.3f, "
                     "\"syscalls_per_sec\": %.0f, "
                     "\"probe_events_per_sec\": %.0f}%s\n",
                     key, static_cast<unsigned long long>(r.syscalls),
                     r.seconds, r.syscallsPerSec, r.probeEventsPerSec, sep);
    };
    emitRow("reference_batch", ref, ",");
    emitRow("native_batch", nat, ",");
    emitRow("native_scalar", nat_scalar, ",");
    std::fprintf(f, "  \"batch_amortisation\": %.3f,\n",
                 nat_same.syscallsPerSec / nat_scalar.syscallsPerSec);
    std::fprintf(f, "  \"percpu_shards\": {\"one\": %.0f, \"four\": %.0f},\n",
                 shard1, shard4);
    std::fprintf(f, "  \"raw_storm_threads\": [\n");
    for (std::size_t i = 0; i < cluster.size(); ++i) {
        std::fprintf(f,
                     "    {\"machines\": %u, \"agg_syscalls_per_sec\": "
                     "%.0f}%s\n",
                     cluster[i].first, cluster[i].second,
                     i + 1 < cluster.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
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
