/**
 * @file
 * google-benchmark micro-benchmarks for the eBPF substrate itself:
 * interpreter dispatch, map operations from bytecode, full probe
 * executions on tracepoint events, and verifier load time and map
 * creation (what an agent's start pays). These bound the host-side
 * cost of the simulation (the *simulated* probe cost is modelled
 * separately by RuntimeConfig).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "ebpf/assembler.hh"
#include "ebpf/helpers.hh"
#include "ebpf/native.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "ebpf/verifier.hh"
#include "ebpf/vm.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"

namespace {

using namespace reqobs;
using namespace reqobs::ebpf;

void
BM_VmAluLoopBody(benchmark::State &state)
{
    // Straight-line ALU: measures raw interpreter dispatch.
    ProgramBuilder b;
    b.movImm(R0, 1);
    for (int i = 0; i < 64; ++i)
        b.addImm(R0, 3).mulImm(R0, 1).xorImm(R0, 5);
    b.exit_();
    ProgramSpec spec;
    spec.insns = b.build();
    Vm vm;
    ExecEnv env;
    TraceCtx ctx{};
    for (auto _ : state) {
        auto r = vm.run(spec, reinterpret_cast<std::uint8_t *>(&ctx),
                        sizeof(ctx), env);
        benchmark::DoNotOptimize(r.r0);
    }
    state.SetItemsProcessed(state.iterations() * (64 * 3 + 2));
}
BENCHMARK(BM_VmAluLoopBody);

void
BM_VmHashMapUpdateLookup(benchmark::State &state)
{
    auto map = std::make_unique<HashMap>(8, 8, 1024);
    ProgramBuilder b;
    b.stImm(R10, -8, 5, BPF_DW)
        .stImm(R10, -16, 99, BPF_DW)
        .ldMapFd(R1, 3)
        .mov(R2, R10)
        .addImm(R2, -8)
        .mov(R3, R10)
        .addImm(R3, -16)
        .movImm(R4, 0)
        .call(helper::kMapUpdateElem)
        .ldMapFd(R1, 3)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, "out")
        .ldxdw(R0, R0, 0)
        .label("out")
        .exit_();
    ProgramSpec spec;
    spec.insns = b.build();
    spec.maps[3] = map.get();
    Vm vm;
    ExecEnv env;
    TraceCtx ctx{};
    for (auto _ : state) {
        auto r = vm.run(spec, reinterpret_cast<std::uint8_t *>(&ctx),
                        sizeof(ctx), env);
        benchmark::DoNotOptimize(r.r0);
    }
}
BENCHMARK(BM_VmHashMapUpdateLookup);

void
BM_DeltaProbeOnTracepointEvent(benchmark::State &state)
{
    // End-to-end cost of one traced syscall event through the runtime.
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    EbpfRuntime rt(kernel);
    const auto maps = probes::createDeltaMaps(rt, "bench");
    auto vr = rt.loadAndAttach(
        probes::buildDeltaExit(rt, 1000, {44}, maps),
        kernel::TracepointId::SysExit);
    if (!vr)
        state.SkipWithError(vr.error.c_str());

    kernel::RawSyscallEvent ev;
    ev.point = kernel::TracepointId::SysExit;
    ev.syscall = 44;
    ev.pidTgid = kernel::makePidTgid(1000, 1);
    std::uint64_t ts = 1;
    for (auto _ : state) {
        ev.timestamp = static_cast<sim::Tick>(ts += 1000);
        benchmark::DoNotOptimize(kernel.tracepoints().fire(ev));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaProbeOnTracepointEvent);

void
BM_FilteredOutEvent(benchmark::State &state)
{
    // The common fast path: an event for some other process.
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    EbpfRuntime rt(kernel);
    const auto maps = probes::createDeltaMaps(rt, "bench");
    auto vr = rt.loadAndAttach(
        probes::buildDeltaExit(rt, 1000, {44}, maps),
        kernel::TracepointId::SysExit);
    if (!vr)
        state.SkipWithError(vr.error.c_str());
    kernel::RawSyscallEvent ev;
    ev.point = kernel::TracepointId::SysExit;
    ev.syscall = 0; // read: not in the family
    ev.pidTgid = kernel::makePidTgid(2000, 2);
    ev.timestamp = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel.tracepoints().fire(ev));
}
BENCHMARK(BM_FilteredOutEvent);

/** Verified Listing-1 duration probes plus their native kernels. */
struct ListingOnePair
{
    sim::Simulation sim{1};
    kernel::Kernel kernel{sim};
    EbpfRuntime rt{kernel};
    probes::DurationMaps maps;
    ProgramSpec enter, exit;
    NativeProgram nEnter, nExit;
    std::string error;

    ListingOnePair()
        : maps(probes::createDurationMaps(rt, "bench")),
          enter(probes::buildDurationEnter(rt, 1000, 232, maps)),
          exit(probes::buildDurationExit(rt, 1000, 232, maps))
    {
        const auto ve = verify(enter);
        const auto vx = verify(exit);
        if (!ve.ok || !vx.ok)
            error = ve.ok ? vx.error : ve.error;
        else if (!compileNative(enter, &nEnter) ||
                 !compileNative(exit, &nExit))
            error = "Listing-1 probe did not compile native";
    }
};

/** One probe execution on @p engine; returns the retired insns. */
std::uint64_t
runProbe(ExecEngine engine, Vm &vm, const ProgramSpec &spec,
         const NativeProgram &np, TraceCtx &ctx, ExecEnv &env)
{
    if (engine == ExecEngine::Native) {
        NativeResult nr;
        np.fn(np, ctx, env, nr);
        return nr.insns;
    }
    return vm.run(spec, reinterpret_cast<std::uint8_t *>(&ctx), sizeof(ctx),
                  env)
        .insns;
}

void
BM_ListingOneProbe(benchmark::State &state, ExecEngine engine)
{
    // Reference-vs-native engine cost on the paper's Listing-1 program
    // itself (the duration-enter probe), executed directly with no
    // tracepoint routing around it.
    ListingOnePair p;
    if (!p.error.empty())
        state.SkipWithError(p.error.c_str());
    Vm vm;
    TraceCtx ctx{};
    ctx.id = 232;
    ctx.pidTgid = kernel::makePidTgid(1000, 1);
    ExecEnv env;
    env.pidTgid = ctx.pidTgid;
    std::uint64_t ts = 1;
    for (auto _ : state) {
        ctx.ts = ts += 1000;
        env.nowNs = ctx.ts;
        benchmark::DoNotOptimize(
            runProbe(engine, vm, p.enter, p.nEnter, ctx, env));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ListingOneProbe, reference, ExecEngine::Reference);
BENCHMARK_CAPTURE(BM_ListingOneProbe, native, ExecEngine::Native);

void
BM_ListingOneProbePair(benchmark::State &state, ExecEngine engine)
{
    // The full Listing-1 enter/exit pair per iteration: the enter run
    // populates the start-timestamp map so the exit run always takes
    // its complete path (lookup, delta, stats update, delete).
    ListingOnePair p;
    if (!p.error.empty())
        state.SkipWithError(p.error.c_str());
    Vm vm;
    TraceCtx ctx{};
    ctx.id = 232;
    ctx.pidTgid = kernel::makePidTgid(1000, 1);
    ExecEnv env;
    env.pidTgid = ctx.pidTgid;
    std::uint64_t ts = 1;
    for (auto _ : state) {
        ctx.ts = ts += 1000;
        env.nowNs = ctx.ts;
        benchmark::DoNotOptimize(
            runProbe(engine, vm, p.enter, p.nEnter, ctx, env));
        ctx.ts = ts += 700;
        env.nowNs = ctx.ts;
        benchmark::DoNotOptimize(
            runProbe(engine, vm, p.exit, p.nExit, ctx, env));
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK_CAPTURE(BM_ListingOneProbePair, reference, ExecEngine::Reference);
BENCHMARK_CAPTURE(BM_ListingOneProbePair, native, ExecEngine::Native);

void
BM_VerifyDurationExitProbe(benchmark::State &state)
{
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    EbpfRuntime rt(kernel);
    const auto maps = probes::createDurationMaps(rt, "bench");
    const ProgramSpec spec =
        probes::buildDurationExit(rt, 1000, 232, maps);
    for (auto _ : state) {
        auto r = verify(spec);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_VerifyDurationExitProbe);

void
BM_VerifyRunqlatSwitch(benchmark::State &state)
{
    // The costliest probe the agents load: two tenants, 812 states.
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    EbpfRuntime rt(kernel);
    const auto maps = probes::createRunqlatMaps(rt, 2, "bench");
    const ProgramSpec spec =
        probes::buildRunqlatSwitch(rt, {{1000, 1001}, {232, 232}}, maps);
    for (auto _ : state) {
        auto r = verify(spec);
        benchmark::DoNotOptimize(r.statesExplored);
    }
}
BENCHMARK(BM_VerifyRunqlatSwitch);

void
BM_CreateHashMap16k(benchmark::State &state)
{
    // The start-timestamp map every agent creates (poll.start).
    const auto entries = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        auto map = std::make_unique<HashMap>(8, 8, entries, "bench");
        benchmark::DoNotOptimize(map.get());
    }
}
BENCHMARK(BM_CreateHashMap16k)->Arg(16384);

void
BM_SimulatedSyscallRoundTrip(benchmark::State &state)
{
    // Host cost of a full simulated epoll+recv+send request cycle with
    // the agent's four probes attached (what the figure benches pay).
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    EbpfRuntime rt(kernel);
    const kernel::Pid pid = kernel.createProcess("bench");
    const auto smaps = probes::createDeltaMaps(rt, "send");
    auto vr = rt.loadAndAttach(
        probes::buildDeltaExit(rt, pid, {44}, smaps),
        kernel::TracepointId::SysExit);
    if (!vr)
        state.SkipWithError(vr.error.c_str());

    auto [fd, sock] = kernel.installSocket(pid, 1);
    sock->setTxHandler([](kernel::Message &&) {});
    kernel.spawnThread(pid,
                       [fd = fd](kernel::Kernel &k,
                                 kernel::Tid tid) -> kernel::Task {
                           const kernel::Fd epfd = k.epollCreate(tid);
                           k.epollCtlAdd(tid, epfd, fd);
                           for (;;) {
                               co_await k.epollWait(tid, epfd, 4, -1);
                               auto rx = co_await k.recv(tid, fd);
                               if (!rx.ok)
                                   continue;
                               co_await k.send(tid, fd, kernel::Message{});
                           }
                       });
    auto *sk = sock.get();
    for (auto _ : state) {
        sk->deliver(kernel::Message{}, sim.now());
        sim.runFor(sim::milliseconds(1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedSyscallRoundTrip);

} // namespace

BENCHMARK_MAIN();
