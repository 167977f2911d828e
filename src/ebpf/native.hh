/**
 * @file
 * Native execution engine: the simulator's analogue of the kernel JIT,
 * and the default engine.
 *
 * The native engine compiles a probe to a directly callable,
 * shape-specialised C++ kernel — no per-instruction dispatch, the whole
 * program is one function call. Compilation is recognition: the
 * compiler extracts candidate parameters (tgids, syscall ids, map fds,
 * shift, guard flags) from the bytecode, re-emits the probe through the
 * same probes::emit function the library builders use, and accepts the
 * program only if the re-emission is byte-identical. Every recogniser
 * is tried and the program's name plays no part, so a program gets a
 * native kernel if and only if it is literally a library probe, however
 * an agent labels it. Everything else (tracelet DSL output, fuzzed
 * programs, hand-written bytecode) runs on the reference interpreter.
 *
 * The kernels preserve the interpreter contract exactly: same r0, same
 * retired-instruction counts on every control-flow path (the cost model
 * depends on them), same map mutations, same ring-buffer payloads, and
 * the same fault-injection draw points in the same order. The
 * differential suite (tests/ebpf_diff_test.cc) holds them to it against
 * the interpreter, probe by probe and on whole harness runs.
 */

#ifndef REQOBS_EBPF_NATIVE_HH
#define REQOBS_EBPF_NATIVE_HH

#include <cstdint>
#include <vector>

#include "ebpf/helpers.hh"
#include "ebpf/maps.hh"
#include "ebpf/program.hh"

namespace reqobs::ebpf {

/**
 * Per-run tallies a native kernel produces; the runtime folds them into
 * the same counters the interpreter feeds.
 */
struct NativeResult
{
    std::uint64_t insns = 0; ///< retired bytecode-equivalent instructions
    std::uint64_t mapUpdateFails = 0;
    std::uint64_t ringbufDrops = 0;
};

/**
 * A compiled probe: one kernel function plus the parameters extracted
 * from its bytecode. Comparand fields are pre-sign-extended exactly as
 * the VM sign-extends 32-bit jump immediates, so kernels compare u64 ==
 * u64 with no per-event conversion.
 */
struct NativeProgram
{
    using Fn = void (*)(const NativeProgram &, const TraceCtx &, ExecEnv &,
                        NativeResult &);

    Fn fn = nullptr;          ///< null: program did not compile
    const char *shape = "";   ///< kernel name (ProbeCounters::shape)

    std::uint64_t tgidCmp = 0;    ///< sign-extended tgid immediate
    std::uint64_t syscallCmp = 0; ///< sign-extended syscall immediate
    unsigned shift = 0;           ///< Σx² quantisation shift
    bool guarded = false;         ///< defensive-bytecode variant
    bool exitPoint = false;       ///< stream probes: sys_exit records

    Map *start = nullptr;     ///< duration/wakeup start map (hash)
    Map *stats = nullptr;     ///< stats array
    Map *sketch = nullptr;    ///< heavy-hitter sketch
    Map *hist = nullptr;      ///< log2-bucket histogram array
    RingBufMap *ring = nullptr;

    /** Sign-extended syscall-family immediates, chain order. */
    std::vector<std::uint64_t> familyCmp;
    /** Sign-extended tenant tgid immediates; index = stats slot. */
    std::vector<std::uint64_t> tenantCmp;
    /** Sign-extended per-tenant poll-syscall immediates. */
    std::vector<std::uint64_t> pollCmp;
};

/**
 * Try to compile @p spec to a native kernel. Returns true and fills
 * @p out on success; false (out->fn == nullptr) when the program is not
 * a recognised library probe. Never fails a runnable program: callers
 * fall back to the reference interpreter.
 */
bool compileNative(const ProgramSpec &spec, NativeProgram *out);

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_NATIVE_HH
