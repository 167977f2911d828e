/**
 * @file
 * The reference eBPF interpreter.
 *
 * It decodes each instruction on every execution, exactly as the seed
 * did. It is the semantic oracle the native kernels (native.hh) are
 * held to, and the engine for every program that is not a library
 * probe: tracelet DSL output, fuzzed and hand-written bytecode.
 *
 * It keeps defence-in-depth runtime checks: every load/store is
 * validated against the regions a program may legally touch (its stack
 * frame, the context, and map values handed out by lookups during this
 * run). The regions scratch buffer is owned by the Vm and reused across
 * runs — no allocation per execution — and repeated lookups of the same
 * map value are deduplicated instead of growing the scan list. A hard
 * instruction budget bounds execution, mirroring the kernel.
 */

#ifndef REQOBS_EBPF_VM_HH
#define REQOBS_EBPF_VM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/helpers.hh"
#include "ebpf/program.hh"

namespace reqobs::ebpf {

/** Result of one program execution. */
struct RunResult
{
    std::uint64_t r0 = 0;       ///< program return value
    std::uint64_t insns = 0;    ///< instructions retired
    std::uint64_t mapUpdateFails = 0; ///< map updates returning < 0
    std::uint64_t ringbufDrops = 0;   ///< ringbuf outputs returning -ENOSPC
    bool aborted = false;       ///< runtime fault (should not happen after
                                ///< verification)
    std::string error;
};

/** Executes programs on the reference interpreter. Reusable across runs. */
class Vm
{
  public:
    /** @param max_insns Runtime instruction budget per execution. */
    explicit Vm(std::uint64_t max_insns = 1u << 20);

    /**
     * Reference interpreter: execute @p prog with @p ctx as the r1
     * context (ctx_len must match prog.ctxSize) in environment @p env.
     */
    RunResult run(const ProgramSpec &prog, std::uint8_t *ctx,
                  std::uint32_t ctx_len, ExecEnv &env);

    /** Cumulative instructions retired across all runs. */
    std::uint64_t totalInsns() const { return totalInsns_; }

  private:
    struct Region
    {
        std::uint8_t *base;
        std::size_t size;
        bool writable;
    };

    std::uint64_t maxInsns_;
    std::uint64_t totalInsns_ = 0;
    std::vector<std::uint8_t> stack_;
    /** Scratch list of legal regions, reused across runs (no per-run
     *  allocation once warm). */
    std::vector<Region> regions_;

    /** Start a run: clear the stack and reset the regions scratch to
     *  {stack, ctx}. */
    void beginRun(std::uint8_t *ctx, std::uint32_t ctx_len);

    /**
     * Register a map value handed out by a lookup. Deduplicated: looking
     * the same value up twice must not degrade checkAccess into a scan
     * over duplicates.
     */
    void addMapValueRegion(std::uint8_t *base, std::size_t size);

    /** Pointer into a legal region, or nullptr. */
    std::uint8_t *checkAccess(std::uint64_t addr, int len, bool write) const;

    /** @name Helper-call bodies.
     * Return nullptr on success, or a fault message. @{ */
    const char *callMapLookup(std::uint64_t *reg);
    const char *callMapUpdate(std::uint64_t *reg, ExecEnv &env,
                              RunResult &res);
    const char *callMapDelete(std::uint64_t *reg);
    const char *callRingbufOutput(std::uint64_t *reg, ExecEnv &env,
                                  RunResult &res);
    /** @} */
};

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_VM_HH
