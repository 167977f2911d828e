/**
 * @file
 * Static verifier for eBPF programs, modelled on the kernel's.
 *
 * Enforced properties (§III-A of the paper lists these constraints as
 * what makes eBPF safe to run in-kernel):
 *  - bounded size (4096 instructions) and loop freedom (forward jumps
 *    only — the pre-5.3 rule the paper describes);
 *  - every path reaches EXIT with r0 initialised;
 *  - no use of uninitialised registers or stack slots;
 *  - typed pointer discipline: context, stack and map-value pointers are
 *    tracked; all dereferences are bounds-checked against the pointee;
 *  - map-lookup results must be null-checked before dereference;
 *  - helper calls are checked against per-helper signatures (map handle
 *    arguments must come from ld_map_fd, key/value buffers must be
 *    initialised stack memory of the map's key/value size);
 *  - no division by a zero constant; pointer arithmetic only with
 *    compile-time-constant offsets;
 *  - bounded verification effort (state-explosion cap), mirroring the
 *    kernel's "program too complex" rejection.
 */

#ifndef REQOBS_EBPF_VERIFIER_HH
#define REQOBS_EBPF_VERIFIER_HH

#include <cstdint>
#include <string>

#include "ebpf/program.hh"

namespace reqobs::ebpf {

/** Outcome of verification. */
struct VerifyResult
{
    bool ok = false;
    std::string error;        ///< empty when ok
    std::uint64_t statesExplored = 0;

    explicit operator bool() const { return ok; }
};

/** Verifier limits (kernel-flavoured defaults). */
struct VerifierLimits
{
    std::size_t maxInsns = 4096;
    std::size_t maxStates = 65536;
    std::int32_t stackSize = 512;
};

/** Verify @p prog; returns ok or the first error found. */
VerifyResult verify(const ProgramSpec &prog, const VerifierLimits &limits = {});

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_VERIFIER_HH
