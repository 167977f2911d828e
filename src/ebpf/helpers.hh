/**
 * @file
 * eBPF helper-function ids and the execution environment they read.
 *
 * Ids match the Linux UAPI (enum bpf_func_id) so programs look like real
 * BPF. Semantics are implemented in the VM (vm.cc); signatures are
 * enforced statically by the verifier (verifier.cc).
 */

#ifndef REQOBS_EBPF_HELPERS_HH
#define REQOBS_EBPF_HELPERS_HH

#include <cstdint>
#include <string>

#include "sim/rng.hh"

namespace reqobs::fault {
class FaultInjector;
} // namespace reqobs::fault

namespace reqobs::ebpf {

namespace helper {

constexpr std::int32_t kMapLookupElem = 1;
constexpr std::int32_t kMapUpdateElem = 2;
constexpr std::int32_t kMapDeleteElem = 3;
constexpr std::int32_t kKtimeGetNs = 5;
constexpr std::int32_t kGetPrandomU32 = 7;
constexpr std::int32_t kGetCurrentPidTgid = 14;
constexpr std::int32_t kRingbufOutput = 130;

/** True if @p id names a helper this runtime implements. */
bool known(std::int32_t id);

/** Helper name for diagnostics ("bpf_map_lookup_elem"). */
std::string name(std::int32_t id);

} // namespace helper

/**
 * Per-invocation environment: what the kernel-side helpers observe when
 * a probe runs. Filled by the runtime from the tracepoint event.
 */
struct ExecEnv
{
    std::uint64_t nowNs = 0;   ///< bpf_ktime_get_ns()
    std::uint64_t pidTgid = 0; ///< bpf_get_current_pid_tgid()
    sim::Rng *rng = nullptr;   ///< bpf_get_prandom_u32()
    /** Optional fault injection for map/ringbuf helpers (may be null). */
    fault::FaultInjector *fault = nullptr;
};

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_HELPERS_HH
