/**
 * @file
 * The tracepoint machinery: raw_syscalls:sys_enter / sys_exit plus the
 * front-door and sched points (see TracepointId).
 *
 * Exactly mirrors what the real kernel exposes to eBPF: every syscall
 * dispatch fires sys_enter with (id, pid_tgid), and completion fires
 * sys_exit with (id, ret, pid_tgid), once per syscall. Attached probes
 * return the simulated ticks they consumed; the kernel charges that
 * cost to the calling thread, which is how the bench_overhead
 * experiment measures probe overhead on tail latency.
 */

#ifndef REQOBS_KERNEL_TRACEPOINT_HH
#define REQOBS_KERNEL_TRACEPOINT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/types.hh"
#include "sim/time.hh"

namespace reqobs::kernel {

/**
 * Which tracepoint fired. Beyond the paper's raw_syscalls pair, the
 * host-network front door (net/frontdoor) exposes three more: packet
 * ingress (net_rx_enqueue), connection hand-off to userspace
 * (sock_accept) and client SYN/segment retransmission (tcp_retransmit).
 * Front-door events reuse the RawSyscallEvent ctx ABI with the flow id
 * in @c syscall and the owning tenant's tgid in the high half of
 * @c pidTgid, so the existing eBPF prologue idioms (tgid filter, tenant
 * slot resolution) work unchanged.
 *
 * The discrete-dispatch scheduler (SchedModel::Discrete) adds the three
 * sched tracepoints on the same ctx ABI:
 *  - sched_wakeup / sched_wakeup_new: the woken task's tid in
 *    @c syscall, its pid_tgid in @c pidTgid, @c ret = 0.
 *  - sched_switch: the departing task's tid in @c syscall, its state in
 *    @c ret (0 = still runnable, i.e. preempted; 1 = blocked or done),
 *    and the incoming task's pid_tgid in @c pidTgid (0 = switch to
 *    idle). Under SchedModel::Gps none of the three ever fire.
 */
enum class TracepointId
{
    SysEnter,
    SysExit,
    NetRxEnqueue,
    SockAccept,
    TcpRetransmit,
    SchedWakeup,
    SchedWakeupNew,
    SchedSwitch,
};

/** Number of TracepointId values (per-point table sizing). */
constexpr std::size_t kTracepointCount = 8;
static_assert(static_cast<std::size_t>(TracepointId::SchedSwitch) + 1 ==
              kTracepointCount);

/** Context passed to attached probes (the eBPF ctx). */
struct RawSyscallEvent
{
    TracepointId point = TracepointId::SysEnter;
    std::int64_t syscall = 0; ///< syscall number (args->id)
    std::int64_t ret = 0;     ///< return value (sys_exit only)
    PidTgid pidTgid = 0;
    sim::Tick timestamp = 0;  ///< bpf_ktime_get_ns() at dispatch
};

/**
 * A probe attached to a tracepoint. Returns the simulated cost (ticks)
 * of running the probe, charged to the traced thread.
 */
using TracepointProbe = std::function<sim::Tick(const RawSyscallEvent &)>;

/** Handle for detaching a probe. */
using ProbeHandle = std::uint64_t;

/**
 * Registry of probes for every tracepoint. The simulated kernel owns
 * one instance and fires it from the syscall dispatch path (and the
 * front door and discrete scheduler from theirs). Each tracepoint keeps
 * its own probe list, so a firing touches only the probes attached to
 * its point.
 */
class TracepointRegistry
{
  public:
    /** Attach @p probe to @p point. @return handle for detach(). */
    ProbeHandle attach(TracepointId point, TracepointProbe probe);

    /** Detach a previously attached probe; unknown handles are ignored. */
    void detach(ProbeHandle handle);

    /**
     * Fire a tracepoint: run every probe attached to its point in attach
     * order. @return total probe cost in ticks.
     */
    sim::Tick fire(const RawSyscallEvent &event);

    /** Number of live probes on @p point. */
    std::size_t probeCount(TracepointId point) const;

    /** Total events dispatched through this registry. */
    std::uint64_t firedCount() const { return fired_; }

  private:
    struct Entry
    {
        ProbeHandle handle;
        TracepointProbe probe;
    };

    std::vector<Entry> probes_[kTracepointCount];
    ProbeHandle nextHandle_ = 1;
    std::uint64_t fired_ = 0;
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_TRACEPOINT_HH
