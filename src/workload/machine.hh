/**
 * @file
 * One physical machine of the fleet: a Kernel (with its CPU model) plus
 * the server applications co-located on it.
 *
 * The single-machine harness historically fused "the kernel" and "the
 * one application" — Machine is the seam that separates them. It owns
 * exactly one Kernel and hosts N ServerApp tenants (each its own
 * process, so each has its own tgid for the eBPF probes to attribute
 * by) plus optional best-effort antagonists: batch processes that burn
 * CPU through the shared CpuModel without touching the network, the
 * classic co-location interference source that per-tenant metrics must
 * see through.
 *
 * Note on layering: ISSUE placement put Machine next to Kernel, but the
 * library DAG has workload -> kernel (a Machine *hosts* ServerApps), so
 * Machine lives in src/workload and the per-tgid syscall accounting it
 * relies on lives in kernel::Kernel — see DESIGN.md §10.
 *
 * Lifetime: the Simulation must outlive the Machine; the Machine must
 * outlive event-queue activity, exactly as for a bare Kernel
 * (DESIGN.md §16).
 */

#ifndef REQOBS_WORKLOAD_MACHINE_HH
#define REQOBS_WORKLOAD_MACHINE_HH

#include <memory>
#include <vector>

#include "kernel/kernel.hh"
#include "net/frontdoor.hh"
#include "workload/server_app.hh"

namespace reqobs::workload {

/**
 * A co-located best-effort CPU burner: threads alternating compute
 * bursts with short sleeps. Compute is not a syscall, so an antagonist
 * is almost invisible to syscall-level probes (its few nanosleeps carry
 * its own tgid and are filtered out) while still stealing machine-wide
 * CPU bandwidth from the latency-sensitive tenants.
 */
struct AntagonistConfig
{
    unsigned threads = 8;
    sim::Tick burst = sim::microseconds(400); ///< CPU demand per cycle
    sim::Tick gap = sim::microseconds(100);   ///< nanosleep between bursts
    /**
     * Delay before the first burst, for mid-run contention onsets
     * (detection-lag experiments). 0 = burn from machine start, the
     * exact pre-knob behaviour.
     */
    sim::Tick startAt = 0;
};

/** See file comment. */
class Machine
{
  public:
    Machine(sim::Simulation &sim, const kernel::KernelConfig &config = {});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Co-locate one more tenant on this machine. Each tenant is a full
     * ServerApp (own process/tgid, workers, connections). @pre not
     * started.
     */
    ServerApp &addTenant(const WorkloadConfig &config);

    /** Add a best-effort antagonist process. @pre not started. */
    kernel::Pid addAntagonist(const AntagonistConfig &config = {});

    /**
     * Give the machine a host-network front door (strictly opt-in: a
     * machine without one is bit-identical to builds predating it).
     * @pre not started, not yet enabled.
     */
    net::FrontDoor &enableFrontDoor(const net::FrontDoorConfig &config);

    /**
     * Add a front-door listener owned by tenant @p tenant_idx: the
     * acceptor thread runs in that tenant's client-facing process, so
     * accept/recv/send syscalls and front-door tracepoints carry the
     * tenant's tgid. @return listener index. @pre front door enabled.
     */
    unsigned addFrontDoorListener(std::size_t tenant_idx,
                                  const net::ListenerConfig &config);

    /** The front door, or nullptr when not enabled. */
    net::FrontDoor *frontDoor() { return frontDoor_.get(); }

    /** Start every tenant, antagonist and the front door. */
    void start();

    kernel::Kernel &kernel() { return kernel_; }
    const kernel::Kernel &kernel() const { return kernel_; }

    std::size_t tenantCount() const { return tenants_.size(); }
    ServerApp &tenant(std::size_t i) { return *tenants_[i]; }
    const ServerApp &tenant(std::size_t i) const { return *tenants_[i]; }

  private:
    struct Antagonist
    {
        AntagonistConfig config;
        kernel::Pid pid = 0;
    };

    kernel::Kernel kernel_;
    std::vector<std::unique_ptr<ServerApp>> tenants_;
    std::vector<Antagonist> antagonists_;
    std::unique_ptr<net::FrontDoor> frontDoor_;
    bool started_ = false;
};

} // namespace reqobs::workload

#endif // REQOBS_WORKLOAD_MACHINE_HH
