/**
 * @file
 * The multi-tenant observability agent.
 *
 * MultiTenantAgent is the machine-level sampler: it attaches ONE probe
 * set per machine — tenant-scoped bytecode from ebpf/probes (tgid-match
 * prologue, per-tenant stats-map slots) — and on each sample tick
 * closes every fresh tenant's window in that tenant's TenantMetrics
 * (core/agent.hh), the same window stage ObservabilityAgent runs. All
 * attribution happens inside the verified bytecode; userspace only ever
 * reads per-slot counters.
 */

#ifndef REQOBS_CORE_TENANT_METRICS_HH
#define REQOBS_CORE_TENANT_METRICS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.hh"
#include "core/profile.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"

namespace reqobs::core {

/** Probe bindings for one tenant on a machine. */
struct TenantBinding
{
    std::string name;       ///< workload name (labels/results)
    kernel::Pid tgid = 0;   ///< the tenant process the probes filter on
    SyscallProfile profile; ///< its syscall vocabulary
};

/** See file comment. */
class MultiTenantAgent
{
  public:
    MultiTenantAgent(kernel::Kernel &kernel,
                     std::vector<TenantBinding> tenants,
                     const AgentConfig &config = {});

    ~MultiTenantAgent();

    MultiTenantAgent(const MultiTenantAgent &) = delete;
    MultiTenantAgent &operator=(const MultiTenantAgent &) = delete;

    /** Author, verify and attach the tenant probes; begin sampling. */
    void start();

    /** Detach probes and stop sampling. */
    void stop();

    bool running() const { return running_; }

    std::size_t tenantCount() const { return tenants_.size(); }
    const TenantBinding &binding(std::size_t i) const { return tenants_[i]; }
    const TenantMetrics &tenant(std::size_t i) const { return *metrics_[i]; }

    /** @name Whole-run aggregates from tenant @p i's cumulative slots. @{ */
    double overallObservedRps(std::size_t i) const;
    double overallSendVariance(std::size_t i) const;
    double overallPollMeanDurationNs(std::size_t i) const;
    /** Send-family syscalls attributed to tenant @p i in-kernel. */
    std::uint64_t sendSyscalls(std::size_t i) const;
    /** Whole-run run-queue wait p99 (0 without runqlatHistogram). */
    double overallRunqP99Ns(std::size_t i) const;
    /** @} */

    /**
     * Noisiest tenants by in-kernel send-event count, read from the
     * heavy-hitter sketch: (tenant slot, approximate count) sorted
     * descending. Empty unless AgentConfig::heavyHitterSketch.
     */
    std::vector<std::pair<std::uint32_t, std::uint64_t>>
    topTenants(std::size_t k) const;

    /** Machine-level pipeline health (probe attach + loss counters). */
    const AgentHealth &health() const { return health_; }

    ebpf::EbpfRuntime &runtime() { return *runtime_; }

  private:
    kernel::Kernel &kernel_;
    std::vector<TenantBinding> tenants_;
    AgentConfig config_;
    std::unique_ptr<ebpf::EbpfRuntime> runtime_;
    std::vector<std::unique_ptr<TenantMetrics>> metrics_;

    ebpf::probes::DeltaMaps sendMaps_;
    ebpf::probes::DeltaMaps recvMaps_;
    ebpf::probes::DurationMaps pollMaps_;
    int sketchFd_ = -1; ///< heavy-hitter sketch (when enabled)
    ebpf::probes::RunqlatMaps runqMaps_; ///< runqlat pair (when enabled)

    bool running_ = false;
    sim::EventId sampleTimer_;
    AgentHealth health_;

    /** Per-tenant cumulative runqlat histogram at window start. */
    std::vector<std::vector<std::uint64_t>> runqSnap_;

    /** Teardown guard; last member so it outlives everything above. */
    std::shared_ptr<bool> alive_;

    ebpf::probes::SyscallStats readSlot(int fd, std::size_t slot) const;
    void scheduleSample();
    void takeSample();
};

} // namespace reqobs::core

#endif // REQOBS_CORE_TENANT_METRICS_HH
