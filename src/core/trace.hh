/**
 * @file
 * Raw syscall trace collection (Fig. 1b) and per-request timeline
 * reconstruction (Fig. 1c / §III "Challenges of reconstructing
 * per-request syscall timelines").
 *
 * TraceCollector attaches ring-buffer stream probes to both raw_syscalls
 * tracepoints and drains records to userspace periodically.
 *
 * reconstructTimelines() then attempts the naive per-thread pairing the
 * paper describes: a recv on a thread opens a request, the next send on
 * the same thread closes it, the gap being the service time. The report
 * quantifies where this breaks down (nested recvs, unmatched sends) —
 * i.e. why the paper falls back to aggregate statistics for
 * multi-threaded applications.
 */

#ifndef REQOBS_CORE_TRACE_HH
#define REQOBS_CORE_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/profile.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"

namespace reqobs::core {

/** TraceCollector tunables. */
struct TraceConfig
{
    std::uint32_t ringBytes = 1u << 20;
    sim::Tick drainPeriod = sim::milliseconds(10);
    ebpf::RuntimeConfig runtime;
};

/** Streams every syscall event of one process to userspace. */
class TraceCollector
{
  public:
    TraceCollector(kernel::Kernel &kernel, kernel::Pid tgid,
                   const TraceConfig &config = {});
    ~TraceCollector();

    TraceCollector(const TraceCollector &) = delete;
    TraceCollector &operator=(const TraceCollector &) = delete;

    void start();
    void stop();

    /** Records collected so far (chronological). */
    const std::vector<ebpf::probes::StreamRecord> &records() const
    {
        return records_;
    }

    /** Ring-buffer overruns (records lost in-kernel). */
    std::uint64_t drops() const;

    /** Render records as a human-readable trace listing. */
    std::string format(std::size_t max_lines = 64) const;

  private:
    kernel::Kernel &kernel_;
    kernel::Pid tgid_;
    TraceConfig config_;
    std::unique_ptr<ebpf::EbpfRuntime> runtime_;
    ebpf::probes::StreamMaps maps_;
    bool running_ = false;
    sim::EventId drainTimer_;
    std::vector<ebpf::probes::StreamRecord> records_;

    void scheduleDrain();
    void drain();
};

/** One recv->send pairing on a single thread. */
struct ReconstructedRequest
{
    kernel::Tid tid = 0;
    std::uint64_t recvTs = 0;
    std::uint64_t sendTs = 0;

    /** Service time implied by the pairing. */
    std::int64_t
    serviceNs() const
    {
        return static_cast<std::int64_t>(sendTs) -
               static_cast<std::int64_t>(recvTs);
    }
};

/** Outcome of naive per-thread timeline reconstruction. */
struct ReconstructionReport
{
    std::vector<ReconstructedRequest> requests;
    std::uint64_t totalSends = 0;
    std::uint64_t unmatchedSends = 0; ///< sends with no open recv
    std::uint64_t nestedRecvs = 0;    ///< recv arriving before prior send

    /** Fraction of sends successfully paired with a recv. */
    double matchRate() const;

    /** Mean reconstructed service time (ns); 0 when empty. */
    double meanServiceNs() const;
};

/**
 * Pair recv/send exits per thread; see file comment. @p records must be
 * chronological (as produced by TraceCollector).
 */
ReconstructionReport
reconstructTimelines(const std::vector<ebpf::probes::StreamRecord> &records,
                     const SyscallProfile &profile);

} // namespace reqobs::core

#endif // REQOBS_CORE_TRACE_HH
