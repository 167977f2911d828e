/**
 * @file
 * The simulated latency-sensitive server application.
 *
 * ServerApp instantiates a WorkloadConfig on a simulated kernel: it
 * creates the process(es), worker threads (coroutines) and descriptor
 * plumbing for the configured threading model, and serves requests that
 * arrive on its connection sockets, emitting exactly the syscall pattern
 * the model prescribes (poll -> recv -> compute -> send ... per request).
 *
 * Lifecycle: construct, call addConnection() once per client connection
 * (the network layer wires Links to the returned sockets), then start().
 * The app must outlive all event-queue activity; destroy the Kernel (or
 * stop pumping the simulation) before destroying the app. Its events
 * are plain callbacks on that rule (DESIGN.md §16).
 */

#ifndef REQOBS_WORKLOAD_SERVER_APP_HH
#define REQOBS_WORKLOAD_SERVER_APP_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kernel/io_uring.hh"
#include "kernel/kernel.hh"
#include "kernel/notifier.hh"
#include "sim/distributions.hh"
#include "workload/config.hh"

namespace reqobs::workload {

/** See file comment. */
class ServerApp
{
  public:
    ServerApp(kernel::Kernel &kernel, const WorkloadConfig &config);

    ServerApp(const ServerApp &) = delete;
    ServerApp &operator=(const ServerApp &) = delete;

    /**
     * Provision one client connection; returns the server-side socket
     * for the network layer to deliver into. @pre !started().
     */
    std::shared_ptr<kernel::Socket> addConnection(std::uint64_t conn_id);

    /** Spawn the application threads. */
    void start();

    bool started() const { return started_; }

    /** tgid of the client-facing process (what probes filter on). */
    kernel::Pid frontPid() const { return frontPid_; }

    /** tgid of the back-end process; 0 unless TwoStage. */
    kernel::Pid backPid() const { return backPid_; }

    const WorkloadConfig &config() const { return config_; }

    /** Responses fully sent (all chunks). */
    std::uint64_t requestsCompleted() const { return completed_; }

    /** Requests admitted into the internal queue (DispatcherWorkers). */
    std::size_t internalQueueDepth() const { return queue_.size(); }

    /** Contention stalls triggered so far. */
    std::uint64_t contentionStalls() const { return stalls_; }

    /**
     * @name Worker-pool scaling (DispatcherWorkers only).
     *
     * enableWorkerScaling(max) pre-provisions up to @p max pool workers
     * before start(); workers beyond the current target park on the
     * queue futex and take no work. setWorkerTarget() moves the target
     * at runtime (clamped to [1, max]) — the controller's scaling
     * actuator. Never enabled: exactly config().workers threads run and
     * the park check is inert, so existing runs are bit-unchanged.
     * @{
     */
    void enableWorkerScaling(unsigned max_workers);
    void setWorkerTarget(unsigned target);
    unsigned workerTarget() const { return workerTarget_; }
    /** @} */

  private:
    struct QueueItem
    {
        kernel::Fd fd;
        kernel::Message msg;
    };

    kernel::Kernel &kernel_;
    WorkloadConfig config_;
    sim::Rng rng_;
    std::unique_ptr<sim::LogNormalDist> demandDist_;
    std::unique_ptr<sim::LogNormalDist> feDemandDist_;

    kernel::Pid frontPid_ = 0;
    kernel::Pid backPid_ = 0;
    bool started_ = false;
    std::uint64_t completed_ = 0;

    std::vector<kernel::Fd> connFds_;
    std::vector<std::shared_ptr<kernel::Socket>> connSockets_;

    /** DispatcherWorkers: internal work queue + futex. */
    std::deque<QueueItem> queue_;
    std::unique_ptr<kernel::Notifier> queueNotifier_;
    /** Worker-pool scaling state (see enableWorkerScaling). */
    unsigned scalableMax_ = 0; ///< 0 = scaling disabled
    unsigned workerTarget_ = 0;

    /** TwoStage: requestId -> client fd awaiting the back-end result. */
    std::unordered_map<std::uint64_t, kernel::Fd> pendingRoutes_;
    kernel::Fd feInternalFd_ = -1;
    kernel::Fd beInternalFd_ = -1;

    /** Contention-stall state (see WorkloadConfig). */
    sim::Tick nextStallAllowed_ = 0;
    double baseCpuSpeed_ = 1.0;
    std::uint64_t stalls_ = 0;

    /**
     * Called by workers when they observe backlog: may trigger a
     * machine-wide contention stall (Fig. 3 mechanism).
     */
    void maybeContend(bool backlogged);

    /** Sample one request's CPU demand (ticks). */
    sim::Tick sampleDemand();
    sim::Tick sampleFrontendDemand();

    /**
     * Number of response chunks for one reply. The bias drifts slowly
     * (per ~250-request epoch) to model a changing query/result-size
     * mix — this window-scale wander in sends-per-request is what makes
     * chunked workloads (Web Search) correlate worse in Fig. 2.
     */
    unsigned sampleChunks();
    std::uint64_t chunkEpoch_ = ~0ull;
    unsigned chunkBias_ = 1;

    /** Build the response message for chunk @p chunk of @p chunks. */
    kernel::Message makeResponse(const kernel::Message &req, unsigned chunk,
                                 unsigned chunks) const;

    /** io_uring variant: one ring per worker. */
    std::vector<std::shared_ptr<kernel::IoUring>> rings_;

    void startPerThread(bool use_select);
    void startIoUring();
    void startDispatcher();
    void startTwoStage();

    /** @name Thread bodies. @{ */
    /** Poll loop: epoll_wait on @p epfd, or select over @p select_fds
     *  when @p epfd < 0. */
    kernel::Task eventLoopWorker(kernel::Kernel &k, kernel::Tid tid,
                                 kernel::Fd epfd,
                                 std::vector<kernel::Fd> select_fds);
    kernel::Task dispatcherThread(kernel::Kernel &k, kernel::Tid tid,
                                  kernel::Fd epfd);
    kernel::Task poolWorker(kernel::Kernel &k, kernel::Tid tid,
                            unsigned index);
    kernel::Task uringWorker(kernel::Kernel &k, kernel::Tid tid,
                             std::shared_ptr<kernel::IoUring> ring);
    kernel::Task frontendWorker(kernel::Kernel &k, kernel::Tid tid,
                                kernel::Fd epfd);
    kernel::Task backendWorker(kernel::Kernel &k, kernel::Tid tid,
                               kernel::Fd epfd);
    /** @} */
};

} // namespace reqobs::workload

#endif // REQOBS_WORKLOAD_SERVER_APP_HH
