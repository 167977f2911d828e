/**
 * @file
 * io_uring-style asynchronous I/O (the paper's §V-C limitation,
 * implemented so the blind spot can be demonstrated rather than
 * asserted).
 *
 * Applications using this facility receive and send without per-message
 * syscalls: inbound messages complete into a userspace-visible
 * completion queue (multishot-recv style), outbound messages are
 * submitted to the ring and transmitted by kernel-side async workers.
 * The only syscall left is io_uring_enter(2) — and only when the
 * application must *block* on an empty completion queue; while
 * completions keep arriving the loop runs entirely in userspace.
 *
 * Consequence for syscall-based observability: the send/recv families
 * vanish from the trace and the enter rate decouples from the request
 * rate, so Eq. 1 / Eq. 2 / poll-duration metrics all go blind. See
 * bench_ablation_iouring.
 */

#ifndef REQOBS_KERNEL_IO_URING_HH
#define REQOBS_KERNEL_IO_URING_HH

#include <deque>
#include <map>
#include <memory>

#include "kernel/kernel.hh"

namespace reqobs::kernel {

/** One completion-queue entry: an inbound message on a ring fd. */
struct Cqe
{
    Fd fd = -1;
    Message msg;
};

/** IoUring tunables. */
struct IoUringConfig
{
    /** Kernel-side async completion/transmit handling cost. */
    sim::Tick asyncOpCost = sim::nanoseconds(350);
    /** Completion-queue capacity; overflow drops (and counts). */
    std::size_t cqCapacity = 4096;
};

/** See file comment. */
class IoUring : public ReadinessObserver
{
  public:
    IoUring(Kernel &kernel, Pid pid, const IoUringConfig &config = {});
    ~IoUring() override;

    IoUring(const IoUring &) = delete;
    IoUring &operator=(const IoUring &) = delete;

    /**
     * Arm a multishot receive on @p fd: every message delivered to the
     * socket becomes a CQE without any recv syscall.
     */
    void registerRecv(Fd fd);

    /** @name Userspace-side completion queue. @{ */
    bool hasCqe() const { return !cq_.empty(); }
    std::size_t cqDepth() const { return cq_.size(); }
    Cqe popCqe();
    /** @} */

    /**
     * io_uring_enter(GETEVENTS): block until at least one CQE is
     * available, exiting with 1. Costs no syscall at all when
     * completions are already pending (pure userspace CQ read).
     */
    WaitOp
    enter(Tid tid)
    {
        return WaitOp(kernel_, tid, Syscall::IoUringEnter, 1, waiters_,
                      hasCqe());
    }

    /**
     * Submit a send: the ring's kernel-side worker transmits it after
     * the async-op cost. No send-family syscall fires.
     */
    void submitSend(Fd fd, Message msg);

    /** Socket readiness edge (multishot recv completion path). */
    void onReadable(Fd fd) override;

    /** @name Counters. @{ */
    std::uint64_t completions() const { return completions_; }
    std::uint64_t submissions() const { return submissions_; }
    std::uint64_t overflowDrops() const { return overflow_; }
    /** @} */

  private:
    Kernel &kernel_;
    Pid pid_;
    IoUringConfig config_;
    std::map<Fd, std::shared_ptr<Socket>> recvArmed_;
    std::deque<Cqe> cq_;
    WaitOp::Queue waiters_;
    std::uint64_t completions_ = 0;
    std::uint64_t submissions_ = 0;
    std::uint64_t overflow_ = 0;
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_IO_URING_HH
