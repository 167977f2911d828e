/**
 * @file
 * Futex-style in-process notification.
 *
 * Worker-pool applications (e.g. the Triton model) block on an internal
 * work queue rather than on epoll; on Linux that wait surfaces as a
 * futex(2) syscall. Notifier provides exactly that: an awaitable wait
 * that fires futex sys_enter/sys_exit tracepoints, and a notifyOne()
 * that wakes the oldest waiter after the scheduler wake latency.
 */

#ifndef REQOBS_KERNEL_NOTIFIER_HH
#define REQOBS_KERNEL_NOTIFIER_HH

#include <cstddef>

#include "kernel/kernel.hh"

namespace reqobs::kernel {

/** FIFO wake-one notification object (a userspace futex word). */
class Notifier
{
  public:
    explicit Notifier(Kernel &kernel) : kernel_(kernel) {}

    Notifier(const Notifier &) = delete;
    Notifier &operator=(const Notifier &) = delete;

    /** Awaitable blocking futex wait for @p tid; exits with 0. */
    WaitOp
    wait(Tid tid)
    {
        return WaitOp(kernel_, tid, Syscall::Futex, 0, waiters_);
    }

    /** Wake the oldest waiter, if any. @return true if one was woken. */
    bool notifyOne() { return WaitOp::wakeOne(waiters_); }

    std::size_t waiters() const { return waiters_.size(); }

  private:
    Kernel &kernel_;
    WaitOp::Queue waiters_;
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_NOTIFIER_HH
