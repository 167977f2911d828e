/**
 * @file
 * Level-triggered epoll for the simulated kernel.
 *
 * Semantics follow Linux closely enough for the workloads here:
 *  - interest list of (fd, File) pairs, level-triggered readability;
 *  - every readiness edge marks its fd in a ready set (the job of
 *    Linux's rdllist, which ep_poll_callback fills), so epoll_wait costs
 *    O(ready), not O(watched). Ready fds come back in fd order from a
 *    rotating cursor, where Linux's list is FIFO (DESIGN.md §17);
 *  - epoll_wait returns immediately if anything is ready, else blocks
 *    until a readiness edge or timeout;
 *  - multiple concurrent waiters are woken one-per-edge in FIFO order
 *    (EPOLLEXCLUSIVE-style, which is what multi-threaded servers want).
 */

#ifndef REQOBS_KERNEL_EPOLL_HH
#define REQOBS_KERNEL_EPOLL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "kernel/file.hh"
#include "kernel/types.hh"

namespace reqobs::kernel {

/** One epoll instance (what epoll_create1 returns an fd for). */
class EpollInstance : public File, public ReadinessObserver
{
  public:
    ~EpollInstance() override;

    /** @name Interest list (epoll_ctl). @{ */
    void add(Fd fd, const std::shared_ptr<File> &file);
    void remove(Fd fd);
    std::size_t interestCount() const { return watched_; }
    /** @} */

    /** Ready fds right now, capped at @p max_events, round-robin fair. */
    std::vector<ReadyFd> collectReady(std::size_t max_events);

    /** Any watched fd readable? (Makes epoll fds themselves pollable.) */
    bool readable() const override;

    /** Readiness edge from a watched file. */
    void onReadable(Fd fd) override;

    /**
     * Blocked-waiter registry. The wake callback runs at most once, when
     * a readiness edge arrives; the caller must then re-scan (level
     * semantics) and re-register if it finds nothing.
     */
    using WaiterId = std::uint64_t;
    WaiterId addWaiter(std::function<void()> wake);
    void removeWaiter(WaiterId id);
    std::size_t waiterCount() const { return waiters_.size(); }

  private:
    /** Watched files indexed by fd (null where unwatched). */
    std::deque<std::shared_ptr<File>> interest_;
    std::size_t watched_ = 0;
    /**
     * One bit per fd, set on every readiness edge and cleared when a scan
     * finds the fd drained. Every rising edge signals, so the set always
     * holds every readable watched fd.
     */
    std::vector<std::uint64_t> ready_;
    /** Rotates so collectReady doesn't always favour low fds. */
    Fd scanCursor_ = 0;

    /**
     * Append the readable fds marked in [@p lo, @p hi) to @p out in fd
     * order, unmarking drained ones; true once @p out holds @p max_events.
     */
    bool scanReady(Fd lo, Fd hi, std::size_t max_events,
                   std::vector<ReadyFd> &out);

    bool
    watches(Fd fd) const
    {
        return fd >= 0 && static_cast<std::size_t>(fd) < interest_.size() &&
               interest_[fd] != nullptr;
    }

    struct Waiter
    {
        WaiterId id;
        std::function<void()> wake;
    };
    std::deque<Waiter> waiters_;
    WaiterId nextWaiter_ = 1;
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_EPOLL_HH
