/**
 * @file
 * Base class for pollable kernel objects (sockets, listen sockets,
 * epoll instances) plus the readiness-observer plumbing that epoll and
 * select build on.
 */

#ifndef REQOBS_KERNEL_FILE_HH
#define REQOBS_KERNEL_FILE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "kernel/types.hh"

namespace reqobs::kernel {

/**
 * Receives readiness edges for a watched file. Implemented by
 * EpollInstance, by IoUring (multishot receives) and by the kernel's
 * transient select() waiters.
 */
class ReadinessObserver
{
  public:
    virtual ~ReadinessObserver() = default;

    /** @p fd (the watcher's registered cookie) became readable. */
    virtual void onReadable(Fd fd) = 0;
};

/**
 * A pollable kernel object. Subclasses call signalReadable() whenever
 * their readable() predicate may have turned true; observers are then
 * notified (level semantics are re-checked by the poller).
 */
class File
{
  public:
    virtual ~File() = default;

    /** Level-triggered read readiness. */
    virtual bool readable() const = 0;

    /** Level-triggered write readiness (buffers never fill up here). */
    virtual bool writable() const { return true; }

    /** Register @p obs to be told when this file becomes readable. */
    void
    addObserver(ReadinessObserver *obs, Fd cookie)
    {
        observers_.emplace_back(obs, cookie);
    }

    /** Remove every registration of @p obs. */
    void
    removeObserver(ReadinessObserver *obs)
    {
        observers_.erase(
            std::remove_if(observers_.begin(), observers_.end(),
                           [obs](const auto &p) { return p.first == obs; }),
            observers_.end());
    }

  protected:
    /** Notify observers of a (potential) rising readable edge. */
    void
    signalReadable()
    {
        // Copy: observers may unregister themselves while being notified.
        const auto snapshot = observers_;
        for (const auto &[obs, cookie] : snapshot)
            obs->onReadable(cookie);
    }

  private:
    std::vector<std::pair<ReadinessObserver *, Fd>> observers_;
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_FILE_HH
