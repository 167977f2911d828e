#include "kernel/io_uring.hh"

#include "sim/logging.hh"

namespace reqobs::kernel {

IoUring::IoUring(Kernel &kernel, Pid pid, const IoUringConfig &config)
    : kernel_(kernel), pid_(pid), config_(config)
{}

IoUring::~IoUring()
{
    for (auto &[fd, sock] : recvArmed_)
        sock->removeObserver(this);
}

void
IoUring::registerRecv(Fd fd)
{
    auto sock = kernel_.socketAt(pid_, fd);
    if (!sock)
        sim::fatal("IoUring::registerRecv: fd %d is not a socket", fd);
    auto [it, inserted] = recvArmed_.emplace(fd, sock);
    if (!inserted)
        sim::fatal("IoUring::registerRecv: fd %d already armed", fd);
    sock->addObserver(this, fd);
    if (sock->hasData())
        onReadable(fd);
}

void
IoUring::onReadable(Fd fd)
{
    auto it = recvArmed_.find(fd);
    if (it == recvArmed_.end())
        return;
    auto sock = it->second;
    // Kernel-side async work: drain into the CQ after the op cost.
    kernel_.sim().schedule(config_.asyncOpCost, [this, fd, sock] {
        while (sock->hasData()) {
            if (cq_.size() >= config_.cqCapacity) {
                ++overflow_;
                sock->pop(); // message lost to CQ overflow
                continue;
            }
            cq_.push_back(Cqe{fd, sock->pop()});
            ++completions_;
        }
        // One wake per batch: the reaper drains the CQ.
        if (!cq_.empty())
            WaitOp::wakeOne(waiters_);
    });
}

Cqe
IoUring::popCqe()
{
    if (cq_.empty())
        sim::panic("IoUring::popCqe on empty completion queue");
    Cqe c = std::move(cq_.front());
    cq_.pop_front();
    return c;
}

void
IoUring::submitSend(Fd fd, Message msg)
{
    ++submissions_;
    auto sock = kernel_.socketAt(pid_, fd);
    if (!sock)
        sim::fatal("IoUring::submitSend: fd %d is not a socket", fd);
    kernel_.sim().schedule(config_.asyncOpCost,
                           [sock, msg = std::move(msg)]() mutable {
                               sock->transmit(std::move(msg));
                           });
}

} // namespace reqobs::kernel
