#include "kernel/io_uring.hh"

#include "sim/logging.hh"

namespace reqobs::kernel {

bool
UringEnterOp::await_ready() const
{
    // Completions pending: the reap happens in userspace, no syscall.
    return ring_.hasCqe();
}

void
UringEnterOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    k_.fireEnter(tid_, syscallId(Syscall::IoUringEnter));
    ring_.waiters_.push_back(this);
}

void
UringEnterOp::wake()
{
    k_.sim().schedule(k_.config().wakeLatency, [this] {
        k_.finishSyscall(tid_, syscallId(Syscall::IoUringEnter), 1, h_);
    });
}

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
        while (!cq_.empty() && !waiters_.empty()) {
            UringEnterOp *op = waiters_.front();
            waiters_.pop_front();
            op->wake();
            break; // one wake per batch: the reaper drains the CQ
        }
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
