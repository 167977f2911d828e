#include "kernel/notifier.hh"

namespace reqobs::kernel {

void
FutexWaitOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    k_.fireEnter(tid_, syscallId(Syscall::Futex));
    notifier_.waiters_.push_back(this);
}

void
FutexWaitOp::wake()
{
    k_.sim().schedule(k_.config().wakeLatency, [this] {
        k_.finishSyscall(tid_, syscallId(Syscall::Futex), 0, h_);
    });
}

bool
Notifier::notifyOne()
{
    if (waiters_.empty())
        return false;
    FutexWaitOp *op = waiters_.front();
    waiters_.pop_front();
    op->wake();
    return true;
}

} // namespace reqobs::kernel
