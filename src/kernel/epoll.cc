#include "kernel/epoll.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace reqobs::kernel {

namespace {

constexpr std::uint64_t
readyBit(Fd fd)
{
    return std::uint64_t{1} << (fd % 64);
}

} // namespace

EpollInstance::~EpollInstance()
{
    for (const auto &file : interest_) {
        if (file)
            file->removeObserver(this);
    }
}

void
EpollInstance::add(Fd fd, const std::shared_ptr<File> &file)
{
    if (!file)
        sim::panic("EpollInstance::add: null file");
    if (fd < 0)
        sim::fatal("EpollInstance::add: negative fd %d", fd);
    const auto slot = static_cast<std::size_t>(fd);
    if (slot >= interest_.size()) {
        interest_.resize(slot + 1);
        ready_.resize(slot / 64 + 1);
    }
    if (interest_[fd])
        sim::fatal("EpollInstance::add: fd %d already registered", fd);
    interest_[fd] = file;
    ++watched_;
    file->addObserver(this, fd);
    if (file->readable())
        onReadable(fd);
}

void
EpollInstance::remove(Fd fd)
{
    if (!watches(fd))
        return;
    interest_[fd]->removeObserver(this);
    interest_[fd].reset();
    --watched_;
    ready_[fd / 64] &= ~readyBit(fd);
}

std::vector<ReadyFd>
EpollInstance::collectReady(std::size_t max_events)
{
    std::vector<ReadyFd> out;
    if (watched_ == 0 || max_events == 0)
        return out;
    // Start the scan after the cursor for round-robin fairness across fds,
    // then wrap around through the cursor itself.
    const Fd cursor = scanCursor_;
    if (!scanReady(cursor + 1, static_cast<Fd>(interest_.size()), max_events,
                   out))
        scanReady(0, cursor + 1, max_events, out);
    return out;
}

bool
EpollInstance::scanReady(Fd lo, Fd hi, std::size_t max_events,
                         std::vector<ReadyFd> &out)
{
    for (Fd base = lo - lo % 64; base < hi; base += 64) {
        std::uint64_t &word = ready_[base / 64];
        std::uint64_t bits = word;
        if (base < lo)
            bits &= ~std::uint64_t{0} << (lo - base);
        if (hi - base < 64)
            bits &= (std::uint64_t{1} << (hi - base)) - 1;
        for (; bits != 0; bits &= bits - 1) {
            const Fd fd = base + std::countr_zero(bits);
            const File &file = *interest_[fd];
            if (!file.readable()) {
                word &= ~readyBit(fd);
                continue;
            }
            out.push_back(ReadyFd{fd, true, file.writable()});
            scanCursor_ = fd;
            if (out.size() >= max_events)
                return true;
        }
    }
    return false;
}

bool
EpollInstance::readable() const
{
    for (std::size_t w = 0; w < ready_.size(); ++w) {
        for (std::uint64_t bits = ready_[w]; bits != 0; bits &= bits - 1) {
            if (interest_[w * 64 + std::countr_zero(bits)]->readable())
                return true;
        }
    }
    return false;
}

void
EpollInstance::onReadable(Fd fd)
{
    if (watches(fd))
        ready_[fd / 64] |= readyBit(fd);
    // Propagate to anything polling this epoll fd itself.
    signalReadable();
    // Wake exactly one blocked waiter per edge.
    if (!waiters_.empty()) {
        auto waiter = std::move(waiters_.front());
        waiters_.pop_front();
        waiter.wake();
    }
}

EpollInstance::WaiterId
EpollInstance::addWaiter(std::function<void()> wake)
{
    const WaiterId id = nextWaiter_++;
    waiters_.push_back(Waiter{id, std::move(wake)});
    return id;
}

void
EpollInstance::removeWaiter(WaiterId id)
{
    waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                  [id](const Waiter &w) {
                                      return w.id == id;
                                  }),
                   waiters_.end());
}

} // namespace reqobs::kernel
