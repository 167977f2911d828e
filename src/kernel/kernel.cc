#include "kernel/kernel.hh"

#include <utility>

#include "sim/logging.hh"

namespace reqobs::kernel {

namespace {
constexpr std::int64_t kEagain = -11;
constexpr std::int64_t kEintr = -4;

/** Tracepoint timestamp = virtual clock plus any injected jitter. */
sim::Tick
tracepointTimestamp(sim::Tick now, fault::FaultInjector *fault)
{
    if (!fault)
        return now;
    const std::int64_t jitter = fault->clockJitter();
    if (jitter < 0 && now < -jitter)
        return 0;
    return now + jitter;
}

} // namespace

Kernel::Kernel(sim::Simulation &sim, const KernelConfig &config)
    : sim_(sim), config_(config),
      cpu_(std::make_unique<CpuModel>(sim, config.cpu))
{
    // Surface discrete-dispatch scheduler transitions as tracepoints
    // (under Gps the hook never fires). Probe cost is deliberately not
    // charged to any thread: these events fire from scheduler context,
    // not from a syscall path with a current task to bill.
    cpu_->setSchedEventHook([this](const CpuModel::SchedEvent &sev) {
        RawSyscallEvent ev;
        switch (sev.type) {
        case CpuModel::SchedEventType::Wakeup:
            ev.point = TracepointId::SchedWakeup;
            ev.syscall = sev.tid;
            break;
        case CpuModel::SchedEventType::WakeupNew:
            ev.point = TracepointId::SchedWakeupNew;
            ev.syscall = sev.tid;
            break;
        case CpuModel::SchedEventType::Switch:
            ev.point = TracepointId::SchedSwitch;
            ev.syscall = sev.prevTid;
            ev.ret = sev.prevRunnable ? 0 : 1;
            break;
        }
        ev.pidTgid = sev.pidTgid;
        ev.timestamp = tracepointTimestamp(sim_.now(), fault_);
        tracepoints_.fire(ev);
    });
}

Kernel::~Kernel()
{
    // Destroy every coroutine frame we still own. Frames suspended at a
    // syscall awaiter unwind their locals; their pending events never
    // run, because nothing pumps the queue after this (DESIGN.md §16).
    for (auto &[tid, thread] : threads_) {
        if (thread.coro)
            thread.coro.destroy();
    }
}

// --------------------------------------------------------------- helpers

Kernel::Process &
Kernel::processOf(Pid pid)
{
    auto it = processes_.find(pid);
    if (it == processes_.end())
        sim::panic("Kernel: unknown pid %u", pid);
    return it->second;
}

const Kernel::Process &
Kernel::processOf(Pid pid) const
{
    auto it = processes_.find(pid);
    if (it == processes_.end())
        sim::panic("Kernel: unknown pid %u", pid);
    return it->second;
}

Kernel::Thread &
Kernel::threadOf(Tid tid)
{
    auto it = threads_.find(tid);
    if (it == threads_.end())
        sim::panic("Kernel: unknown tid %u", tid);
    return it->second;
}

Fd
Kernel::installFile(Pid pid, std::shared_ptr<File> file)
{
    Process &proc = processOf(pid);
    const Fd fd = proc.nextFd++;
    proc.fds.resize(fd); // first install: fds 0-2 stay empty
    proc.fds.push_back(std::move(file));
    return fd;
}

void
Kernel::resumeHandle(std::coroutine_handle<> h)
{
    if (h && !h.done())
        h.resume();
}

sim::Tick
Kernel::fireEnter(Tid tid, std::int64_t syscall)
{
    ++syscalls_;
    ++syscallsByTgid_[threadOf(tid).pid];
    RawSyscallEvent ev;
    ev.point = TracepointId::SysEnter;
    ev.syscall = syscall;
    ev.pidTgid = pidTgidOf(tid);
    ev.timestamp = tracepointTimestamp(sim_.now(), fault_);
    return tracepoints_.fire(ev);
}

sim::Tick
Kernel::fireExit(Tid tid, std::int64_t syscall, std::int64_t ret)
{
    RawSyscallEvent ev;
    ev.point = TracepointId::SysExit;
    ev.syscall = syscall;
    ev.ret = ret;
    ev.pidTgid = pidTgidOf(tid);
    ev.timestamp = tracepointTimestamp(sim_.now(), fault_);
    return tracepoints_.fire(ev);
}

void
Kernel::finishSyscall(Tid tid, std::int64_t syscall, std::int64_t ret,
                      std::coroutine_handle<> h)
{
    const sim::Tick exit_cost = fireExit(tid, syscall, ret);
    sim_.schedule(exit_cost, [this, h] { resumeHandle(h); });
}

// -------------------------------------------------- processes and threads

Pid
Kernel::createProcess(const std::string &name)
{
    const Pid pid = nextPid_++;
    Process proc;
    proc.pid = pid;
    proc.name = name;
    processes_.emplace(pid, std::move(proc));
    return pid;
}

const std::string &
Kernel::processName(Pid pid) const
{
    return processOf(pid).name;
}

Tid
Kernel::spawnThread(Pid pid, ThreadBody body)
{
    processOf(pid); // validate
    const Tid tid = nextTid_++;
    Thread rec;
    rec.tid = tid;
    rec.pid = pid;
    rec.body = std::move(body);
    threads_.emplace(tid, std::move(rec));

    // Invoke the *stored* closure: its captures must outlive the
    // coroutine frame (see Thread::body).
    Task task = threads_.at(tid).body(*this, tid);
    Task::Handle h = task.release();
    if (!h)
        sim::panic("Kernel::spawnThread: body returned an empty task");
    h.promise().onFinal = [this, tid] { threads_.at(tid).finished = true; };
    threads_.at(tid).coro = h;
    sim_.schedule(0, [this, h] { resumeHandle(h); });
    return tid;
}

PidTgid
Kernel::pidTgidOf(Tid tid) const
{
    auto it = threads_.find(tid);
    if (it == threads_.end())
        sim::panic("Kernel::pidTgidOf: unknown tid %u", tid);
    return makePidTgid(it->second.pid, tid);
}

bool
Kernel::threadFinished(Tid tid) const
{
    auto it = threads_.find(tid);
    return it != threads_.end() && it->second.finished;
}

std::uint64_t
Kernel::syscallCountFor(Pid pid) const
{
    auto it = syscallsByTgid_.find(pid);
    return it != syscallsByTgid_.end() ? it->second : 0;
}

// ----------------------------------------------------- descriptor setup

Fd
Kernel::epollCreate(Tid tid)
{
    Thread &t = threadOf(tid);
    fireEnter(tid, syscallId(Syscall::EpollCreate1));
    const Fd fd = installFile(t.pid, std::make_shared<EpollInstance>());
    fireExit(tid, syscallId(Syscall::EpollCreate1), fd);
    return fd;
}

void
Kernel::epollCtlAdd(Tid tid, Fd epfd, Fd fd)
{
    Thread &t = threadOf(tid);
    fireEnter(tid, syscallId(Syscall::EpollCtl));
    auto ep = epollAt(t.pid, epfd);
    if (!ep)
        sim::fatal("epoll_ctl: fd %d is not an epoll instance", epfd);
    auto file = fileAt(t.pid, fd);
    if (!file)
        sim::fatal("epoll_ctl: fd %d does not exist", fd);
    ep->add(fd, file);
    fireExit(tid, syscallId(Syscall::EpollCtl), 0);
}

Fd
Kernel::listen(Tid tid)
{
    Thread &t = threadOf(tid);
    fireEnter(tid, syscallId(Syscall::Socket));
    fireExit(tid, syscallId(Syscall::Socket), 0);
    fireEnter(tid, syscallId(Syscall::Bind));
    fireExit(tid, syscallId(Syscall::Bind), 0);
    fireEnter(tid, syscallId(Syscall::Listen));
    const Fd fd = installFile(t.pid, std::make_shared<ListenSocket>());
    fireExit(tid, syscallId(Syscall::Listen), 0);
    return fd;
}

// ------------------------------------------------------------- plumbing

std::pair<Fd, std::shared_ptr<Socket>>
Kernel::installSocket(Pid pid, std::uint64_t conn_id)
{
    auto sock = std::make_shared<Socket>(conn_id);
    const Fd fd = installFile(pid, sock);
    return {fd, std::move(sock)};
}

void
Kernel::enqueueIncomingConnection(Pid pid, Fd listen_fd,
                                  std::shared_ptr<Socket> sock)
{
    auto listener = listenerAt(pid, listen_fd);
    if (!listener)
        sim::fatal("enqueueIncomingConnection: fd %d is not listening",
                   listen_fd);
    listener->enqueueConnection(std::move(sock));
}

std::pair<Fd, Fd>
Kernel::socketPair(Pid pid_a, Pid pid_b, sim::Tick latency)
{
    auto sock_a = std::make_shared<Socket>(nextPairId_++);
    auto sock_b = std::make_shared<Socket>(nextPairId_++);

    // Cross-wire: what A sends arrives at B after `latency`, and back.
    // Weak capture: each handler lives inside its peer socket, so owning
    // references here would cycle the pair and leak both.
    auto wire = [this, latency](const std::shared_ptr<Socket> &dst) {
        return [this, latency,
                peer = std::weak_ptr<Socket>(dst)](Message &&msg) {
            sim_.schedule(latency, [this, peer, msg = std::move(msg)] {
                if (auto dst = peer.lock())
                    dst->deliver(msg, sim_.now());
            });
        };
    };
    sock_a->setTxHandler(wire(sock_b));
    sock_b->setTxHandler(wire(sock_a));

    const Fd fd_a = installFile(pid_a, sock_a);
    const Fd fd_b = installFile(pid_b, sock_b);
    return {fd_a, fd_b};
}

std::shared_ptr<File>
Kernel::fileAt(Pid pid, Fd fd) const
{
    const Process &proc = processOf(pid);
    if (fd < 0 || static_cast<std::size_t>(fd) >= proc.fds.size())
        return nullptr;
    return proc.fds[fd];
}

std::shared_ptr<Socket>
Kernel::socketAt(Pid pid, Fd fd) const
{
    return std::dynamic_pointer_cast<Socket>(fileAt(pid, fd));
}

std::shared_ptr<EpollInstance>
Kernel::epollAt(Pid pid, Fd fd) const
{
    return std::dynamic_pointer_cast<EpollInstance>(fileAt(pid, fd));
}

std::shared_ptr<ListenSocket>
Kernel::listenerAt(Pid pid, Fd fd) const
{
    return std::dynamic_pointer_cast<ListenSocket>(fileAt(pid, fd));
}

// -------------------------------------------------------- syscall ops

EpollWaitOp
Kernel::epollWait(Tid tid, Fd epfd, std::size_t max_events, sim::Tick timeout)
{
    return EpollWaitOp(*this, tid, epfd, max_events, timeout);
}

SelectOp
Kernel::select(Tid tid, std::vector<Fd> fds, sim::Tick timeout)
{
    return SelectOp(*this, tid, std::move(fds), timeout);
}

RecvOp
Kernel::recv(Tid tid, Fd fd, Syscall which)
{
    if (!isRecvFamily(syscallId(which)))
        sim::fatal("Kernel::recv: %s is not a recv-family syscall",
                   syscallName(syscallId(which)).c_str());
    return RecvOp(*this, tid, fd, which);
}

SendOp
Kernel::send(Tid tid, Fd fd, Message msg, Syscall which)
{
    if (!isSendFamily(syscallId(which)))
        sim::fatal("Kernel::send: %s is not a send-family syscall",
                   syscallName(syscallId(which)).c_str());
    return SendOp(*this, tid, fd, std::move(msg), which);
}

AcceptOp
Kernel::accept(Tid tid, Fd listen_fd)
{
    return AcceptOp(*this, tid, listen_fd);
}

ComputeOp
Kernel::compute(Tid tid, sim::Tick demand)
{
    return ComputeOp(*this, tid, demand);
}

SleepOp
Kernel::sleepFor(Tid tid, sim::Tick duration)
{
    return SleepOp(*this, tid, duration);
}

// ---------------------------------------------------------- EpollWaitOp

void
EpollWaitOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    Kernel::Thread &t = k_.threadOf(tid_);
    ep_ = k_.epollAt(t.pid, epfd_);
    if (!ep_)
        sim::fatal("epoll_wait: fd %d is not an epoll instance", epfd_);

    const sim::Tick enter_cost =
        k_.fireEnter(tid_, syscallId(Syscall::EpollWait));

    auto ready = ep_->collectReady(maxEvents_);
    if (!ready.empty()) {
        result_ = std::move(ready);
        state_ = State::Done;
        k_.sim().schedule(enter_cost + k_.config().syscallBaseCost,
                          [this] { complete(); });
        return;
    }

    state_ = State::Waiting;
    waiterId_ = ep_->addWaiter([this] { onWake(); });
    if (timeout_ >= 0) {
        timer_ = k_.sim().schedule(enter_cost + timeout_,
                                   [this] { onTimeout(); });
    }
    if (fault::FaultInjector *f = k_.faultInjector();
        f && f->injectSpuriousWakeup()) {
        spuriousTimer_ = k_.sim().schedule(
            enter_cost + f->spuriousWakeupDelay(), [this] { onSpurious(); });
    }
}

void
EpollWaitOp::onSpurious()
{
    // A signal (or lost wakeup race) pops the waiter out with nothing
    // ready: the syscall returns 0 events and userspace loops around.
    if (state_ != State::Waiting)
        return;
    ep_->removeWaiter(waiterId_);
    state_ = State::Done;
    complete();
}

void
EpollWaitOp::onWake()
{
    // The epoll instance already removed this waiter before calling us.
    if (state_ != State::Waiting)
        return;
    state_ = State::Waking;
    k_.sim().schedule(k_.config().wakeLatency, [this] { finishScan(); });
}

void
EpollWaitOp::onTimeout()
{
    if (state_ == State::Waiting) {
        ep_->removeWaiter(waiterId_);
        state_ = State::Done;
        complete();
    }
    // If a wake is in flight (Waking), finishScan will complete shortly;
    // the timeout result is superseded by real readiness.
}

void
EpollWaitOp::finishScan()
{
    if (state_ != State::Waking)
        return;
    result_ = ep_->collectReady(maxEvents_);
    if (result_.empty()) {
        if (timeout_ >= 0 && !timer_.pending()) {
            // Deadline passed while we were waking: report a timeout.
            state_ = State::Done;
            complete();
            return;
        }
        // Spurious wake (another thread drained the fd): block again.
        state_ = State::Waiting;
        waiterId_ = ep_->addWaiter([this] { onWake(); });
        return;
    }
    state_ = State::Done;
    complete();
}

void
EpollWaitOp::complete()
{
    state_ = State::Done;
    timer_.cancel();
    spuriousTimer_.cancel();
    k_.finishSyscall(tid_, syscallId(Syscall::EpollWait),
                     static_cast<std::int64_t>(result_.size()), h_);
}

// -------------------------------------------------------------- SelectOp

SelectOp::~SelectOp()
{
    unobserve();
}

void
SelectOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    const sim::Tick enter_cost =
        k_.fireEnter(tid_, syscallId(Syscall::Select));

    for (Fd fd : fds_) {
        auto file = k_.fileAt(k_.threadOf(tid_).pid, fd);
        if (file && file->readable())
            result_.push_back(fd);
    }
    if (!result_.empty()) {
        state_ = State::Done;
        k_.sim().schedule(enter_cost + k_.config().syscallBaseCost,
                          [this] { complete(); });
        return;
    }

    state_ = State::Waiting;
    observing_ = true;
    for (Fd fd : fds_) {
        auto file = k_.fileAt(k_.threadOf(tid_).pid, fd);
        if (file)
            file->addObserver(this, fd);
    }
    if (timeout_ >= 0) {
        timer_ = k_.sim().schedule(enter_cost + timeout_,
                                   [this] { onTimeout(); });
    }
    if (fault::FaultInjector *f = k_.faultInjector();
        f && f->injectSpuriousWakeup()) {
        spuriousTimer_ = k_.sim().schedule(
            enter_cost + f->spuriousWakeupDelay(), [this] { onSpurious(); });
    }
}

void
SelectOp::onSpurious()
{
    if (state_ != State::Waiting)
        return;
    unobserve();
    state_ = State::Done;
    complete();
}

void
SelectOp::unobserve()
{
    if (!observing_)
        return;
    observing_ = false;
    const Pid pid = k_.threadOf(tid_).pid;
    for (Fd fd : fds_) {
        auto file = k_.fileAt(pid, fd);
        if (file)
            file->removeObserver(this);
    }
}

void
SelectOp::onReadable(Fd)
{
    if (state_ != State::Waiting)
        return;
    state_ = State::Waking;
    unobserve();
    k_.sim().schedule(k_.config().wakeLatency, [this] { finishScan(); });
}

void
SelectOp::onTimeout()
{
    if (state_ == State::Waiting) {
        unobserve();
        state_ = State::Done;
        complete();
    }
}

void
SelectOp::finishScan()
{
    if (state_ != State::Waking)
        return;
    const Pid pid = k_.threadOf(tid_).pid;
    result_.clear();
    for (Fd fd : fds_) {
        auto file = k_.fileAt(pid, fd);
        if (file && file->readable())
            result_.push_back(fd);
    }
    if (result_.empty()) {
        if (timeout_ >= 0 && !timer_.pending()) {
            state_ = State::Done;
            complete();
            return;
        }
        state_ = State::Waiting;
        observing_ = true;
        for (Fd fd : fds_) {
            auto file = k_.fileAt(pid, fd);
            if (file)
                file->addObserver(this, fd);
        }
        return;
    }
    state_ = State::Done;
    complete();
}

void
SelectOp::complete()
{
    state_ = State::Done;
    timer_.cancel();
    spuriousTimer_.cancel();
    k_.finishSyscall(tid_, syscallId(Syscall::Select),
                     static_cast<std::int64_t>(result_.size()), h_);
}

// ---------------------------------------------------------------- RecvOp

void
RecvOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    start();
}

void
RecvOp::start()
{
    const sim::Tick enter_cost = k_.fireEnter(tid_, syscallId(which_));
    k_.sim().schedule(enter_cost + k_.config().syscallBaseCost, [this] {
        fault::FaultInjector *f = k_.faultInjector();
        if (f && f->injectEintr(restarts_)) {
            // Interrupted by a signal before completing; SA_RESTART
            // semantics reissue the syscall (fresh enter/exit pair).
            ++restarts_;
            const sim::Tick exit_cost =
                k_.fireExit(tid_, syscallId(which_), kEintr);
            k_.sim().schedule(exit_cost, [this] { start(); });
            return;
        }
        auto sock = k_.socketAt(k_.threadOf(tid_).pid, fd_);
        if (!sock || !sock->hasData() || (f && f->injectEagain())) {
            result_.ret = kEagain;
            k_.finishSyscall(tid_, syscallId(which_), result_.ret, h_);
            return;
        }
        result_.msg = sock->pop();
        result_.ok = true;
        result_.ret = static_cast<std::int64_t>(result_.msg.bytes);
        const unsigned pieces =
            f ? f->partialPieces(result_.msg.bytes) : 1;
        if (pieces <= 1) {
            k_.finishSyscall(tid_, syscallId(which_), result_.ret, h_);
            return;
        }
        // Partial read: the kernel hands the payload out over several
        // short syscalls. The message itself stays intact (it left the
        // socket queue above); the observer just sees extra recv exits
        // with partial byte counts.
        bytesLeft_ = result_.msg.bytes;
        piecesLeft_ = pieces;
        pieceBytes_ = result_.msg.bytes / pieces;
        partialStep();
    });
}

void
RecvOp::partialStep()
{
    const std::uint64_t this_bytes =
        piecesLeft_ == 1 ? bytesLeft_ : pieceBytes_;
    bytesLeft_ -= this_bytes;
    --piecesLeft_;
    const auto ret = static_cast<std::int64_t>(this_bytes);
    if (piecesLeft_ == 0) {
        result_.ret = ret;
        k_.finishSyscall(tid_, syscallId(which_), ret, h_);
        return;
    }
    const sim::Tick exit_cost = k_.fireExit(tid_, syscallId(which_), ret);
    k_.sim().schedule(exit_cost, [this] {
        const sim::Tick enter_cost = k_.fireEnter(tid_, syscallId(which_));
        k_.sim().schedule(enter_cost + k_.config().syscallBaseCost,
                          [this] { partialStep(); });
    });
}

// ---------------------------------------------------------------- SendOp

void
SendOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    start();
}

void
SendOp::start()
{
    const sim::Tick enter_cost = k_.fireEnter(tid_, syscallId(which_));
    k_.sim().schedule(enter_cost + k_.config().syscallBaseCost, [this] {
        fault::FaultInjector *f = k_.faultInjector();
        if (f && f->injectEintr(restarts_)) {
            // Interrupted before any byte was queued; restart cleanly.
            ++restarts_;
            const sim::Tick exit_cost =
                k_.fireExit(tid_, syscallId(which_), kEintr);
            k_.sim().schedule(exit_cost, [this] { start(); });
            return;
        }
        auto sock = k_.socketAt(k_.threadOf(tid_).pid, fd_);
        if (!sock) {
            ret_ = kEagain;
            k_.finishSyscall(tid_, syscallId(which_), ret_, h_);
            return;
        }
        ret_ = static_cast<std::int64_t>(msg_.bytes);
        const unsigned pieces = f ? f->partialPieces(msg_.bytes) : 1;
        if (pieces <= 1) {
            sock->transmit(std::move(msg_));
            k_.finishSyscall(tid_, syscallId(which_), ret_, h_);
            return;
        }
        // Partial write: several short send syscalls; the full message
        // hits the wire once the last piece is written.
        bytesLeft_ = msg_.bytes;
        piecesLeft_ = pieces;
        pieceBytes_ = msg_.bytes / pieces;
        partialStep();
    });
}

void
SendOp::partialStep()
{
    const std::uint64_t this_bytes =
        piecesLeft_ == 1 ? bytesLeft_ : pieceBytes_;
    bytesLeft_ -= this_bytes;
    --piecesLeft_;
    const auto ret = static_cast<std::int64_t>(this_bytes);
    if (piecesLeft_ == 0) {
        auto sock = k_.socketAt(k_.threadOf(tid_).pid, fd_);
        if (sock)
            sock->transmit(std::move(msg_));
        k_.finishSyscall(tid_, syscallId(which_), ret, h_);
        return;
    }
    const sim::Tick exit_cost = k_.fireExit(tid_, syscallId(which_), ret);
    k_.sim().schedule(exit_cost, [this] {
        const sim::Tick enter_cost = k_.fireEnter(tid_, syscallId(which_));
        k_.sim().schedule(enter_cost + k_.config().syscallBaseCost,
                          [this] { partialStep(); });
    });
}

// -------------------------------------------------------------- AcceptOp

void
AcceptOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    const sim::Tick enter_cost =
        k_.fireEnter(tid_, syscallId(Syscall::Accept));
    k_.sim().schedule(enter_cost + k_.config().syscallBaseCost, [this] {
        const Pid pid = k_.threadOf(tid_).pid;
        auto listener = k_.listenerAt(pid, listenFd_);
        if (listener && listener->hasPending()) {
            newFd_ = k_.installFile(pid, listener->acceptOne());
        } else {
            newFd_ = static_cast<Fd>(kEagain);
        }
        k_.finishSyscall(tid_, syscallId(Syscall::Accept), newFd_, h_);
    });
}

// ------------------------------------------------------------- ComputeOp

void
ComputeOp::await_suspend(std::coroutine_handle<> h)
{
    // Capture the kernel, not `this`: the op frame dies as the coroutine
    // resumes, while the callback object outlives the resume call.
    Kernel *k = &k_;
    k_.cpu().submit(demand_,
                    CpuModel::TaskRef{static_cast<std::uint32_t>(tid_),
                                      k_.pidTgidOf(tid_)},
                    [k, h] { k->resumeHandle(h); });
}

// --------------------------------------------------------------- SleepOp

void
SleepOp::await_suspend(std::coroutine_handle<> h)
{
    const sim::Tick enter_cost =
        k_.fireEnter(tid_, syscallId(Syscall::Nanosleep));
    k_.sim().schedule(enter_cost + duration_, [this, h] {
        k_.finishSyscall(tid_, syscallId(Syscall::Nanosleep), 0, h);
    });
}

} // namespace reqobs::kernel
