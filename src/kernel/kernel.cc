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

/**
 * Entry @p id of a table indexed by id - @p first, or null if the id
 * was never handed out (entryAt() panics). Ids below @p first wrap
 * past the end.
 */
template <typename Table>
auto *
entryOf(Table &table, std::uint32_t id, std::uint32_t first)
{
    const std::uint32_t i = id - first;
    return i < table.size() ? &table[i] : nullptr;
}

template <typename Table>
auto &
entryAt(Table &table, std::uint32_t id, std::uint32_t first, const char *what)
{
    auto *entry = entryOf(table, id, first);
    if (!entry)
        sim::panic("Kernel: unknown %s %u", what, id);
    return *entry;
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
    for (Thread &thread : threads_) {
        if (thread.coro)
            thread.coro.destroy();
    }
}

// --------------------------------------------------------------- helpers

const Kernel::Thread &
Kernel::threadOf(Tid tid) const
{
    return entryAt(threads_, tid, kFirstTid, "tid");
}

Fd
Kernel::installFile(Pid pid, std::shared_ptr<File> file)
{
    Process &proc = entryAt(processes_, pid, kFirstPid, "pid");
    proc.fds.push_back(std::move(file));
    return static_cast<Fd>(proc.fds.size() - 1);
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
    const Thread &thread = threadOf(tid);
    ++syscalls_;
    ++thread.proc->syscalls;
    RawSyscallEvent ev;
    ev.point = TracepointId::SysEnter;
    ev.syscall = syscall;
    ev.pidTgid = thread.pidTgid;
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
    ev.pidTgid = threadOf(tid).pidTgid;
    ev.timestamp = tracepointTimestamp(sim_.now(), fault_);
    return tracepoints_.fire(ev);
}

// -------------------------------------------------- processes and threads

Pid
Kernel::createProcess(const std::string &name)
{
    const Pid pid = kFirstPid + static_cast<Pid>(processes_.size());
    Process &proc = processes_.emplace_back();
    proc.name = name;
    proc.fds.resize(3); // fds 0-2 stay empty
    return pid;
}

const std::string &
Kernel::processName(Pid pid) const
{
    return entryAt(processes_, pid, kFirstPid, "pid").name;
}

Tid
Kernel::spawnThread(Pid pid, ThreadBody body)
{
    Process &proc = entryAt(processes_, pid, kFirstPid, "pid");
    const Tid tid = kFirstTid + static_cast<Tid>(threads_.size());
    Thread &rec = threads_.emplace_back();
    rec.pidTgid = makePidTgid(pid, tid);
    rec.proc = &proc;
    rec.body = std::move(body);

    // Invoke the *stored* closure: its captures must outlive the
    // coroutine frame (see Thread::body).
    Task task = rec.body(*this, tid);
    Task::Handle h = task.release();
    if (!h)
        sim::panic("Kernel::spawnThread: body returned an empty task");
    h.promise().onFinal = [&rec] { rec.finished = true; };
    rec.coro = h;
    sim_.schedule(0, [this, h] { resumeHandle(h); });
    return tid;
}

PidTgid
Kernel::pidTgidOf(Tid tid) const
{
    return threadOf(tid).pidTgid;
}

bool
Kernel::threadFinished(Tid tid) const
{
    const Thread *thread = entryOf(threads_, tid, kFirstTid);
    return thread && thread->finished;
}

std::uint64_t
Kernel::syscallCountFor(Pid pid) const
{
    const Process *proc = entryOf(processes_, pid, kFirstPid);
    return proc ? proc->syscalls : 0;
}

// ----------------------------------------------------- descriptor setup

Fd
Kernel::epollCreate(Tid tid)
{
    const Pid pid = tgidOf(threadOf(tid).pidTgid);
    fireEnter(tid, syscallId(Syscall::EpollCreate1));
    const Fd fd = installFile(pid, std::make_shared<EpollInstance>());
    fireExit(tid, syscallId(Syscall::EpollCreate1), fd);
    return fd;
}

void
Kernel::epollCtlAdd(Tid tid, Fd epfd, Fd fd)
{
    const Pid pid = tgidOf(threadOf(tid).pidTgid);
    fireEnter(tid, syscallId(Syscall::EpollCtl));
    auto ep = epollAt(pid, epfd);
    if (!ep)
        sim::fatal("epoll_ctl: fd %d is not an epoll instance", epfd);
    auto file = fileAt(pid, fd);
    if (!file)
        sim::fatal("epoll_ctl: fd %d does not exist", fd);
    ep->add(fd, file);
    fireExit(tid, syscallId(Syscall::EpollCtl), 0);
}

Fd
Kernel::listen(Tid tid)
{
    const Pid pid = tgidOf(threadOf(tid).pidTgid);
    fireEnter(tid, syscallId(Syscall::Socket));
    fireExit(tid, syscallId(Syscall::Socket), 0);
    fireEnter(tid, syscallId(Syscall::Bind));
    fireExit(tid, syscallId(Syscall::Bind), 0);
    fireEnter(tid, syscallId(Syscall::Listen));
    const Fd fd = installFile(pid, std::make_shared<ListenSocket>());
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
    const Process &proc = entryAt(processes_, pid, kFirstPid, "pid");
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

PollOp
Kernel::epollWait(Tid tid, Fd epfd, std::size_t max_events, sim::Tick timeout)
{
    auto ep = epollAt(tgidOf(threadOf(tid).pidTgid), epfd);
    if (!ep)
        sim::fatal("epoll_wait: fd %d is not an epoll instance", epfd);
    return PollOp(*this, tid, std::move(ep), max_events, timeout);
}

PollOp
Kernel::select(Tid tid, std::vector<Fd> fds, sim::Tick timeout)
{
    return PollOp(*this, tid, std::move(fds), timeout);
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

// ------------------------------------------------------------ SyscallOp

sim::Tick
SyscallOp::enter()
{
    return k_.fireEnter(tid_, syscall_);
}

sim::Tick
SyscallOp::exit(std::int64_t ret)
{
    return k_.fireExit(tid_, syscall_, ret);
}

void
SyscallOp::finish(std::int64_t ret)
{
    // Capture the kernel, not `this`: the op dies as the coroutine
    // resumes, while the callback object outlives the resume call.
    Kernel *k = &k_;
    k_.sim().schedule(exit(ret), [k, h = h_] { k->resumeHandle(h); });
}

Pid
SyscallOp::pid() const
{
    return tgidOf(k_.threadOf(tid_).pidTgid);
}

// --------------------------------------------------------------- PollOp

void
PollOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    const sim::Tick enter_cost = enter();
    result_ = scan();
    if (!result_.empty()) {
        k_.sim().schedule(enter_cost + k_.config().syscallBaseCost,
                          [this] { complete(); });
        return;
    }
    arm();
    if (timeout_ >= 0) {
        timer_ = k_.sim().schedule(enter_cost + timeout_,
                                   [this] { onTimeout(); });
    }
    // A signal (or lost wakeup race) pops the waiter out with nothing
    // ready: the syscall returns no fds and userspace loops around.
    if (fault::FaultInjector *f = k_.faultInjector();
        f && f->injectSpuriousWakeup()) {
        spuriousTimer_ = k_.sim().schedule(
            enter_cost + f->spuriousWakeupDelay(), [this] { onTimeout(); });
    }
}

std::vector<ReadyFd>
PollOp::scan()
{
    if (ep_)
        return ep_->collectReady(maxEvents_);
    std::vector<ReadyFd> ready;
    const Pid p = pid();
    for (Fd fd : fds_) {
        auto file = k_.fileAt(p, fd);
        if (file && file->readable())
            ready.push_back(ReadyFd{fd, true, file->writable()});
    }
    return ready;
}

void
PollOp::arm()
{
    state_ = State::Waiting;
    armed_ = true;
    if (ep_) {
        waiterId_ = ep_->addWaiter([this] { onWake(); });
        return;
    }
    const Pid p = pid();
    for (Fd fd : fds_) {
        if (auto file = k_.fileAt(p, fd))
            file->addObserver(this, fd);
    }
}

void
PollOp::disarm()
{
    if (!armed_)
        return;
    armed_ = false;
    if (ep_) {
        // A no-op when the instance already popped this waiter to wake it.
        ep_->removeWaiter(waiterId_);
        return;
    }
    const Pid p = pid();
    for (Fd fd : fds_) {
        if (auto file = k_.fileAt(p, fd))
            file->removeObserver(this);
    }
}

void
PollOp::onWake()
{
    if (state_ != State::Waiting)
        return;
    state_ = State::Waking;
    disarm();
    k_.sim().schedule(k_.config().wakeLatency, [this] { finishScan(); });
}

void
PollOp::onTimeout()
{
    // The timeout or a spurious wakeup. If a wake is in flight, its
    // rescan completes shortly and real readiness supersedes this.
    if (state_ != State::Waiting)
        return;
    disarm();
    complete();
}

void
PollOp::finishScan()
{
    result_ = scan();
    // Return what is ready; with nothing ready, a deadline that passed
    // while waking makes this a timeout.
    if (!result_.empty() || (timeout_ >= 0 && !timer_.pending())) {
        complete();
        return;
    }
    // Another thread drained the fds: block again.
    arm();
}

void
PollOp::complete()
{
    state_ = State::Done;
    timer_.cancel();
    spuriousTimer_.cancel();
    finish(static_cast<std::int64_t>(result_.size()));
}

// ----------------------------------------------------------------- IoOp

void
IoOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    start();
}

void
IoOp::start()
{
    const sim::Tick enter_cost = enter();
    k_.sim().schedule(enter_cost + k_.config().syscallBaseCost, [this] {
        fault::FaultInjector *f = k_.faultInjector();
        if (f && f->injectEintr(restarts_)) {
            // Interrupted by a signal before any byte moved; SA_RESTART
            // semantics reissue the syscall (fresh enter/exit pair).
            ++restarts_;
            k_.sim().schedule(exit(kEintr), [this] { start(); });
            return;
        }
        const std::int64_t ret = transfer(f);
        if (ret < 0) {
            finish(ret);
            return;
        }
        const auto bytes = static_cast<std::uint64_t>(ret);
        const unsigned pieces = f ? f->partialPieces(bytes) : 1;
        if (pieces <= 1) {
            completeLast(ret);
            return;
        }
        // Partial I/O: the payload moves over several short syscalls,
        // each exiting with its piece's bytes; the message itself stays
        // intact.
        bytesLeft_ = bytes;
        piecesLeft_ = pieces;
        pieceBytes_ = bytes / pieces;
        partialStep();
    });
}

void
IoOp::partialStep()
{
    const std::uint64_t this_bytes =
        piecesLeft_ == 1 ? bytesLeft_ : pieceBytes_;
    bytesLeft_ -= this_bytes;
    --piecesLeft_;
    const auto ret = static_cast<std::int64_t>(this_bytes);
    if (piecesLeft_ == 0) {
        completeLast(ret);
        return;
    }
    k_.sim().schedule(exit(ret), [this] {
        k_.sim().schedule(enter() + k_.config().syscallBaseCost,
                          [this] { partialStep(); });
    });
}

std::int64_t
RecvOp::transfer(fault::FaultInjector *f)
{
    auto sock = k_.socketAt(pid(), fd_);
    if (!sock || !sock->hasData() || (f && f->injectEagain())) {
        result_.ret = kEagain;
        return kEagain;
    }
    result_.msg = sock->pop();
    result_.ok = true;
    return result_.msg.bytes;
}

void
RecvOp::completeLast(std::int64_t ret)
{
    // After a partial read: the last piece's bytes.
    result_.ret = ret;
    finish(ret);
}

std::int64_t
SendOp::transfer(fault::FaultInjector *)
{
    sock_ = k_.socketAt(pid(), fd_);
    ret_ = sock_ ? static_cast<std::int64_t>(msg_.bytes) : kEagain;
    return ret_;
}

void
SendOp::completeLast(std::int64_t ret)
{
    // The full message hits the wire with the last piece, before sys_exit
    // fires: its delivery event is scheduled ahead of the resume.
    sock_->transmit(std::move(msg_));
    finish(ret);
}

// --------------------------------------------------------------- WaitOp

void
WaitOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    enter();
    queue_.push_back(this);
}

bool
WaitOp::wakeOne(Queue &queue)
{
    if (queue.empty())
        return false;
    WaitOp *op = queue.front();
    queue.pop_front();
    op->k_.sim().schedule(op->k_.config().wakeLatency,
                          [op] { op->finish(op->ret_); });
    return true;
}

// -------------------------------------------------------------- AcceptOp

void
AcceptOp::await_suspend(std::coroutine_handle<> h)
{
    h_ = h;
    k_.sim().schedule(enter() + k_.config().syscallBaseCost, [this] {
        const Pid p = pid();
        auto listener = k_.listenerAt(p, listenFd_);
        if (listener && listener->hasPending())
            newFd_ = k_.installFile(p, listener->acceptOne());
        else
            newFd_ = static_cast<Fd>(kEagain);
        finish(newFd_);
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
    h_ = h;
    k_.sim().schedule(enter() + duration_, [this] { finish(0); });
}

} // namespace reqobs::kernel
