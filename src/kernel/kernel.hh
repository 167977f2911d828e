/**
 * @file
 * The simulated operating system kernel.
 *
 * Owns processes, threads (coroutines), file descriptors, the CPU model
 * and the tracepoint registry, and exposes an awaitable syscall API.
 * Every syscall dispatch fires raw_syscalls:sys_enter / sys_exit exactly
 * like Linux does, which is the attachment surface for the eBPF runtime
 * in src/ebpf.
 *
 * Timing model per syscall (all simulated ticks):
 *
 *   t0              sys_enter fires; attached probes cost `c_in`
 *   t0+c_in         operation begins (base cost, plus blocking wait)
 *   t1              operation done; sys_exit fires; probes cost `c_out`
 *   t1+c_out        thread resumes
 *
 * so the duration visible to an eBPF probe (exit ts − enter ts) includes
 * probe overhead on the entry side, exactly as on real hardware — this is
 * what bench_overhead measures.
 *
 * Lifetime rules: the Simulation must outlive the Kernel, and the event
 * queue must not be pumped after the Kernel is destroyed; the kernel's
 * events are plain callbacks on that rule (DESIGN.md §16).
 */

#ifndef REQOBS_KERNEL_KERNEL_HH
#define REQOBS_KERNEL_KERNEL_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "kernel/cpu.hh"
#include "kernel/epoll.hh"
#include "kernel/socket.hh"
#include "kernel/syscalls.hh"
#include "kernel/task.hh"
#include "kernel/tracepoint.hh"
#include "kernel/types.hh"
#include "sim/simulation.hh"

namespace reqobs::kernel {

class Kernel;

/** Tunable kernel timing parameters. */
struct KernelConfig
{
    CpuConfig cpu;
    /** Fixed in-kernel cost of a non-blocking syscall. */
    sim::Tick syscallBaseCost = sim::nanoseconds(600);
    /** Scheduler wake-up latency after a blocking wait is satisfied. */
    sim::Tick wakeLatency = sim::nanoseconds(1500);
};

/** Result of a recv-family syscall. */
struct RecvResult
{
    std::int64_t ret = 0; ///< bytes, or -EAGAIN when nothing was queued
    bool ok = false;      ///< true when a message was dequeued
    Message msg;
};

// ------------------------------------------------------------------ ops
//
// Awaiter objects returned by the Kernel's syscall API. They live in the
// awaiting coroutine's frame, so their addresses stay valid for the whole
// suspension; the kernel registers completion callbacks against them.
// Every blocking syscall takes one of three paths: PollOp (epoll_wait,
// select), the IoOp pair (recv and send families) or WaitOp (futex,
// io_uring_enter); DESIGN.md §18.

/**
 * What every syscall op shares: the calling thread, the syscall id and
 * the suspended coroutine, plus the tracepoints around them.
 */
class SyscallOp
{
  public:
    /** Callbacks hold the op's address: it never moves. */
    SyscallOp(const SyscallOp &) = delete;
    SyscallOp &operator=(const SyscallOp &) = delete;

    bool await_ready() const { return false; }

  protected:
    SyscallOp(Kernel &k, Tid tid, Syscall which)
        : k_(k), tid_(tid), syscall_(syscallId(which))
    {}

    /** Fire sys_enter; returns the entry-probe cost. */
    sim::Tick enter();
    /** Fire sys_exit without resuming; returns the exit-probe cost. */
    sim::Tick exit(std::int64_t ret);
    /** Fire sys_exit and resume the coroutine after the exit-probe cost. */
    void finish(std::int64_t ret);
    /** The calling thread's process. */
    Pid pid() const;

    Kernel &k_;
    Tid tid_;
    std::int64_t syscall_;
    std::coroutine_handle<> h_;
};

/**
 * Awaitable epoll_wait(2) or select(2). Scans; if nothing is ready,
 * blocks until a readiness edge, wakes after the wake latency and
 * rescans, blocking again if the fds were drained meanwhile. A timeout
 * or an injected spurious wakeup returns no fds. The two calls differ
 * only in how they scan, arm and disarm: the epoll instance's waiter
 * queue, or one readiness observer per selected fd.
 */
class PollOp : public SyscallOp, public ReadinessObserver
{
  public:
    /** epoll_wait on @p ep. */
    PollOp(Kernel &k, Tid tid, std::shared_ptr<EpollInstance> ep,
           std::size_t max_events, sim::Tick timeout)
        : SyscallOp(k, tid, Syscall::EpollWait), ep_(std::move(ep)),
          maxEvents_(max_events), timeout_(timeout)
    {}

    /** select over @p fds. */
    PollOp(Kernel &k, Tid tid, std::vector<Fd> fds, sim::Tick timeout)
        : SyscallOp(k, tid, Syscall::Select), fds_(std::move(fds)),
          timeout_(timeout)
    {}

    ~PollOp() override { disarm(); }

    void await_suspend(std::coroutine_handle<> h);
    std::vector<ReadyFd> await_resume() { return std::move(result_); }

    /** Readiness edge on a selected fd. */
    void onReadable(Fd) override { onWake(); }

  private:
    enum class State { Waiting, Waking, Done };

    std::shared_ptr<EpollInstance> ep_; ///< null for select
    std::vector<Fd> fds_;               ///< select's fd list
    std::size_t maxEvents_ = 0;
    sim::Tick timeout_; ///< -1 = block forever
    std::vector<ReadyFd> result_;
    State state_ = State::Waiting;
    bool armed_ = false;
    EpollInstance::WaiterId waiterId_ = 0;
    sim::EventId timer_;
    sim::EventId spuriousTimer_;

    std::vector<ReadyFd> scan();
    void arm();
    void disarm();
    void onWake();
    void onTimeout();
    void finishScan();
    void complete();
};

/**
 * Awaitable recv- or send-family syscall. The EINTR restart (a fresh
 * enter/exit pair) and the partial-I/O stepping (one short syscall per
 * piece) live here; the two families supply only the transfer and the
 * step that completes the last piece.
 */
class IoOp : public SyscallOp
{
  public:
    void await_suspend(std::coroutine_handle<> h);

  protected:
    IoOp(Kernel &k, Tid tid, Fd fd, Syscall which)
        : SyscallOp(k, tid, which), fd_(fd)
    {}

    /** Move the data; returns its bytes, or -EAGAIN. */
    virtual std::int64_t transfer(fault::FaultInjector *f) = 0;
    /** Complete the last (or only) piece of @p ret bytes. */
    virtual void completeLast(std::int64_t ret) = 0;

    Fd fd_;

  private:
    unsigned restarts_ = 0;   ///< EINTR restarts so far
    unsigned piecesLeft_ = 0; ///< partial syscalls still to issue
    std::uint64_t bytesLeft_ = 0;
    std::uint64_t pieceBytes_ = 0;

    void start();
    void partialStep();
};

/** Awaitable recv-family syscall (read / recvfrom / recvmsg). */
class RecvOp final : public IoOp
{
  public:
    RecvOp(Kernel &k, Tid tid, Fd fd, Syscall which) : IoOp(k, tid, fd, which)
    {}

    RecvResult await_resume() { return std::move(result_); }

  private:
    RecvResult result_;

    std::int64_t transfer(fault::FaultInjector *f) override;
    void completeLast(std::int64_t ret) override;
};

/** Awaitable send-family syscall (write / sendto / sendmsg). */
class SendOp final : public IoOp
{
  public:
    SendOp(Kernel &k, Tid tid, Fd fd, Message msg, Syscall which)
        : IoOp(k, tid, fd, which), msg_(std::move(msg))
    {}

    /** The whole message's bytes, or -EAGAIN. */
    std::int64_t await_resume() const { return ret_; }

  private:
    Message msg_;
    std::shared_ptr<Socket> sock_;
    std::int64_t ret_ = 0;

    std::int64_t transfer(fault::FaultInjector *f) override;
    void completeLast(std::int64_t ret) override;
};

/**
 * Awaitable park-and-wake-one wait (futex, io_uring_enter): fires
 * sys_enter and parks in its owner's FIFO; wakeOne() resumes the oldest
 * waiter, which exits with the op's return value after the wake latency.
 */
class WaitOp : public SyscallOp
{
  public:
    using Queue = std::deque<WaitOp *>;

    /** @p ready: nothing to wait for, so no syscall at all. */
    WaitOp(Kernel &k, Tid tid, Syscall which, std::int64_t ret, Queue &queue,
           bool ready = false)
        : SyscallOp(k, tid, which), ret_(ret), queue_(queue), ready_(ready)
    {}

    bool await_ready() const { return ready_; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}

    /** Wake the oldest waiter in @p queue. @return true if one was woken. */
    static bool wakeOne(Queue &queue);

  private:
    std::int64_t ret_;
    Queue &queue_;
    bool ready_;
};

/** Awaitable accept(2): dequeues one pending connection. */
class AcceptOp : public SyscallOp
{
  public:
    AcceptOp(Kernel &k, Tid tid, Fd listen_fd)
        : SyscallOp(k, tid, Syscall::Accept), listenFd_(listen_fd)
    {}

    void await_suspend(std::coroutine_handle<> h);

    /** New connection fd, or -EAGAIN if none pending. */
    Fd await_resume() const { return newFd_; }

  private:
    Fd listenFd_;
    Fd newFd_ = -11;
};

/**
 * Awaitable userspace CPU burst. Not a syscall — no raw_syscalls
 * tracepoints fire — but under SchedModel::Discrete the CPU model
 * emits sched_wakeup/sched_switch transitions for the burst's task.
 */
class ComputeOp
{
  public:
    ComputeOp(Kernel &k, Tid tid, sim::Tick demand)
        : k_(k), tid_(tid), demand_(demand)
    {}

    bool await_ready() const { return demand_ <= 0; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}

  private:
    Kernel &k_;
    Tid tid_;
    sim::Tick demand_;
};

/** Awaitable nanosleep(2). */
class SleepOp : public SyscallOp
{
  public:
    SleepOp(Kernel &k, Tid tid, sim::Tick duration)
        : SyscallOp(k, tid, Syscall::Nanosleep), duration_(duration)
    {}

    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}

  private:
    sim::Tick duration_;
};

// --------------------------------------------------------------- Kernel

/** See file comment. */
class Kernel
{
  public:
    Kernel(sim::Simulation &sim, const KernelConfig &config = {});
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Thread body: a coroutine taking (kernel, own tid). */
    using ThreadBody = std::function<Task(Kernel &, Tid)>;

    /** @name Processes and threads. @{ */
    Pid createProcess(const std::string &name);
    const std::string &processName(Pid pid) const;

    /**
     * Create a thread in @p pid running @p body. The coroutine starts
     * on the next event-queue dispatch at the current tick.
     */
    Tid spawnThread(Pid pid, ThreadBody body);

    /** pid_tgid for a live thread (what the eBPF helper returns). */
    PidTgid pidTgidOf(Tid tid) const;

    /** True once the thread's coroutine ran to completion. */
    bool threadFinished(Tid tid) const;
    /** @} */

    /** @name Descriptor management (synchronous setup syscalls). @{ */

    /** epoll_create1(2): new epoll instance in the thread's process. */
    Fd epollCreate(Tid tid);

    /** epoll_ctl(EPOLL_CTL_ADD): watch @p fd. */
    void epollCtlAdd(Tid tid, Fd epfd, Fd fd);

    /** socket+bind+listen collapsed into one: new listening socket. */
    Fd listen(Tid tid);

    /** @} */

    /** @name Non-syscall plumbing for harnesses and the net layer. @{ */

    /** Install a connected socket directly into a process's fd table. */
    std::pair<Fd, std::shared_ptr<Socket>> installSocket(Pid pid,
                                                         std::uint64_t conn_id);

    /** Queue an incoming connection on a listening socket. */
    void enqueueIncomingConnection(Pid pid, Fd listen_fd,
                                   std::shared_ptr<Socket> sock);

    /**
     * Cross-wired in-machine socket pair between two processes with a
     * fixed one-way latency (used for multi-stage apps, e.g. the
     * WebSearch front-end -> index hop). Returns (fdInA, fdInB).
     */
    std::pair<Fd, Fd> socketPair(Pid pid_a, Pid pid_b, sim::Tick latency);

    std::shared_ptr<Socket> socketAt(Pid pid, Fd fd) const;
    std::shared_ptr<EpollInstance> epollAt(Pid pid, Fd fd) const;
    std::shared_ptr<ListenSocket> listenerAt(Pid pid, Fd fd) const;
    std::shared_ptr<File> fileAt(Pid pid, Fd fd) const;
    /** @} */

    /** @name Awaitable syscalls (see the op classes above). @{ */
    PollOp epollWait(Tid tid, Fd epfd, std::size_t max_events,
                     sim::Tick timeout);
    PollOp select(Tid tid, std::vector<Fd> fds, sim::Tick timeout);
    RecvOp recv(Tid tid, Fd fd, Syscall which = Syscall::Recvfrom);
    SendOp send(Tid tid, Fd fd, Message msg, Syscall which = Syscall::Sendto);
    AcceptOp accept(Tid tid, Fd listen_fd);
    ComputeOp compute(Tid tid, sim::Tick demand);
    SleepOp sleepFor(Tid tid, sim::Tick duration);
    /** @} */

    /** Tracepoint registry the eBPF runtime attaches to. */
    TracepointRegistry &tracepoints() { return tracepoints_; }

    /**
     * Install a fault injector for kernel-layer faults (EINTR, EAGAIN,
     * partial I/O, spurious wakeups, tracepoint clock jitter, discrete
     * switch-in delays). Pass nullptr to disable. The injector must
     * outlive the kernel.
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        fault_ = injector;
        cpu_->setFaultInjector(injector);
    }
    fault::FaultInjector *faultInjector() const { return fault_; }

    CpuModel &cpu() { return *cpu_; }
    sim::Simulation &sim() { return sim_; }
    const KernelConfig &config() const { return config_; }

    /** Total syscalls dispatched. */
    std::uint64_t syscallCount() const { return syscalls_; }

    /**
     * Syscalls dispatched by threads of process @p pid (tgid). The basis
     * of per-tenant attribution on multi-tenant machines: userspace can
     * cross-check a tenant's in-kernel counters against the kernel's own
     * per-process accounting. Unknown pids read as 0.
     */
    std::uint64_t syscallCountFor(Pid pid) const;

  private:
    friend class SyscallOp;
    friend class AcceptOp;
    friend class ComputeOp;

    /** Ids are dense counters from here, and index the tables below. */
    static constexpr Pid kFirstPid = 1000;
    static constexpr Tid kFirstTid = 5000;

    struct Process
    {
        std::string name;
        /** Open files indexed by fd (0-2 stay empty); none ever closes. */
        std::deque<std::shared_ptr<File>> fds;
        /** Syscalls dispatched by the process's threads. */
        std::uint64_t syscalls = 0;
    };

    struct Thread
    {
        PidTgid pidTgid = 0; ///< the tgid is the owning process's pid
        Process *proc = nullptr;
        /**
         * The body closure, kept alive for the thread's whole life: a
         * lambda coroutine's captures live in the closure object, so
         * destroying it while the coroutine is suspended would leave the
         * frame with dangling captures.
         */
        ThreadBody body;
        Task::Handle coro;
        bool finished = false;
    };

    sim::Simulation &sim_;
    KernelConfig config_;
    std::unique_ptr<CpuModel> cpu_;
    TracepointRegistry tracepoints_;
    /** Deques that never shrink: references to entries stay valid. */
    std::deque<Process> processes_;
    std::deque<Thread> threads_;
    /** Connection ids of socketPair() sockets, counted per kernel. */
    std::uint64_t nextPairId_ = 1u << 30;
    std::uint64_t syscalls_ = 0;
    fault::FaultInjector *fault_ = nullptr;

    /** An id that was never handed out panics. */
    const Thread &threadOf(Tid tid) const;

    Fd installFile(Pid pid, std::shared_ptr<File> file);

    /** Fire sys_enter for @p tid; returns total probe cost. */
    sim::Tick fireEnter(Tid tid, std::int64_t syscall);

    /** Fire sys_exit; returns total probe cost. */
    sim::Tick fireExit(Tid tid, std::int64_t syscall, std::int64_t ret);

    /** Resume @p h now unless its coroutine already finished. */
    void resumeHandle(std::coroutine_handle<> h);
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_KERNEL_HH
