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
#include <map>
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

/** Awaitable epoll_wait(2). Resumes with the ready-fd list. */
class EpollWaitOp
{
  public:
    EpollWaitOp(Kernel &k, Tid tid, Fd epfd, std::size_t max_events,
                sim::Tick timeout)
        : k_(k), tid_(tid), epfd_(epfd), maxEvents_(max_events),
          timeout_(timeout)
    {}

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::vector<ReadyFd> await_resume() { return std::move(result_); }

  private:
    friend class Kernel;

    enum class State { Waiting, Waking, Done };

    Kernel &k_;
    Tid tid_;
    Fd epfd_;
    std::size_t maxEvents_;
    sim::Tick timeout_; ///< -1 = block forever
    std::coroutine_handle<> h_;
    std::shared_ptr<EpollInstance> ep_;
    std::vector<ReadyFd> result_;
    State state_ = State::Waiting;
    EpollInstance::WaiterId waiterId_ = 0;
    sim::EventId timer_;
    sim::EventId spuriousTimer_;

    void onWake();
    void onTimeout();
    void onSpurious();
    void finishScan();
    void complete();
};

/** Awaitable select(2) over an explicit fd list (tailbench-style). */
class SelectOp : public ReadinessObserver
{
  public:
    SelectOp(Kernel &k, Tid tid, std::vector<Fd> fds, sim::Tick timeout)
        : k_(k), tid_(tid), fds_(std::move(fds)), timeout_(timeout)
    {}

    ~SelectOp() override;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::vector<Fd> await_resume() { return std::move(result_); }

    void onReadable(Fd fd) override;

  private:
    enum class State { Waiting, Waking, Done };

    Kernel &k_;
    Tid tid_;
    std::vector<Fd> fds_;
    sim::Tick timeout_;
    std::coroutine_handle<> h_;
    std::vector<Fd> result_;
    State state_ = State::Waiting;
    bool observing_ = false;
    sim::EventId timer_;
    sim::EventId spuriousTimer_;

    void unobserve();
    void onTimeout();
    void onSpurious();
    void finishScan();
    void complete();
};

/** Awaitable recv-family syscall (read / recvfrom / recvmsg). */
class RecvOp
{
  public:
    RecvOp(Kernel &k, Tid tid, Fd fd, Syscall which)
        : k_(k), tid_(tid), fd_(fd), which_(which)
    {}

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    RecvResult await_resume() { return std::move(result_); }

  private:
    Kernel &k_;
    Tid tid_;
    Fd fd_;
    Syscall which_;
    std::coroutine_handle<> h_;
    RecvResult result_;
    unsigned restarts_ = 0;       ///< EINTR restarts so far
    unsigned piecesLeft_ = 0;     ///< partial-read syscalls still to issue
    std::uint64_t bytesLeft_ = 0;
    std::uint64_t pieceBytes_ = 0;

    void start();
    void partialStep();
};

/** Awaitable send-family syscall (write / sendto / sendmsg). */
class SendOp
{
  public:
    SendOp(Kernel &k, Tid tid, Fd fd, Message msg, Syscall which)
        : k_(k), tid_(tid), fd_(fd), msg_(std::move(msg)), which_(which)
    {}

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::int64_t await_resume() const { return ret_; }

  private:
    Kernel &k_;
    Tid tid_;
    Fd fd_;
    Message msg_;
    Syscall which_;
    std::coroutine_handle<> h_;
    std::int64_t ret_ = 0;
    unsigned restarts_ = 0;       ///< EINTR restarts so far
    unsigned piecesLeft_ = 0;     ///< partial-write syscalls still to issue
    std::uint64_t bytesLeft_ = 0;
    std::uint64_t pieceBytes_ = 0;

    void start();
    void partialStep();
};

/** Awaitable accept(2): dequeues one pending connection. */
class AcceptOp
{
  public:
    AcceptOp(Kernel &k, Tid tid, Fd listen_fd)
        : k_(k), tid_(tid), listenFd_(listen_fd)
    {}

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);

    /** New connection fd, or -EAGAIN if none pending. */
    Fd await_resume() const { return newFd_; }

  private:
    Kernel &k_;
    Tid tid_;
    Fd listenFd_;
    std::coroutine_handle<> h_;
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
class SleepOp
{
  public:
    SleepOp(Kernel &k, Tid tid, sim::Tick duration)
        : k_(k), tid_(tid), duration_(duration)
    {}

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}

  private:
    Kernel &k_;
    Tid tid_;
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
    EpollWaitOp epollWait(Tid tid, Fd epfd, std::size_t max_events,
                          sim::Tick timeout);
    SelectOp select(Tid tid, std::vector<Fd> fds, sim::Tick timeout);
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
    friend class EpollWaitOp;
    friend class FutexWaitOp;
    friend class UringEnterOp;
    friend class SelectOp;
    friend class RecvOp;
    friend class SendOp;
    friend class AcceptOp;
    friend class ComputeOp;
    friend class SleepOp;

    struct Process
    {
        Pid pid;
        std::string name;
        /** Open files indexed by fd; nothing is ever closed. */
        std::deque<std::shared_ptr<File>> fds;
        Fd nextFd = 3;
    };

    struct Thread
    {
        Tid tid;
        Pid pid;
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
    std::map<Pid, Process> processes_;
    std::map<Tid, Thread> threads_;
    Pid nextPid_ = 1000;
    Tid nextTid_ = 5000;
    /** Connection ids of socketPair() sockets, counted per kernel. */
    std::uint64_t nextPairId_ = 1u << 30;
    std::uint64_t syscalls_ = 0;
    std::map<Pid, std::uint64_t> syscallsByTgid_;
    fault::FaultInjector *fault_ = nullptr;

    Process &processOf(Pid pid);
    const Process &processOf(Pid pid) const;
    Thread &threadOf(Tid tid);

    Fd installFile(Pid pid, std::shared_ptr<File> file);

    /** Fire sys_enter for @p tid; returns total probe cost. */
    sim::Tick fireEnter(Tid tid, std::int64_t syscall);

    /** Fire sys_exit; returns total probe cost. */
    sim::Tick fireExit(Tid tid, std::int64_t syscall, std::int64_t ret);

    /**
     * Fire sys_exit and resume @p h after the exit-probe cost. Shared
     * completion path for all syscall ops.
     */
    void finishSyscall(Tid tid, std::int64_t syscall, std::int64_t ret,
                       std::coroutine_handle<> h);

    /** Resume @p h now unless its coroutine already finished. */
    void resumeHandle(std::coroutine_handle<> h);
};

} // namespace reqobs::kernel

#endif // REQOBS_KERNEL_KERNEL_HH
