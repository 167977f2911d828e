/**
 * @file
 * Unit and small integration tests for the simulated kernel: syscall
 * dispatch with tracepoints, epoll/select blocking semantics, socket
 * plumbing, the futex notifier and probe-cost charging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "kernel/kernel.hh"
#include "kernel/notifier.hh"
#include "kernel/syscalls.hh"
#include "kernel/system_spec.hh"
#include "sim/simulation.hh"

namespace reqobs::kernel {

/** Parameterised test names print the syscall, not its bytes. */
void
PrintTo(Syscall s, std::ostream *os)
{
    *os << syscallName(syscallId(s));
}

namespace {

/** Records every tracepoint event for assertions. */
struct EventLog
{
    std::vector<RawSyscallEvent> events;

    void
    attachTo(Kernel &k)
    {
        for (auto point : {TracepointId::SysEnter, TracepointId::SysExit}) {
            k.tracepoints().attach(point,
                                   [this](const RawSyscallEvent &ev) {
                                       events.push_back(ev);
                                       return sim::Tick{0};
                                   });
        }
    }

    std::size_t
    countOf(Syscall s, TracepointId point) const
    {
        std::size_t n = 0;
        for (const auto &ev : events)
            n += ev.syscall == syscallId(s) && ev.point == point;
        return n;
    }
};

struct Harness
{
    sim::Simulation sim{1};
    Kernel kernel{sim};
    EventLog log;

    Harness() { log.attachTo(kernel); }
};

// ------------------------------------------------------------ tracepoints

TEST(TracepointTest, AttachFireDetach)
{
    TracepointRegistry reg;
    int calls = 0;
    const ProbeHandle h =
        reg.attach(TracepointId::SysEnter, [&](const RawSyscallEvent &) {
            ++calls;
            return sim::Tick{7};
        });
    RawSyscallEvent ev;
    ev.point = TracepointId::SysEnter;
    EXPECT_EQ(reg.fire(ev), 7);
    ev.point = TracepointId::SysExit;
    EXPECT_EQ(reg.fire(ev), 0); // wrong point: probe not run
    EXPECT_EQ(calls, 1);
    reg.detach(h);
    ev.point = TracepointId::SysEnter;
    EXPECT_EQ(reg.fire(ev), 0);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(reg.firedCount(), 3u);
}

TEST(TracepointTest, CostsSumAcrossProbes)
{
    TracepointRegistry reg;
    for (int i = 0; i < 3; ++i) {
        reg.attach(TracepointId::SysExit,
                   [](const RawSyscallEvent &) { return sim::Tick{10}; });
    }
    RawSyscallEvent ev;
    ev.point = TracepointId::SysExit;
    EXPECT_EQ(reg.fire(ev), 30);
    EXPECT_EQ(reg.probeCount(TracepointId::SysExit), 3u);
}

TEST(TracepointTest, ProbesRunInAttachOrderPerPoint)
{
    TracepointRegistry reg;
    const TracepointId points[3] = {TracepointId::SysEnter,
                                    TracepointId::SysExit,
                                    TracepointId::SchedSwitch};
    std::vector<int> calls;
    std::vector<ProbeHandle> handles;
    auto probe = [&calls](int id) {
        return [&calls, id](const RawSyscallEvent &) {
            calls.push_back(id);
            return sim::Tick{id};
        };
    };
    // Probe i sits on points[i % 3]: the three lists interleave.
    for (int i = 0; i < 9; ++i)
        handles.push_back(reg.attach(points[i % 3], probe(i)));
    reg.detach(handles[4]); // the middle of the SysExit list
    reg.detach(ProbeHandle{9999}); // unknown: a no-op
    handles.push_back(reg.attach(TracepointId::SysExit, probe(9)));

    EXPECT_EQ(reg.probeCount(TracepointId::SysEnter), 3u);
    EXPECT_EQ(reg.probeCount(TracepointId::SysExit), 3u);
    EXPECT_EQ(reg.probeCount(TracepointId::SchedSwitch), 3u);
    EXPECT_EQ(reg.probeCount(TracepointId::NetRxEnqueue), 0u);

    auto fireAt = [&](TracepointId point, sim::Tick want_cost) {
        calls.clear();
        RawSyscallEvent ev;
        ev.point = point;
        EXPECT_EQ(reg.fire(ev), want_cost);
        return calls;
    };
    EXPECT_EQ(fireAt(TracepointId::SysEnter, 0 + 3 + 6),
              (std::vector<int>{0, 3, 6}));
    EXPECT_EQ(fireAt(TracepointId::SysExit, 1 + 7 + 9),
              (std::vector<int>{1, 7, 9}));
    EXPECT_EQ(fireAt(TracepointId::SchedSwitch, 2 + 5 + 8),
              (std::vector<int>{2, 5, 8}));
    EXPECT_EQ(fireAt(TracepointId::NetRxEnqueue, 0), std::vector<int>{});
    EXPECT_EQ(reg.firedCount(), 4u);
}

// ---------------------------------------------------------------- sockets

TEST(SocketTest, FifoDeliveryAndCounters)
{
    Socket s(42);
    EXPECT_FALSE(s.readable());
    Message a, b;
    a.requestId = 1;
    b.requestId = 2;
    s.deliver(a, 100);
    s.deliver(b, 200);
    EXPECT_TRUE(s.readable());
    EXPECT_EQ(s.rxDepth(), 2u);
    EXPECT_EQ(s.pop().requestId, 1u);
    EXPECT_EQ(s.pop().requestId, 2u);
    EXPECT_EQ(s.delivered(), 2u);
    EXPECT_EQ(s.consumed(), 2u);
}

TEST(SocketTest, TransmitInvokesHook)
{
    Socket s(1);
    std::vector<std::uint64_t> sent;
    s.setTxHandler([&](Message &&m) { sent.push_back(m.requestId); });
    Message m;
    m.requestId = 9;
    s.transmit(std::move(m));
    EXPECT_EQ(sent, (std::vector<std::uint64_t>{9}));
    EXPECT_EQ(s.transmitted(), 1u);
}

// ------------------------------------------------------------------ files

/** Logs (id, cookie) per edge; may unregister itself when notified. */
struct RecordingObserver : ReadinessObserver
{
    std::vector<std::pair<int, Fd>> *log;
    int id;
    File *unregisterFrom = nullptr;

    RecordingObserver(std::vector<std::pair<int, Fd>> *log_, int id_,
                      File *unregister_from = nullptr)
        : log(log_), id(id_), unregisterFrom(unregister_from)
    {}

    void
    onReadable(Fd fd) override
    {
        log->emplace_back(id, fd);
        if (unregisterFrom)
            unregisterFrom->removeObserver(this);
    }
};

TEST(FileTest, SignalReadableNotifiesObserversRegisteredAtTheEdge)
{
    using Log = std::vector<std::pair<int, Fd>>;
    Log log;

    // One observer: one call per edge, carrying its cookie.
    Socket one(1);
    RecordingObserver only(&log, 1);
    one.addObserver(&only, 7);
    one.deliver(Message{}, 0);
    one.deliver(Message{}, 0);
    EXPECT_EQ(log, (Log{{1, 7}, {1, 7}}));

    // A lone observer that unregisters itself hears only its edge.
    log.clear();
    Socket lone(2);
    RecordingObserver once(&log, 1, &lone);
    lone.addObserver(&once, 5);
    lone.deliver(Message{}, 0);
    lone.deliver(Message{}, 0);
    EXPECT_EQ(log, (Log{{1, 5}}));

    // Two observers, the first unregistering itself mid-loop: both hear
    // this edge in registration order; only the second hears the next.
    log.clear();
    Socket two(3);
    RecordingObserver first(&log, 1, &two);
    RecordingObserver second(&log, 2);
    two.addObserver(&first, 3);
    two.addObserver(&second, 4);
    two.deliver(Message{}, 0);
    EXPECT_EQ(log, (Log{{1, 3}, {2, 4}}));
    two.deliver(Message{}, 0);
    EXPECT_EQ(log, (Log{{1, 3}, {2, 4}, {2, 4}}));
}

// ------------------------------------------------------------------ epoll

TEST(EpollTest, LevelTriggeredCollect)
{
    auto sock = std::make_shared<Socket>(1);
    EpollInstance ep;
    ep.add(5, sock);
    EXPECT_TRUE(ep.collectReady(8).empty());
    sock->deliver(Message{}, 0);
    auto ready = ep.collectReady(8);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].fd, 5);
    // Level semantics: still ready until drained.
    EXPECT_EQ(ep.collectReady(8).size(), 1u);
    sock->pop();
    EXPECT_TRUE(ep.collectReady(8).empty());
}

TEST(EpollTest, MaxEventsCaps)
{
    EpollInstance ep;
    std::vector<std::shared_ptr<Socket>> socks;
    for (int i = 0; i < 6; ++i) {
        socks.push_back(std::make_shared<Socket>(i));
        socks.back()->deliver(Message{}, 0);
        ep.add(i, socks.back());
    }
    EXPECT_EQ(ep.collectReady(4).size(), 4u);
}

TEST(EpollTest, WakesOneWaiterPerEdge)
{
    auto sock = std::make_shared<Socket>(1);
    EpollInstance ep;
    ep.add(3, sock);
    int woken_a = 0, woken_b = 0;
    ep.addWaiter([&] { ++woken_a; });
    ep.addWaiter([&] { ++woken_b; });
    sock->deliver(Message{}, 0);
    EXPECT_EQ(woken_a + woken_b, 1); // FIFO: exactly one
    EXPECT_EQ(woken_a, 1);
    EXPECT_EQ(ep.waiterCount(), 1u);
}

TEST(EpollTest, RemoveWaiter)
{
    EpollInstance ep;
    auto sock = std::make_shared<Socket>(1);
    ep.add(3, sock);
    bool woken = false;
    const auto id = ep.addWaiter([&] { woken = true; });
    ep.removeWaiter(id);
    sock->deliver(Message{}, 0);
    EXPECT_FALSE(woken);
}

TEST(EpollTest, RemoveFdStopsNotifications)
{
    EpollInstance ep;
    auto sock = std::make_shared<Socket>(1);
    ep.add(3, sock);
    ep.remove(3);
    sock->deliver(Message{}, 0);
    EXPECT_TRUE(ep.collectReady(8).empty());
}

TEST(EpollTest, AddRejectsNegativeAndDuplicateFds)
{
    EpollInstance ep;
    auto sock = std::make_shared<Socket>(1);
    ep.add(3, sock);
    EXPECT_DEATH(ep.add(-1, sock), "negative fd -1");
    EXPECT_DEATH(ep.add(3, std::make_shared<Socket>(2)),
                 "fd 3 already registered");
}

/**
 * Reference interest list: collectReady as a full scan of every watched
 * fd, starting after the cursor and wrapping around in fd order. The
 * ready set must reproduce it exactly.
 */
struct FullScanEpoll
{
    std::map<Fd, std::shared_ptr<File>> interest;
    Fd scanCursor = 0;

    std::vector<Fd>
    collectReady(std::size_t max_events)
    {
        std::vector<Fd> out;
        if (interest.empty() || max_events == 0)
            return out;
        auto start = interest.upper_bound(scanCursor);
        if (start == interest.end())
            start = interest.begin();
        auto it = start;
        do {
            if (it->second->readable()) {
                out.push_back(it->first);
                scanCursor = it->first;
                if (out.size() >= max_events)
                    break;
            }
            ++it;
            if (it == interest.end())
                it = interest.begin();
        } while (it != start);
        return out;
    }

    bool
    anyReadable() const
    {
        return std::any_of(interest.begin(), interest.end(),
                           [](const auto &p) { return p.second->readable(); });
    }
};

std::vector<Fd>
readyFds(const std::vector<ReadyFd> &ready)
{
    std::vector<Fd> fds;
    for (const ReadyFd &r : ready) {
        EXPECT_TRUE(r.readable && r.writable);
        fds.push_back(r.fd);
    }
    return fds;
}

TEST(EpollTest, ReadyListMatchesFullScanOracle)
{
    // 72 fds, so the ready bitmap spans two words. Every eighth fd is a
    // listen socket; the last is a nested epoll over the other fds.
    constexpr Fd kFds = 72;
    constexpr Fd kNested = kFds - 1;
    std::size_t returned = 0, high_word = 0, capped = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed);
        std::mt19937_64 rng(seed);
        std::vector<std::shared_ptr<File>> files(kFds);
        std::vector<std::shared_ptr<Socket>> socks(kFds);
        std::vector<std::shared_ptr<ListenSocket>> listeners(kFds);
        auto nested = std::make_shared<EpollInstance>();
        for (Fd fd = 0; fd < kNested; ++fd) {
            if (fd % 8 == 0)
                files[fd] = listeners[fd] = std::make_shared<ListenSocket>();
            else
                files[fd] = socks[fd] = std::make_shared<Socket>(fd);
        }
        files[kNested] = nested;
        EpollInstance ep;
        FullScanEpoll oracle, nested_oracle;

        for (int step = 0; step < 3000; ++step) {
            const Fd fd = static_cast<Fd>(rng() % kFds);
            const std::size_t max = 1 + rng() % 4;
            switch (rng() % 10) {
            case 0: // epoll_ctl(ADD)
                if (oracle.interest.emplace(fd, files[fd]).second)
                    ep.add(fd, files[fd]);
                break;
            case 1: // epoll_ctl(DEL)
                ep.remove(fd);
                oracle.interest.erase(fd);
                break;
            case 2:
                if (socks[fd])
                    socks[fd]->deliver(Message{}, 0);
                break;
            case 3:
                if (socks[fd] && socks[fd]->hasData())
                    socks[fd]->pop();
                break;
            case 4:
                if (listeners[fd])
                    listeners[fd]->enqueueConnection(
                        std::make_shared<Socket>(1000 + step));
                break;
            case 5:
                if (listeners[fd] && listeners[fd]->hasPending())
                    listeners[fd]->acceptOne();
                break;
            case 6: // toggle fd in the nested epoll
                if (fd == kNested)
                    break;
                if (nested_oracle.interest.erase(fd)) {
                    nested->remove(fd);
                } else {
                    nested_oracle.interest.emplace(fd, files[fd]);
                    nested->add(fd, files[fd]);
                }
                break;
            case 7:
                ASSERT_EQ(readyFds(nested->collectReady(max)),
                          nested_oracle.collectReady(max))
                    << "nested, step " << step;
                break;
            default: {
                const std::vector<Fd> want = oracle.collectReady(max);
                ASSERT_EQ(readyFds(ep.collectReady(max)), want)
                    << "step " << step << ", max " << max;
                returned += want.size();
                high_word += std::count_if(want.begin(), want.end(),
                                           [](Fd f) { return f >= 64; });
                capped += want.size() == max;
            }
            }
            ASSERT_EQ(nested->readable(), nested_oracle.anyReadable())
                << "step " << step;
            ASSERT_EQ(ep.interestCount(), oracle.interest.size());
        }
    }
    // The scripts must reach the second bitmap word and the event cap.
    EXPECT_GT(returned, 10000u);
    EXPECT_GT(high_word, 1000u);
    EXPECT_GT(capped, 1000u);
}

// --------------------------------------------------- syscalls end-to-end

TEST(KernelSyscallTest, EchoThreadRoundTrip)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("echo");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);
    std::vector<Message> out;
    sock->setTxHandler([&](Message &&m) { out.push_back(m); });

    const Fd conn = fd;
    h.kernel.spawnThread(pid, [conn](Kernel &k, Tid tid) -> Task {
        const Fd epfd = k.epollCreate(tid);
        k.epollCtlAdd(tid, epfd, conn);
        for (;;) {
            auto ready = co_await k.epollWait(tid, epfd, 4, -1);
            for (auto &r : ready) {
                auto rx = co_await k.recv(tid, r.fd, Syscall::Recvfrom);
                if (!rx.ok)
                    continue;
                Message resp = rx.msg;
                resp.isResponse = true;
                co_await k.send(tid, r.fd, std::move(resp),
                                Syscall::Sendto);
            }
        }
    });

    // Two requests, spaced apart.
    auto *sk = sock.get();
    h.sim.schedule(sim::microseconds(10), [&, sk] {
        Message m;
        m.requestId = 11;
        sk->deliver(std::move(m), h.sim.now());
    });
    h.sim.schedule(sim::microseconds(500), [&, sk] {
        Message m;
        m.requestId = 22;
        sk->deliver(std::move(m), h.sim.now());
    });
    h.sim.runFor(sim::milliseconds(2));

    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].requestId, 11u);
    EXPECT_EQ(out[1].requestId, 22u);
    EXPECT_TRUE(out[0].isResponse);

    // Trace sanity: one recvfrom and one sendto per request, epoll_wait
    // enters >= 2, and everything carries the right pid.
    EXPECT_EQ(h.log.countOf(Syscall::Recvfrom, TracepointId::SysExit), 2u);
    EXPECT_EQ(h.log.countOf(Syscall::Sendto, TracepointId::SysExit), 2u);
    EXPECT_GE(h.log.countOf(Syscall::EpollWait, TracepointId::SysEnter), 2u);
    for (const auto &ev : h.log.events)
        EXPECT_EQ(tgidOf(ev.pidTgid), pid);
}

TEST(KernelSyscallTest, EpollWaitDurationReflectsIdleness)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("idle");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);

    h.kernel.spawnThread(pid, [fd = fd](Kernel &k, Tid tid) -> Task {
        const Fd epfd = k.epollCreate(tid);
        k.epollCtlAdd(tid, epfd, fd);
        co_await k.epollWait(tid, epfd, 4, -1);
    });

    auto *sk = sock.get();
    h.sim.schedule(sim::milliseconds(3),
                   [&, sk] { sk->deliver(Message{}, h.sim.now()); });
    h.sim.runFor(sim::milliseconds(5));

    // Find the epoll_wait enter/exit pair and check its duration covers
    // the 3ms idle wait.
    sim::Tick enter = -1, exit = -1;
    for (const auto &ev : h.log.events) {
        if (ev.syscall != syscallId(Syscall::EpollWait))
            continue;
        if (ev.point == TracepointId::SysEnter)
            enter = ev.timestamp;
        else
            exit = ev.timestamp;
    }
    ASSERT_GE(enter, 0);
    ASSERT_GT(exit, enter);
    EXPECT_NEAR(static_cast<double>(exit - enter),
                static_cast<double>(sim::milliseconds(3)),
                static_cast<double>(sim::microseconds(20)));
}

TEST(KernelSyscallTest, EpollWaitTimeoutReturnsEmpty)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("timeout");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);
    std::size_t got = 99;
    h.kernel.spawnThread(pid, [fd = fd, &got](Kernel &k, Tid tid) -> Task {
        const Fd epfd = k.epollCreate(tid);
        k.epollCtlAdd(tid, epfd, fd);
        auto ready =
            co_await k.epollWait(tid, epfd, 4, sim::milliseconds(1));
        got = ready.size();
    });
    h.sim.runFor(sim::milliseconds(5));
    EXPECT_EQ(got, 0u);
}

TEST(KernelSyscallTest, RecvOnEmptySocketReturnsEagain)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("eagain");
    auto [fd, sock] = h.kernel.installSocket(pid, 1);
    std::int64_t ret = 0;
    h.kernel.spawnThread(pid, [fd = fd, &ret](Kernel &k, Tid tid) -> Task {
        auto rx = co_await k.recv(tid, fd, Syscall::Read);
        ret = rx.ret;
    });
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(ret, -11);
}

TEST(KernelSyscallTest, RecvOnUnknownFdReturnsEagain)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("unknown");
    h.kernel.installSocket(pid, 1);
    std::int64_t unchecked = 0, past_end = 0;
    h.kernel.spawnThread(pid, [&](Kernel &k, Tid tid) -> Task {
        // An unchecked accept() error code, then an fd past the table.
        unchecked = (co_await k.recv(tid, -11, Syscall::Read)).ret;
        past_end = (co_await k.recv(tid, 100000, Syscall::Read)).ret;
    });
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(unchecked, -11);
    EXPECT_EQ(past_end, -11);
}

TEST(KernelSyscallTest, SelectWakesOnData)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("sel");
    auto [fd1, s1] = h.kernel.installSocket(pid, 1);
    auto [fd2, s2] = h.kernel.installSocket(pid, 2);
    std::vector<ReadyFd> got;
    h.kernel.spawnThread(
        pid, [fd1 = fd1, fd2 = fd2, &got](Kernel &k, Tid tid) -> Task {
            std::vector<Fd> fds{fd1, fd2};
            got = co_await k.select(tid, std::move(fds), -1);
        });
    auto *sk = s2.get();
    h.sim.schedule(sim::microseconds(100),
                   [&, sk] { sk->deliver(Message{}, h.sim.now()); });
    h.sim.runFor(sim::milliseconds(1));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].fd, fd2);
    EXPECT_GE(h.log.countOf(Syscall::Select, TracepointId::SysExit), 1u);
}

// ---------------------------------------------------------- poll contract

/**
 * epoll_wait and select share one blocking life cycle: scan, block, wake
 * after the wake latency, rescan, then return, block again or time out.
 * Each case runs one poll of one socket and checks the syscall's exact
 * enter/exit timestamps (the probes here cost nothing).
 */
class PollContractTest : public testing::TestWithParam<Syscall>
{
  protected:
    /** Declared before the harness: the injector outlives the kernel. */
    std::unique_ptr<fault::FaultInjector> fault;
    Harness h;
    Pid pid = h.kernel.createProcess("poll");
    Fd fd = -1;
    std::shared_ptr<Socket> sock;
    bool returned = false;
    std::vector<Fd> got;

    PollContractTest() { std::tie(fd, sock) = h.kernel.installSocket(pid, 1); }

    /** Start one thread that polls the socket once with @p timeout. */
    void
    startPoll(sim::Tick timeout)
    {
        h.kernel.spawnThread(pid, [this, timeout](Kernel &k, Tid tid) {
            return pollOnce(k, tid, timeout);
        });
    }

    Task
    pollOnce(Kernel &k, Tid tid, sim::Tick timeout)
    {
        std::vector<ReadyFd> ready;
        if (GetParam() == Syscall::EpollWait) {
            const Fd epfd = k.epollCreate(tid);
            k.epollCtlAdd(tid, epfd, fd);
            ready = co_await k.epollWait(tid, epfd, 4, timeout);
        } else {
            std::vector<Fd> fds{fd};
            ready = co_await k.select(tid, std::move(fds), timeout);
        }
        got = readyFds(ready);
        returned = true;
    }

    void
    deliverAt(sim::Tick when)
    {
        h.sim.schedule(when, [this] { sock->deliver(Message{}, h.sim.now()); });
    }

    /** Timestamps of the poll syscall's events at @p point. */
    std::vector<sim::Tick>
    stamps(TracepointId point) const
    {
        std::vector<sim::Tick> out;
        for (const auto &ev : h.log.events) {
            if (ev.syscall == syscallId(GetParam()) && ev.point == point)
                out.push_back(ev.timestamp);
        }
        return out;
    }
};

TEST_P(PollContractTest, TimeoutReturnsEmptyAtTheDeadline)
{
    startPoll(sim::milliseconds(1));
    h.sim.runFor(sim::milliseconds(5));
    ASSERT_TRUE(returned);
    EXPECT_TRUE(got.empty());
    const auto enters = stamps(TracepointId::SysEnter);
    const auto exits = stamps(TracepointId::SysExit);
    ASSERT_EQ(enters.size(), 1u);
    ASSERT_EQ(exits.size(), 1u);
    EXPECT_EQ(exits[0] - enters[0], sim::milliseconds(1));
}

TEST_P(PollContractTest, DataRacingTheDeadlineWins)
{
    // Data lands 0.5 us before the deadline, so the wake is still in
    // flight when the timer fires: readiness supersedes the timeout.
    startPoll(sim::milliseconds(1));
    const sim::Tick landed = sim::milliseconds(1) - sim::nanoseconds(500);
    deliverAt(landed);
    h.sim.runFor(sim::milliseconds(5));
    ASSERT_TRUE(returned);
    EXPECT_EQ(got, std::vector<Fd>{fd});
    EXPECT_EQ(stamps(TracepointId::SysEnter), std::vector<sim::Tick>{0});
    EXPECT_EQ(stamps(TracepointId::SysExit),
              std::vector<sim::Tick>{landed + h.kernel.config().wakeLatency});
}

TEST_P(PollContractTest, FdDrainedBeforeTheRescanBlocksAgain)
{
    startPoll(-1);
    deliverAt(sim::microseconds(100));
    // Another reader drains the fd while the wake is in flight.
    h.sim.schedule(sim::microseconds(100) + sim::nanoseconds(500),
                   [this] { sock->pop(); });
    deliverAt(sim::microseconds(300));
    h.sim.runFor(sim::milliseconds(1));
    ASSERT_TRUE(returned);
    EXPECT_EQ(got, std::vector<Fd>{fd});
    EXPECT_EQ(stamps(TracepointId::SysEnter), std::vector<sim::Tick>{0});
    EXPECT_EQ(stamps(TracepointId::SysExit),
              std::vector<sim::Tick>{sim::microseconds(300) +
                                     h.kernel.config().wakeLatency});
}

TEST_P(PollContractTest, SpuriousWakeupReturnsEmpty)
{
    fault::FaultPlan plan;
    plan.spuriousWakeupProbability = 1.0;
    fault = std::make_unique<fault::FaultInjector>(plan, sim::Rng(7));
    h.kernel.setFaultInjector(fault.get());
    startPoll(-1);
    h.sim.runFor(sim::milliseconds(1));
    ASSERT_TRUE(returned);
    EXPECT_TRUE(got.empty());
    const auto enters = stamps(TracepointId::SysEnter);
    const auto exits = stamps(TracepointId::SysExit);
    ASSERT_EQ(enters.size(), 1u);
    ASSERT_EQ(exits.size(), 1u);
    EXPECT_EQ(exits[0] - enters[0], plan.spuriousWakeupDelay);
    EXPECT_EQ(fault->counts().spuriousWakeups, 1u);
}

INSTANTIATE_TEST_SUITE_P(BothPollCalls, PollContractTest,
                         testing::Values(Syscall::EpollWait, Syscall::Select),
                         [](const testing::TestParamInfo<Syscall> &info) {
                             return syscallName(syscallId(info.param));
                         });

TEST(KernelSyscallTest, AcceptDrainsListenQueue)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("srv");
    Fd listen_fd = -1;
    Fd accepted = -1;
    h.kernel.spawnThread(pid,
                         [&listen_fd, &accepted](Kernel &k,
                                                 Tid tid) -> Task {
                             listen_fd = k.listen(tid);
                             accepted = co_await k.accept(tid, listen_fd);
                         });
    h.sim.runFor(sim::microseconds(1)); // let listen() run
    ASSERT_GE(listen_fd, 0);
    // accept() with empty backlog -> EAGAIN first.
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(accepted, -11);

    Fd accepted2 = -1;
    h.kernel.enqueueIncomingConnection(pid, listen_fd,
                                       std::make_shared<Socket>(77));
    h.kernel.spawnThread(
        pid, [listen_fd, &accepted2](Kernel &k, Tid tid) -> Task {
            accepted2 = co_await k.accept(tid, listen_fd);
        });
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_GE(accepted2, 0);
    EXPECT_NE(h.kernel.socketAt(pid, accepted2), nullptr);
}

TEST(KernelSyscallTest, SleepForTakesSimulatedTime)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("sleepy");
    sim::Tick woke = -1;
    h.kernel.spawnThread(pid, [&woke](Kernel &k, Tid tid) -> Task {
        co_await k.sleepFor(tid, sim::milliseconds(7));
        woke = k.sim().now();
    });
    h.sim.runFor(sim::milliseconds(10));
    EXPECT_NEAR(static_cast<double>(woke),
                static_cast<double>(sim::milliseconds(7)), 5000.0);
    EXPECT_EQ(h.log.countOf(Syscall::Nanosleep, TracepointId::SysExit), 1u);
}

TEST(KernelSyscallTest, SocketPairCrossDelivers)
{
    Harness h;
    const Pid a = h.kernel.createProcess("a");
    const Pid b = h.kernel.createProcess("b");
    auto [fd_a, fd_b] =
        h.kernel.socketPair(a, b, sim::microseconds(20));
    std::uint64_t got = 0;
    h.kernel.spawnThread(b, [fd_b = fd_b, &got](Kernel &k, Tid tid) -> Task {
        const Fd epfd = k.epollCreate(tid);
        k.epollCtlAdd(tid, epfd, fd_b);
        co_await k.epollWait(tid, epfd, 4, -1);
        auto rx = co_await k.recv(tid, fd_b, Syscall::Read);
        got = rx.msg.requestId;
    });
    h.kernel.spawnThread(a, [fd_a = fd_a](Kernel &k, Tid tid) -> Task {
        Message m;
        m.requestId = 314;
        co_await k.send(tid, fd_a, std::move(m), Syscall::Write);
    });
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(got, 314u);
}

TEST(KernelSyscallTest, ProbeCostDilatesSyscalls)
{
    // Attach an expensive probe; thread timelines must stretch by it.
    sim::Simulation sim(1);
    Kernel kernel(sim);
    kernel.tracepoints().attach(
        TracepointId::SysEnter,
        [](const RawSyscallEvent &) { return sim::microseconds(50); });

    const Pid pid = kernel.createProcess("p");
    sim::Tick finished = -1;
    kernel.spawnThread(pid, [&finished](Kernel &k, Tid tid) -> Task {
        co_await k.sleepFor(tid, sim::microseconds(10));
        finished = k.sim().now();
    });
    sim.runFor(sim::milliseconds(1));
    // 50us probe + 10us sleep (plus sub-us exit cost).
    EXPECT_GE(finished, sim::microseconds(60));
}

TEST(KernelSyscallTest, ThreadFinishTracked)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("f");
    const Tid tid = h.kernel.spawnThread(
        pid, [](Kernel &k, Tid t) -> Task { co_await k.sleepFor(t, 10); });
    EXPECT_FALSE(h.kernel.threadFinished(tid));
    h.sim.runFor(sim::milliseconds(1));
    EXPECT_TRUE(h.kernel.threadFinished(tid));
}

TEST(KernelTest, PerTgidSyscallCountsMatchSysEnterEvents)
{
    sim::Simulation sim(1);
    Kernel kernel(sim);
    std::map<Pid, std::uint64_t> seen;
    kernel.tracepoints().attach(TracepointId::SysEnter,
                                [&seen](const RawSyscallEvent &ev) {
                                    ++seen[tgidOf(ev.pidTgid)];
                                    return sim::Tick{0};
                                });

    // Two processes with different syscall counts; b runs two threads.
    const Pid a = kernel.createProcess("a");
    const Pid b = kernel.createProcess("b");
    const Pid idle = kernel.createProcess("idle");
    auto sleeper = [](int n) {
        return [n](Kernel &k, Tid tid) -> Task {
            for (int i = 0; i < n; ++i)
                co_await k.sleepFor(tid, sim::microseconds(5));
        };
    };
    kernel.spawnThread(a, sleeper(3));
    kernel.spawnThread(b, sleeper(4));
    kernel.spawnThread(b, sleeper(2));
    sim.runFor(sim::milliseconds(1));

    EXPECT_EQ(seen[a], 3u);
    EXPECT_EQ(seen[b], 6u);
    std::uint64_t total = 0;
    for (const auto &[tgid, n] : seen) {
        EXPECT_EQ(kernel.syscallCountFor(tgid), n) << tgid;
        total += n;
    }
    EXPECT_EQ(kernel.syscallCountFor(a) + kernel.syscallCountFor(b),
              kernel.syscallCount());
    EXPECT_EQ(total, kernel.syscallCount());
    EXPECT_EQ(kernel.syscallCountFor(idle), 0u);
    EXPECT_EQ(kernel.syscallCountFor(Pid{4242}), 0u); // unknown pid
}

TEST(KernelTest, TwoKernelsOnOneSimulationKeepTheirOwnIdsAndCounts)
{
    sim::Simulation sim(1);
    Kernel first(sim);
    Kernel second(sim);
    auto sleeper = [](int n) {
        return [n](Kernel &k, Tid tid) -> Task {
            for (int i = 0; i < n; ++i)
                co_await k.sleepFor(tid, sim::microseconds(5));
        };
    };
    const Pid a = first.createProcess("a");
    first.createProcess("a2");
    const Pid b = second.createProcess("b");
    EXPECT_EQ(a, b); // both number from the same first pid
    const Tid ta = first.spawnThread(a, sleeper(3));
    const Tid tb = second.spawnThread(b, sleeper(5));
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(first.processName(a), "a");
    EXPECT_EQ(second.processName(b), "b");
    sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(first.syscallCountFor(a), 3u);
    EXPECT_EQ(second.syscallCountFor(b), 5u);
    EXPECT_EQ(first.syscallCount(), 3u);
    EXPECT_EQ(second.syscallCount(), 5u);
    EXPECT_EQ(second.syscallCountFor(a + 1), 0u); // only first has it
}

TEST(KernelDeathTest, IdsOutsideTheTablesPanic)
{
    sim::Simulation sim(1);
    Kernel kernel(sim);
    const Pid pid = kernel.createProcess("p");
    const Tid tid = kernel.spawnThread(
        pid, [](Kernel &, Tid) -> Task { co_return; });
    // Unsigned index arithmetic must not wrap an id below the first
    // into a neighbouring entry, nor read past the last one created.
    auto body = [](Kernel &, Tid) -> Task { co_return; };
    for (const Pid bad : {Pid{999}, Pid{0}, Pid{pid + 1}}) {
        SCOPED_TRACE(bad);
        EXPECT_DEATH(kernel.processName(bad), "unknown pid");
        EXPECT_DEATH(kernel.spawnThread(bad, body), "unknown pid");
        EXPECT_EQ(kernel.syscallCountFor(bad), 0u);
    }
    for (const Tid bad : {Tid{4999}, Tid{0}, Tid{tid + 1}}) {
        SCOPED_TRACE(bad);
        EXPECT_DEATH(kernel.pidTgidOf(bad), "unknown tid");
        EXPECT_FALSE(kernel.threadFinished(bad));
    }
    EXPECT_EQ(kernel.pidTgidOf(tid), makePidTgid(pid, tid));
    EXPECT_EQ(kernel.processName(pid), "p");
}

// --------------------------------------------------------------- notifier

TEST(NotifierTest, WaitersWakeFifoAndFireFutex)
{
    Harness h;
    const Pid pid = h.kernel.createProcess("n");
    kernel::Notifier notifier(h.kernel);
    std::vector<int> order;

    for (int i = 0; i < 2; ++i) {
        h.kernel.spawnThread(
            pid, [&notifier, &order, i](Kernel &, Tid tid) -> Task {
                co_await notifier.wait(tid);
                order.push_back(i);
            });
    }
    h.sim.runFor(sim::microseconds(10));
    EXPECT_EQ(notifier.waiters(), 2u);
    notifier.notifyOne();
    h.sim.runFor(sim::microseconds(10));
    EXPECT_EQ(order, (std::vector<int>{0}));
    notifier.notifyOne();
    h.sim.runFor(sim::microseconds(10));
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_FALSE(notifier.notifyOne()); // nobody left
    EXPECT_EQ(h.log.countOf(Syscall::Futex, TracepointId::SysExit), 2u);
}

// ------------------------------------------------------------ system spec

TEST(SystemSpecTest, TableOneValues)
{
    const SystemSpec amd = amdEpyc7302();
    EXPECT_EQ(amd.sockets, 2u);
    EXPECT_EQ(amd.coresPerSocket, 16u);
    EXPECT_EQ(amd.threadsPerCore, 2u);
    EXPECT_EQ(amd.logicalCpus(), 64u);
    const CpuConfig cfg = amd.toCpuConfig();
    EXPECT_GT(cfg.cores, 32u); // SMT bonus above physical cores
    EXPECT_LT(cfg.cores, 64u); // but below logical count
    EXPECT_DOUBLE_EQ(cfg.speed, 1.0);

    const SystemSpec intel = intelXeonE52620();
    EXPECT_EQ(intel.logicalCpus(), 16u);
    EXPECT_EQ(intel.toCpuConfig().cores, 16u);

    EXPECT_NE(formatSystemSpec(amd).find("EPYC"), std::string::npos);
}

} // namespace
} // namespace reqobs::kernel
