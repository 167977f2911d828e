#include "net/frontdoor.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace reqobs::net {

FrontDoorCounts &
FrontDoorCounts::operator+=(const FrontDoorCounts &o)
{
    syns += o.syns;
    ingressDrops += o.ingressDrops;
    synQueueOverflows += o.synQueueOverflows;
    backlogOverflows += o.backlogOverflows;
    budgetDrops += o.budgetDrops;
    retransmits += o.retransmits;
    accepted += o.accepted;
    failed += o.failed;
    lorisReaped += o.lorisReaped;
    floodSyns += o.floodSyns;
    return *this;
}

FrontDoor::FrontDoor(kernel::Kernel &kernel, const FrontDoorConfig &config)
    : kernel_(kernel), sim_(kernel.sim()), config_(config)
{
    if (config_.ingressQueueDepth == 0)
        sim::fatal("FrontDoor: ingressQueueDepth must be > 0");
}

unsigned
FrontDoor::addListener(kernel::Pid pid, const ListenerConfig &config)
{
    if (started_)
        sim::fatal("FrontDoor: addListener() after start()");
    auto l = std::make_unique<Listener>();
    l->pid = pid;
    l->config = config;
    listeners_.push_back(std::move(l));
    return static_cast<unsigned>(listeners_.size() - 1);
}

void
FrontDoor::start()
{
    if (started_)
        sim::fatal("FrontDoor: start() called twice");
    if (listeners_.empty())
        sim::fatal("FrontDoor: start() with no listeners");
    started_ = true;
    for (unsigned i = 0; i < listeners_.size(); ++i) {
        kernel_.spawnThread(
            listeners_[i]->pid,
            [this, i](kernel::Kernel &k, kernel::Tid tid) -> kernel::Task {
                return acceptorBody(k, tid, i);
            });
    }
    // Injected SYN flood: anonymous handshakes against listener 0,
    // paced by the injector's stream (knob-gated).
    scheduleFlood();
}

void
FrontDoor::scheduleFlood()
{
    auto *inj = kernel_.faultInjector();
    if (!inj || inj->plan().synFloodRate <= 0.0)
        return;
    sim_.schedule(inj->nextSynFloodDelay(), [this] {
        if (auto *i = kernel_.faultInjector())
            i->noteSynFloodConn();
        ++listeners_[0]->counts.floodSyns;
        connect(0, ConnectOptions{});
        scheduleFlood();
    });
}

std::uint64_t
FrontDoor::connect(unsigned listener, ConnectOptions opts)
{
    if (listener >= listeners_.size())
        sim::fatal("FrontDoor::connect: bad listener %u", listener);
    const std::uint64_t flow_id = nextFlow_++;
    Flow flow;
    flow.id = flow_id;
    flow.listener = listener;
    flow.opts = std::move(opts);
    flows_.emplace(flow_id, std::move(flow));
    attemptSyn(flow_id);
    return flow_id;
}

void
FrontDoor::fireTracepoint(kernel::TracepointId point, std::uint64_t flow_id,
                          kernel::Pid pid)
{
    kernel::RawSyscallEvent ev;
    ev.point = point;
    ev.syscall = static_cast<std::int64_t>(flow_id);
    ev.pidTgid = kernel::makePidTgid(pid, pid);
    ev.timestamp = sim_.now();
    // Probe cost is not charged anywhere: front-door events fire from
    // softirq-ish context, not from a schedulable thread.
    kernel_.tracepoints().fire(ev);
}

void
FrontDoor::attemptSyn(std::uint64_t flow_id)
{
    Flow &flow = flows_.at(flow_id);
    Listener &l = *listeners_[flow.listener];
    ++flow.attempts;
    ++l.counts.syns;

    // Shared ingress queue: bounded FIFO drained by one server at
    // 1/ingressLatency. A full queue is a silent NIC drop.
    if (ingressQueued_ >= config_.ingressQueueDepth) {
        ++l.counts.ingressDrops;
        dropAndRearm(flow_id);
        return;
    }
    ++ingressQueued_;
    flow.ingressTs = sim_.now();
    fireTracepoint(kernel::TracepointId::NetRxEnqueue, flow_id, l.pid);

    const sim::Tick start = std::max(sim_.now(), ingressBusyUntil_);
    ingressBusyUntil_ = start + config_.ingressLatency;
    sim_.schedule(ingressBusyUntil_ - sim_.now(),
                  [this, flow_id] { processSyn(flow_id); });
}

void
FrontDoor::processSyn(std::uint64_t flow_id)
{
    --ingressQueued_;
    auto it = flows_.find(flow_id);
    if (it == flows_.end())
        return;
    Flow &flow = it->second;
    Listener &l = *listeners_[flow.listener];
    auto *inj = kernel_.faultInjector();

    // Injected segment loss between the NIC and the SYN queue: the
    // retransmit-storm fault class.
    if (inj && inj->injectRetransmitDrop()) {
        dropAndRearm(flow_id);
        return;
    }
    // Half-open capacity.
    if (l.halfOpen >= l.config.synQueueDepth) {
        ++l.counts.synQueueOverflows;
        dropAndRearm(flow_id);
        return;
    }
    // Graceful degradation: the controller's accept-budget clamp.
    if (!budgetAdmit(l)) {
        ++l.counts.budgetDrops;
        dropAndRearm(flow_id);
        return;
    }
    ++l.halfOpen;
    const sim::Tick hold = l.config.handshakeRtt + flow.opts.holdHandshake;
    sim_.schedule(hold, [this, flow_id] { completeHandshake(flow_id); });
}

void
FrontDoor::completeHandshake(std::uint64_t flow_id)
{
    auto it = flows_.find(flow_id);
    if (it == flows_.end())
        return;
    Flow &flow = it->second;
    Listener &l = *listeners_[flow.listener];
    --l.halfOpen;

    // Slow loris: the handshake never completes; the slot is reaped.
    if (flow.opts.abandon) {
        ++l.counts.lorisReaped;
        flows_.erase(it);
        return;
    }

    const bool full = l.listenFd < 0 || l.backlog >= l.config.acceptBacklog;
    bool injected = false;
    if (!full) {
        if (auto *inj = kernel_.faultInjector())
            injected = inj->injectBacklogOverflow();
    }
    if (full || injected) {
        ++l.counts.backlogOverflows;
        dropAndRearm(flow_id);
        return;
    }

    auto sock = std::make_shared<kernel::Socket>(kConnIdBase + flow.id);
    l.pendingByConn.emplace(kConnIdBase + flow.id, flow.id);
    ++l.backlog;
    kernel_.enqueueIncomingConnection(l.pid, l.listenFd, sock);
}

void
FrontDoor::dropAndRearm(std::uint64_t flow_id)
{
    auto it = flows_.find(flow_id);
    if (it == flows_.end())
        return;
    Flow &flow = it->second;
    Listener &l = *listeners_[flow.listener];

    if (flow.attempts > config_.maxSynRetries) {
        ++l.counts.failed;
        auto on_failed = std::move(flow.opts.onFailed);
        flows_.erase(it);
        if (on_failed)
            on_failed();
        return;
    }
    // attempts is the number of SYNs already sent, so attempts-1 prior
    // drops have happened: that indexes the shared backoff schedule.
    const sim::Tick wait = synRetransmitTimeout(config_.tcp,
                                                flow.attempts - 1);
    sim_.schedule(wait, [this, flow_id] {
        auto it2 = flows_.find(flow_id);
        if (it2 == flows_.end())
            return;
        Listener &l2 = *listeners_[it2->second.listener];
        ++l2.counts.retransmits;
        fireTracepoint(kernel::TracepointId::TcpRetransmit, flow_id, l2.pid);
        attemptSyn(flow_id);
    });
}

bool
FrontDoor::budgetAdmit(Listener &l)
{
    if (l.budgetRate <= 0.0)
        return true;
    const sim::Tick now = sim_.now();
    const double cap = std::max(1.0, l.budgetRate * 0.1); // 100 ms burst
    l.budgetTokens = std::min(
        cap, l.budgetTokens + l.budgetRate *
                                  static_cast<double>(now - l.budgetLast) /
                                  1e9);
    l.budgetLast = now;
    if (l.budgetTokens >= 1.0) {
        l.budgetTokens -= 1.0;
        return true;
    }
    return false;
}

void
FrontDoor::setAcceptBudget(unsigned listener, double conns_per_sec)
{
    if (listener >= listeners_.size())
        sim::fatal("FrontDoor::setAcceptBudget: bad listener %u", listener);
    Listener &l = *listeners_[listener];
    l.budgetRate = conns_per_sec;
    l.budgetTokens = std::max(1.0, conns_per_sec * 0.1);
    l.budgetLast = sim_.now();
}

double
FrontDoor::acceptBudget(unsigned listener) const
{
    if (listener >= listeners_.size())
        sim::fatal("FrontDoor::acceptBudget: bad listener %u", listener);
    return listeners_[listener]->budgetRate;
}

void
FrontDoor::onAccepted(unsigned listener, std::shared_ptr<kernel::Socket> sock)
{
    Listener &l = *listeners_[listener];
    if (l.backlog > 0)
        --l.backlog;
    ++l.counts.accepted;
    auto itc = l.pendingByConn.find(sock->connectionId());
    if (itc == l.pendingByConn.end())
        return;
    const std::uint64_t flow_id = itc->second;
    l.pendingByConn.erase(itc);
    auto itf = flows_.find(flow_id);
    if (itf == flows_.end())
        return;
    Flow flow = std::move(itf->second);
    flows_.erase(itf);
    l.acceptLatency.record(
        static_cast<std::uint64_t>(sim_.now() - flow.ingressTs));
    fireTracepoint(kernel::TracepointId::SockAccept, flow_id, l.pid);
    if (flow.opts.onEstablished)
        flow.opts.onEstablished(std::move(sock));
}

kernel::Task
FrontDoor::acceptorBody(kernel::Kernel &k, kernel::Tid tid, unsigned listener)
{
    Listener &l = *listeners_[listener];
    const kernel::Fd lfd = k.listen(tid);
    const kernel::Fd epfd = k.epollCreate(tid);
    k.epollCtlAdd(tid, epfd, lfd);
    l.listenFd = lfd;
    const sim::Tick demand = l.config.serviceDemand;
    const std::uint32_t resp_bytes = l.config.responseBytes;
    for (;;) {
        auto ready = co_await k.epollWait(tid, epfd, 16, -1);
        for (const auto &r : ready) {
            if (r.fd == lfd) {
                for (;;) {
                    const kernel::Fd cfd = co_await k.accept(tid, lfd);
                    if (cfd < 0)
                        break;
                    k.epollCtlAdd(tid, epfd, cfd);
                    onAccepted(listener, k.socketAt(l.pid, cfd));
                }
                continue;
            }
            auto rx = co_await k.recv(tid, r.fd);
            if (!rx.ok)
                continue;
            if (demand > 0)
                co_await k.compute(tid, demand);
            kernel::Message resp;
            resp.requestId = rx.msg.requestId;
            resp.bytes = resp_bytes;
            resp.created = k.sim().now();
            resp.isResponse = true;
            resp.chunk = 1;
            resp.chunks = 1;
            co_await k.send(tid, r.fd, std::move(resp));
        }
    }
}

kernel::Pid
FrontDoor::listenerPid(unsigned listener) const
{
    if (listener >= listeners_.size())
        sim::fatal("FrontDoor::listenerPid: bad listener %u", listener);
    return listeners_[listener]->pid;
}

const FrontDoorCounts &
FrontDoor::counts(unsigned listener) const
{
    if (listener >= listeners_.size())
        sim::fatal("FrontDoor::counts: bad listener %u", listener);
    return listeners_[listener]->counts;
}

FrontDoorCounts
FrontDoor::totals() const
{
    FrontDoorCounts t;
    for (const auto &l : listeners_)
        t += l->counts;
    return t;
}

const stats::LatencyHistogram &
FrontDoor::acceptLatencies(unsigned listener) const
{
    if (listener >= listeners_.size())
        sim::fatal("FrontDoor::acceptLatencies: bad listener %u", listener);
    return listeners_[listener]->acceptLatency;
}

std::size_t
FrontDoor::backlogDepth(unsigned listener) const
{
    if (listener >= listeners_.size())
        sim::fatal("FrontDoor::backlogDepth: bad listener %u", listener);
    return listeners_[listener]->backlog;
}

std::size_t
FrontDoor::halfOpenCount(unsigned listener) const
{
    if (listener >= listeners_.size())
        sim::fatal("FrontDoor::halfOpenCount: bad listener %u", listener);
    return listeners_[listener]->halfOpen;
}

} // namespace reqobs::net
