#include "workload/server_app.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace reqobs::workload {

using kernel::Fd;
using kernel::Kernel;
using kernel::Message;
using kernel::Task;
using kernel::Tid;

ServerApp::ServerApp(Kernel &kernel, const WorkloadConfig &config)
    : kernel_(kernel), config_(config), rng_(kernel.sim().forkRng())
{
    demandDist_ = std::make_unique<sim::LogNormalDist>(
        config_.model == ThreadingModel::TwoStage ? config_.backendDemand()
                                                  : config_.meanDemand(),
        config_.serviceSigma);
    if (config_.model == ThreadingModel::TwoStage) {
        feDemandDist_ = std::make_unique<sim::LogNormalDist>(
            std::max<sim::Tick>(1, config_.frontendDemand()),
            config_.serviceSigma);
    }
    frontPid_ = kernel_.createProcess(config_.name);
    if (config_.model == ThreadingModel::TwoStage)
        backPid_ = kernel_.createProcess(config_.name + "-index");
    if (config_.model == ThreadingModel::DispatcherWorkers)
        queueNotifier_ = std::make_unique<kernel::Notifier>(kernel_);
}

std::shared_ptr<kernel::Socket>
ServerApp::addConnection(std::uint64_t conn_id)
{
    if (started_)
        sim::fatal("ServerApp: addConnection after start()");
    auto [fd, sock] = kernel_.installSocket(frontPid_, conn_id);
    connFds_.push_back(fd);
    connSockets_.push_back(sock);
    return sock;
}

void
ServerApp::maybeContend(bool backlogged)
{
    if (!backlogged || !config_.contentionStalls)
        return;
    auto &sim = kernel_.sim();
    const sim::Tick now = sim.now();
    if (now < nextStallAllowed_)
        return;

    const sim::Tick demand = config_.model == ThreadingModel::TwoStage
                                 ? config_.backendDemand()
                                 : config_.meanDemand();
    const sim::Tick duration = static_cast<sim::Tick>(
        config_.stallDurationMultiple * static_cast<double>(demand));
    const sim::Tick cooldown = static_cast<sim::Tick>(
        config_.stallCooldownMultiple * static_cast<double>(demand));
    nextStallAllowed_ = now + duration + cooldown;
    ++stalls_;

    // Machine-wide slowdown: lock convoy / GC / reclaim burst. All
    // in-flight compute crawls until the stall lifts.
    auto &cpu = kernel_.cpu();
    cpu.setSpeed(baseCpuSpeed_ * config_.stallSpeedFactor);
    sim.schedule(duration, [this] {
        kernel_.cpu().setSpeed(baseCpuSpeed_);
    });
}

sim::Tick
ServerApp::sampleDemand()
{
    return demandDist_->sample(rng_);
}

sim::Tick
ServerApp::sampleFrontendDemand()
{
    return feDemandDist_ ? feDemandDist_->sample(rng_) : 0;
}

unsigned
ServerApp::sampleChunks()
{
    if (config_.maxResponseChunks <= 1)
        return 1;
    // Re-draw the result-size bias every ~250 requests (see header).
    const std::uint64_t epoch = completed_ / 250;
    if (epoch != chunkEpoch_) {
        chunkEpoch_ = epoch;
        chunkBias_ = 1 + static_cast<unsigned>(
                             rng_.uniformInt(config_.maxResponseChunks));
    }
    const unsigned span = std::max(1u, config_.maxResponseChunks - 1);
    const unsigned chunks =
        chunkBias_ + static_cast<unsigned>(rng_.uniformInt(span));
    return std::min(chunks, config_.maxResponseChunks + 1);
}

Message
ServerApp::makeResponse(const Message &req, unsigned chunk,
                        unsigned chunks) const
{
    Message m;
    m.requestId = req.requestId;
    m.bytes = std::max<std::uint32_t>(1, config_.responseBytes / chunks);
    m.isResponse = true;
    m.chunk = static_cast<std::uint16_t>(chunk);
    m.chunks = static_cast<std::uint16_t>(chunks);
    return m;
}

void
ServerApp::start()
{
    if (started_)
        sim::fatal("ServerApp: start() called twice");
    started_ = true;
    baseCpuSpeed_ = kernel_.cpu().speed();
    if (connFds_.empty())
        sim::fatal("ServerApp '%s': no connections provisioned",
                   config_.name.c_str());

    if (config_.useIoUring) {
        startIoUring();
        return;
    }
    switch (config_.model) {
      case ThreadingModel::PerThreadEventLoop:
        startPerThread(false);
        break;
      case ThreadingModel::SelectPool:
        startPerThread(true);
        break;
      case ThreadingModel::DispatcherWorkers:
        startDispatcher();
        break;
      case ThreadingModel::TwoStage:
        startTwoStage();
        break;
    }
}

void
ServerApp::startPerThread(bool use_select)
{
    // Partition connections across workers round-robin; each worker runs
    // its own poll loop over its share.
    const unsigned workers = config_.workers;
    std::vector<std::vector<Fd>> shares(workers);
    for (std::size_t i = 0; i < connFds_.size(); ++i)
        shares[i % workers].push_back(connFds_[i]);

    for (unsigned w = 0; w < workers; ++w) {
        if (shares[w].empty())
            continue;
        kernel_.spawnThread(frontPid_, [this, use_select, fds = shares[w]](
                                           Kernel &k, Tid tid) {
            if (use_select)
                return eventLoopWorker(k, tid, -1, fds);
            // Per-thread epoll instance, built by the thread itself so
            // the setup syscalls carry its tid.
            const Fd epfd = k.epollCreate(tid);
            for (Fd fd : fds)
                k.epollCtlAdd(tid, epfd, fd);
            return eventLoopWorker(k, tid, epfd, {});
        });
    }
}

void
ServerApp::startIoUring()
{
    // Like startPerThread, but each worker drives an io_uring instead of
    // an epoll/recv/send syscall loop.
    const unsigned workers = config_.workers;
    std::vector<std::vector<Fd>> shares(workers);
    for (std::size_t i = 0; i < connFds_.size(); ++i)
        shares[i % workers].push_back(connFds_[i]);

    for (unsigned w = 0; w < workers; ++w) {
        if (shares[w].empty())
            continue;
        auto ring = std::make_shared<kernel::IoUring>(kernel_, frontPid_);
        for (Fd fd : shares[w])
            ring->registerRecv(fd);
        rings_.push_back(ring);
        kernel_.spawnThread(frontPid_, [this, ring](Kernel &k, Tid tid) {
            return uringWorker(k, tid, ring);
        });
    }
}

void
ServerApp::startDispatcher()
{
    kernel_.spawnThread(frontPid_, [this](Kernel &k, Tid tid) {
        const Fd epfd = k.epollCreate(tid);
        for (Fd fd : connFds_)
            k.epollCtlAdd(tid, epfd, fd);
        return dispatcherThread(k, tid, epfd);
    });
    const unsigned spawn = std::max(config_.workers, scalableMax_);
    if (workerTarget_ == 0)
        workerTarget_ = config_.workers;
    for (unsigned w = 0; w < spawn; ++w) {
        kernel_.spawnThread(frontPid_, [this, w](Kernel &k, Tid tid) {
            return poolWorker(k, tid, w);
        });
    }
}

void
ServerApp::enableWorkerScaling(unsigned max_workers)
{
    if (started_)
        sim::fatal("ServerApp: enableWorkerScaling after start()");
    if (config_.model != ThreadingModel::DispatcherWorkers)
        sim::fatal("ServerApp: worker scaling needs DispatcherWorkers");
    if (max_workers == 0)
        sim::fatal("ServerApp: worker-scaling max must be positive");
    scalableMax_ = max_workers;
}

void
ServerApp::setWorkerTarget(unsigned target)
{
    if (config_.model != ThreadingModel::DispatcherWorkers)
        return;
    const unsigned spawn = std::max(config_.workers, scalableMax_);
    workerTarget_ = std::min(std::max(target, 1u), spawn);
    // Kick every parked waiter so newly unparked workers notice queued
    // backlog; ineligible ones just re-park (spurious wakes are safe).
    if (queueNotifier_)
        while (queueNotifier_->notifyOne()) {
        }
}

void
ServerApp::startTwoStage()
{
    // Internal hop between the front end and the index-search process.
    auto [fe_fd, be_fd] = kernel_.socketPair(frontPid_, backPid_,
                                             config_.interStageLatency);
    feInternalFd_ = fe_fd;
    beInternalFd_ = be_fd;

    // Front-end workers: each epolls its share of client connections
    // plus the shared internal socket.
    const unsigned workers = config_.workers;
    std::vector<std::vector<Fd>> shares(workers);
    for (std::size_t i = 0; i < connFds_.size(); ++i)
        shares[i % workers].push_back(connFds_[i]);

    for (unsigned w = 0; w < workers; ++w) {
        auto fds = shares[w];
        kernel_.spawnThread(frontPid_, [this, fds](Kernel &k, Tid tid) {
            const Fd epfd = k.epollCreate(tid);
            for (Fd fd : fds)
                k.epollCtlAdd(tid, epfd, fd);
            k.epollCtlAdd(tid, epfd, feInternalFd_);
            return frontendWorker(k, tid, epfd);
        });
    }
    for (unsigned w = 0; w < config_.backendWorkers; ++w) {
        kernel_.spawnThread(backPid_, [this](Kernel &k, Tid tid) {
            const Fd epfd = k.epollCreate(tid);
            k.epollCtlAdd(tid, epfd, beInternalFd_);
            return backendWorker(k, tid, epfd);
        });
    }
}

// ------------------------------------------------------- thread bodies

Task
ServerApp::eventLoopWorker(Kernel &k, Tid tid, Fd epfd,
                           std::vector<Fd> select_fds)
{
    for (;;) {
        std::vector<kernel::ReadyFd> ready;
        if (epfd >= 0)
            ready = co_await k.epollWait(tid, epfd, 16, -1);
        else
            ready = co_await k.select(tid, select_fds, -1);
        for (const auto &r : ready) {
            auto rx = co_await k.recv(tid, r.fd, config_.recvSyscall);
            if (!rx.ok)
                continue;
            auto sock = k.socketAt(frontPid_, r.fd);
            maybeContend(sock && sock->rxDepth() > 0);
            co_await k.compute(tid, sampleDemand());
            const unsigned chunks = sampleChunks();
            for (unsigned c = 0; c < chunks; ++c) {
                co_await k.send(tid, r.fd, makeResponse(rx.msg, c, chunks),
                                config_.sendSyscall);
            }
            ++completed_;
        }
    }
}

Task
ServerApp::dispatcherThread(Kernel &k, Tid tid, Fd epfd)
{
    for (;;) {
        auto ready = co_await k.epollWait(tid, epfd, 16, -1);
        for (const auto &r : ready) {
            auto rx = co_await k.recv(tid, r.fd, config_.recvSyscall);
            if (!rx.ok)
                continue;
            // Minimal on-dispatcher parsing cost before handing off.
            co_await k.compute(tid, sim::microseconds(2));
            queue_.push_back(QueueItem{r.fd, std::move(rx.msg)});
            queueNotifier_->notifyOne();
        }
    }
}

Task
ServerApp::poolWorker(Kernel &k, Tid tid, unsigned index)
{
    for (;;) {
        while (queue_.empty() || index >= workerTarget_) {
            // A descaled worker woken while work is queued passes the
            // baton before re-parking so the wake is never lost.
            if (index >= workerTarget_ && !queue_.empty())
                queueNotifier_->notifyOne();
            co_await queueNotifier_->wait(tid);
        }
        QueueItem item = std::move(queue_.front());
        queue_.pop_front();
        maybeContend(queue_.size() >= 2);
        co_await k.compute(tid, sampleDemand());
        const unsigned chunks = sampleChunks();
        for (unsigned c = 0; c < chunks; ++c) {
            co_await k.send(tid, item.fd, makeResponse(item.msg, c, chunks),
                            config_.sendSyscall);
        }
        ++completed_;
    }
}

Task
ServerApp::uringWorker(Kernel &k, Tid tid,
                       std::shared_ptr<kernel::IoUring> ring)
{
    for (;;) {
        // Blocks in io_uring_enter only when the CQ is empty; otherwise
        // the whole request loop runs without a single syscall.
        co_await ring->enter(tid);
        while (ring->hasCqe()) {
            kernel::Cqe cqe = ring->popCqe();
            maybeContend(ring->cqDepth() > 0);
            co_await k.compute(tid, sampleDemand());
            const unsigned chunks = sampleChunks();
            for (unsigned c = 0; c < chunks; ++c)
                ring->submitSend(cqe.fd, makeResponse(cqe.msg, c, chunks));
            ++completed_;
        }
    }
}

Task
ServerApp::frontendWorker(Kernel &k, Tid tid, Fd epfd)
{
    for (;;) {
        auto ready = co_await k.epollWait(tid, epfd, 16, -1);
        for (const auto &r : ready) {
            auto rx = co_await k.recv(tid, r.fd, config_.recvSyscall);
            if (!rx.ok)
                continue;
            if (r.fd == feInternalFd_) {
                // Result back from the index stage: assemble and reply.
                auto it = pendingRoutes_.find(rx.msg.requestId);
                if (it == pendingRoutes_.end())
                    continue; // stale/unroutable result
                const Fd client_fd = it->second;
                pendingRoutes_.erase(it);
                co_await k.compute(
                    tid, std::max<sim::Tick>(1, sampleFrontendDemand() / 2));
                const unsigned chunks = sampleChunks();
                for (unsigned c = 0; c < chunks; ++c) {
                    co_await k.send(tid, client_fd,
                                    makeResponse(rx.msg, c, chunks),
                                    config_.sendSyscall);
                }
                ++completed_;
            } else {
                // New client request: parse and forward to the index.
                co_await k.compute(
                    tid, std::max<sim::Tick>(1, sampleFrontendDemand() / 2));
                pendingRoutes_.emplace(rx.msg.requestId, r.fd);
                Message fwd = rx.msg;
                fwd.isResponse = false;
                co_await k.send(tid, feInternalFd_, std::move(fwd),
                                config_.sendSyscall);
            }
        }
    }
}

Task
ServerApp::backendWorker(Kernel &k, Tid tid, Fd epfd)
{
    for (;;) {
        auto ready = co_await k.epollWait(tid, epfd, 16, -1);
        for (const auto &r : ready) {
            auto rx = co_await k.recv(tid, r.fd, kernel::Syscall::Read);
            if (!rx.ok)
                continue;
            auto sock = k.socketAt(backPid_, r.fd);
            maybeContend(sock && sock->rxDepth() > 0);
            co_await k.compute(tid, sampleDemand());
            Message result;
            result.requestId = rx.msg.requestId;
            result.bytes = config_.responseBytes;
            result.isResponse = true;
            co_await k.send(tid, beInternalFd_, std::move(result),
                            kernel::Syscall::Write);
        }
    }
}

} // namespace reqobs::workload
