#include "core/agent.hh"

#include "sim/logging.hh"

namespace reqobs::core {

using ebpf::probes::SyscallStats;

TenantMetrics::TenantMetrics(const AgentConfig &config)
    : lossAware_(config.lossAware), saturation_(config.saturation),
      slack_(config.slack)
{}

std::uint64_t
TenantMetrics::fresh(const FamilyCounters &now,
                     const AgentHealth &health) const
{
    return health.sendAttached   ? now.send.count - start_.send.count
           : health.recvAttached ? now.recv.count - start_.recv.count
                                 : now.poll.count - start_.poll.count;
}

TenantMetrics::LossSnaps
TenantMetrics::familySnap(const ebpf::EbpfRuntime &runtime,
                          const AgentHealth &health)
{
    // A detached family has no program to account for (and the poll
    // pair counts only with both halves live).
    const std::array<bool, 4> attached = {health.sendAttached,
                                          health.recvAttached,
                                          health.pollAttached,
                                          health.pollAttached};
    static const std::array<const char *, 4> names = {
        "send.delta_exit", "recv.delta_exit", "poll.duration_enter",
        "poll.duration_exit"};
    LossSnaps out{};
    for (std::size_t i = 0; i < names.size(); ++i)
        if (attached[i])
            out[i] = {runtime.probeLoss(names[i]),
                      runtime.probeMissesFor(names[i]),
                      runtime.probeRunsFor(names[i])};
    return out;
}

void
TenantMetrics::stampLoss(const ebpf::EbpfRuntime &runtime,
                         AgentHealth &health) const
{
    health.mapUpdateFails = carried_.mapUpdateFails + runtime.mapUpdateFails();
    health.ringbufDrops = carried_.ringbufDrops + runtime.ringbufDrops();
    health.probeMisses = carried_.probeMisses + runtime.probeMisses();
}

MetricsSample
TenantMetrics::observe(sim::Tick t, const FamilyCounters &now,
                       const ebpf::EbpfRuntime &runtime, double share,
                       AgentHealth &health, std::uint64_t runq_count,
                       double runq_p99_ns)
{
    stampLoss(runtime, health);

    MetricsSample s;
    s.t = t;
    s.send = diffStats(start_.send, now.send);
    s.recv = diffStats(start_.recv, now.recv);
    if (now.poll.count > start_.poll.count &&
        now.poll.sumNs >= start_.poll.sumNs) {
        s.pollCount = now.poll.count - start_.poll.count;
        s.pollMeanDurNs =
            static_cast<double>(now.poll.sumNs - start_.poll.sumNs) /
            static_cast<double>(s.pollCount);
    }
    if (lossAware_) {
        const LossSnaps loss = familySnap(runtime, health);
        const std::uint64_t d_send =
            lostEvents(loss[0], lossStart_[0], s.send.count, share);
        const std::uint64_t d_recv =
            lostEvents(loss[1], lossStart_[1], s.recv.count, share);
        const std::uint64_t d_poll =
            lostEvents(loss[2], lossStart_[2], s.pollCount, share) +
            lostEvents(loss[3], lossStart_[3], s.pollCount, share);
        s.send = correctForLoss(s.send, d_send);
        s.recv = correctForLoss(s.recv, d_recv);
        // Poll durations are per-event measurements, not inter-event
        // deltas: losing one loses a sample without biasing the others'
        // mean, so only the count is restored.
        if (s.pollCount > 0)
            s.pollCount += d_poll;
        health.lossCorrectedEvents += d_send + d_recv + d_poll;
        lossStart_ = loss;
    }
    s.rpsObsv = rpsFromWindow(s.send);

    rps_.observe(s.send);
    s.saturated = saturation_.observe(s.send);
    if (s.pollCount > 0)
        slack_.observe(s.pollMeanDurNs);
    s.slack = slack_.slack();
    s.health = health;
    s.runqCount = runq_count;
    s.runqP99Ns = runq_p99_ns;

    samples_.push_back(s);
    start_ = now;
    return s;
}

void
TenantMetrics::reseed(const FamilyCounters &now,
                      const ebpf::EbpfRuntime &runtime,
                      const AgentHealth &health)
{
    start_ = now;
    if (lossAware_)
        lossStart_ = familySnap(runtime, health);
}

AgentCheckpoint
TenantMetrics::checkpoint(const AgentHealth &health) const
{
    AgentCheckpoint c;
    c.windowStart = start_;
    c.rps = rps_;
    c.saturation = saturation_;
    c.slack = slack_;
    c.health = health;
    return c;
}

void
TenantMetrics::restore(const AgentCheckpoint &ckpt,
                       const ebpf::EbpfRuntime &runtime, AgentHealth &health)
{
    start_ = ckpt.windowStart;
    rps_ = ckpt.rps;
    saturation_ = ckpt.saturation;
    slack_ = ckpt.slack;
    lossStart_ = {};
    carried_ = ckpt.health;
    stampLoss(runtime, health);
}

ObservabilityAgent::ObservabilityAgent(kernel::Kernel &kernel,
                                       kernel::Pid tgid,
                                       const SyscallProfile &profile,
                                       const AgentConfig &config)
    : kernel_(kernel), tgid_(tgid), profile_(profile), config_(config),
      metrics_(config)
{
    runtime_ = std::make_unique<ebpf::EbpfRuntime>(kernel, config.runtime);
}

ObservabilityAgent::~ObservabilityAgent() { stop(); }

void
ObservabilityAgent::start()
{
    if (running_)
        sim::fatal("ObservabilityAgent: start() called twice");

    sendMaps_ = ebpf::probes::createDeltaMaps(*runtime_, "send");
    recvMaps_ = ebpf::probes::createDeltaMaps(*runtime_, "recv");
    pollMaps_ = ebpf::probes::createDurationMaps(*runtime_, "poll");

    // Returns whether the probe is live. A rejected or fault-failed
    // attach is fatal unless the agent is configured for
    // partial-operation mode, in which case the family is simply marked
    // unhealthy and sampling continues on whatever did attach.
    auto attach = [this](ebpf::ProgramSpec spec, const char *name,
                         kernel::TracepointId point) -> bool {
        spec.name = name;
        ebpf::VerifyResult vr =
            runtime_->loadAndAttach(std::move(spec), point);
        if (!vr) {
            if (config_.tolerateAttachFailures)
                return false;
            sim::fatal("probe rejected by the verifier: %s",
                       vr.error.c_str());
        }
        return true;
    };

    const unsigned shift = ebpf::probes::kDeltaShift;
    const bool guarded = config_.guardedProbes;
    health_ = AgentHealth{};
    health_.sendAttached =
        attach(ebpf::probes::buildDeltaExit(*runtime_, tgid_,
                                            profile_.sendFamily, sendMaps_,
                                            shift, guarded),
               "send.delta_exit", kernel::TracepointId::SysExit);
    health_.recvAttached =
        attach(ebpf::probes::buildDeltaExit(*runtime_, tgid_,
                                            profile_.recvFamily, recvMaps_,
                                            shift, guarded),
               "recv.delta_exit", kernel::TracepointId::SysExit);
    const bool poll_enter =
        attach(ebpf::probes::buildDurationEnter(*runtime_, tgid_,
                                                profile_.pollSyscall,
                                                pollMaps_),
               "poll.duration_enter", kernel::TracepointId::SysEnter);
    const bool poll_exit =
        attach(ebpf::probes::buildDurationExit(*runtime_, tgid_,
                                               profile_.pollSyscall,
                                               pollMaps_, shift, guarded),
               "poll.duration_exit", kernel::TracepointId::SysExit);
    health_.pollAttached = poll_enter && poll_exit;

    running_ = true;
    backoff_ = 1;
    tearNextWindow_ = false;
    metrics_.reseed(FamilyCounters{}, *runtime_, health_);
    scheduleSample();
}

void
ObservabilityAgent::stop()
{
    if (!running_)
        return;
    running_ = false;
    sampleTimer_.cancel();
    runtime_->unloadAll();
}

SyscallStats
ObservabilityAgent::readStats(int fd) const
{
    return runtime_->arrayAt(fd).at<SyscallStats>(0);
}

void
ObservabilityAgent::scheduleSample()
{
    sampleTimer_ =
        kernel_.sim().schedule(config_.samplePeriod * backoff_, [this] {
            if (!running_)
                return;
            takeSample();
            scheduleSample();
        });
}

void
ObservabilityAgent::takeSample()
{
    // A detached family's map never advances; reading it anyway would
    // only feed zero windows. Partial-operation mode: read what's live.
    FamilyCounters now;
    if (health_.sendAttached)
        now.send = readStats(sendMaps_.statsFd);
    if (health_.recvAttached)
        now.recv = readStats(recvMaps_.statsFd);
    if (health_.pollAttached)
        now.poll = readStats(pollMaps_.statsFd);

    // A cumulative counter moving backwards means the kernel-side map
    // state was reset under us (a wiped map / lost pin across a
    // restart). Differencing across the reset would wrap the u64 into
    // an astronomical window; a restart-spanning window (marked torn by
    // the supervisor) likewise holds one outage-wide delta. Both tear
    // down exactly this window: reseed every snapshot, emit nothing.
    const FamilyCounters &start = metrics_.windowStart();
    const bool regressed =
        (health_.sendAttached && now.send.count < start.send.count) ||
        (health_.recvAttached && now.recv.count < start.recv.count) ||
        (health_.pollAttached && now.poll.count < start.poll.count);
    if (regressed || tearNextWindow_) {
        tearNextWindow_ = false;
        ++health_.discontinuities;
        metrics_.reseed(now, *runtime_, health_);
        return;
    }

    // Freshness gate. With everything detached every window is stale
    // and the agent idles at maximum backoff instead of crashing.
    if (metrics_.fresh(now, health_) < config_.minWindowSyscalls) {
        // keep accumulating this window
        ++health_.staleWindows;
        if (config_.staleBackoff && backoff_ < config_.maxBackoffFactor)
            backoff_ *= 2;
        health_.backoffFactor = backoff_;
        return;
    }
    backoff_ = 1;
    health_.backoffFactor = backoff_;

    const MetricsSample s =
        metrics_.observe(kernel_.sim().now(), now, *runtime_, 1.0, health_);
    if (config_.sampleHook)
        config_.sampleHook(s);
}

FamilyCounters
ObservabilityAgent::counters() const
{
    return {readStats(sendMaps_.statsFd), readStats(recvMaps_.statsFd),
            readStats(pollMaps_.statsFd)};
}

double
ObservabilityAgent::overallObservedRps() const
{
    return wholeRunRps(counters().send);
}

double
ObservabilityAgent::overallSendVariance() const
{
    return diffStats(SyscallStats{}, counters().send).varianceNs2;
}

double
ObservabilityAgent::overallRecvVariance() const
{
    return diffStats(SyscallStats{}, counters().recv).varianceNs2;
}

double
ObservabilityAgent::overallPollMeanDurationNs() const
{
    return wholeRunMeanNs(counters().poll);
}

std::uint64_t
ObservabilityAgent::sendSyscalls() const
{
    return counters().send.count;
}

AgentCheckpoint
ObservabilityAgent::checkpoint() const
{
    return metrics_.checkpoint(health_);
}

void
ObservabilityAgent::restore(const AgentCheckpoint &ckpt)
{
    // Attach health stays this incarnation's; the cumulative counters
    // resume from the checkpoint.
    health_.staleWindows = ckpt.health.staleWindows;
    health_.discontinuities = ckpt.health.discontinuities;
    health_.lossCorrectedEvents = ckpt.health.lossCorrectedEvents;
    metrics_.restore(ckpt, *runtime_, health_);
}

} // namespace reqobs::core
