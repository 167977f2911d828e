#include "core/agent.hh"

#include <algorithm>
#include <cstring>

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
    : ObservabilityAgent(kernel, {{std::string(), tgid, profile}}, false,
                         config)
{}

ObservabilityAgent::ObservabilityAgent(kernel::Kernel &kernel,
                                       std::vector<TenantBinding> tenants,
                                       const AgentConfig &config)
    : ObservabilityAgent(kernel, std::move(tenants), true, config)
{}

ObservabilityAgent::ObservabilityAgent(kernel::Kernel &kernel,
                                       std::vector<TenantBinding> tenants,
                                       bool scoped, const AgentConfig &config)
    : kernel_(kernel), tenants_(std::move(tenants)), scoped_(scoped),
      config_(config)
{
    if (tenants_.empty())
        sim::fatal("ObservabilityAgent: need at least one tenant");
    runtime_ = std::make_unique<ebpf::EbpfRuntime>(kernel, config.runtime);
    metrics_.assign(tenants_.size(), TenantMetrics(config));
    now_.assign(tenants_.size(), FamilyCounters{});
}

ObservabilityAgent::~ObservabilityAgent() { stop(); }

void
ObservabilityAgent::start()
{
    namespace probes = ebpf::probes;
    if (running_)
        sim::fatal("ObservabilityAgent: start() called twice");

    // At one slot the tenant maps are exactly the Listing-1 maps.
    const auto n = static_cast<std::uint32_t>(tenants_.size());
    sendMaps_ = probes::createTenantDeltaMaps(*runtime_, n, "send");
    recvMaps_ = probes::createTenantDeltaMaps(*runtime_, n, "recv");
    pollMaps_ = probes::createTenantDurationMaps(*runtime_, n, "poll");

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
    using kernel::TracepointId;

    const unsigned shift = probes::kDeltaShift;
    const bool guarded = config_.guardedProbes;
    health_ = AgentHealth{};
    bool poll_enter = false;
    bool poll_exit = false;
    if (!scoped_) {
        const kernel::Pid tgid = tenants_[0].tgid;
        const SyscallProfile &profile = tenants_[0].profile;
        health_.sendAttached =
            attach(probes::buildDeltaExit(*runtime_, tgid,
                                          profile.sendFamily, sendMaps_,
                                          shift, guarded),
                   "send.delta_exit", TracepointId::SysExit);
        health_.recvAttached =
            attach(probes::buildDeltaExit(*runtime_, tgid,
                                          profile.recvFamily, recvMaps_,
                                          shift, guarded),
                   "recv.delta_exit", TracepointId::SysExit);
        poll_enter = attach(probes::buildDurationEnter(*runtime_, tgid,
                                                       profile.pollSyscall,
                                                       pollMaps_),
                            "poll.duration_enter", TracepointId::SysEnter);
        poll_exit = attach(probes::buildDurationExit(*runtime_, tgid,
                                                     profile.pollSyscall,
                                                     pollMaps_, shift,
                                                     guarded),
                           "poll.duration_exit", TracepointId::SysExit);
    } else {
        // One tenant set shared by every probe; slot i <-> tenants_[i].
        // Families are the union of the tenants' vocabularies: the
        // prologue attributes by tgid, and a tenant only executes its
        // own vocabulary, so the union loses nothing and adds nothing.
        probes::TenantSet set;
        std::vector<std::int64_t> send_family;
        std::vector<std::int64_t> recv_family;
        auto add_unique = [](std::vector<std::int64_t> &v, std::int64_t id) {
            if (std::find(v.begin(), v.end(), id) == v.end())
                v.push_back(id);
        };
        for (const TenantBinding &t : tenants_) {
            set.tgids.push_back(static_cast<std::uint32_t>(t.tgid));
            set.pollSyscalls.push_back(t.profile.pollSyscall);
            for (std::int64_t id : t.profile.sendFamily)
                add_unique(send_family, id);
            for (std::int64_t id : t.profile.recvFamily)
                add_unique(recv_family, id);
        }

        // An optional probe that fails to attach leaves its readings at
        // their empty values, so it must mark the agent degraded.
        auto attach_optional = [&](ebpf::ProgramSpec spec, const char *name,
                                   kernel::TracepointId point) {
            if (!attach(std::move(spec), name, point))
                ++health_.optionalAttachFails;
        };
        if (config_.heavyHitterSketch) {
            sketchFd_ = probes::createTenantSketchMap(
                *runtime_, config_.sketchStages, config_.sketchWidth, "send");
            attach_optional(probes::buildTenantHeavyHitter(
                                *runtime_, set, send_family, sketchFd_),
                            "send.heavy_hitter", TracepointId::SysExit);
        }
        health_.sendAttached =
            attach(probes::buildTenantDeltaExit(*runtime_, set, send_family,
                                                sendMaps_, shift, guarded),
                   "send.delta_exit", TracepointId::SysExit);
        health_.recvAttached =
            attach(probes::buildTenantDeltaExit(*runtime_, set, recv_family,
                                                recvMaps_, shift, guarded),
                   "recv.delta_exit", TracepointId::SysExit);
        poll_enter =
            attach(probes::buildTenantDurationEnter(*runtime_, set, pollMaps_),
                   "poll.duration_enter", TracepointId::SysEnter);
        poll_exit = attach(probes::buildTenantDurationExit(
                               *runtime_, set, pollMaps_, shift, guarded),
                           "poll.duration_exit", TracepointId::SysExit);
        if (config_.runqlatHistogram) {
            runqMaps_ = probes::createRunqlatMaps(*runtime_, n, "runq");
            // The wakeup half goes on both wakeup tracepoints (same
            // bytecode, two attachments — exactly how the real runqlat
            // tool loads one program twice).
            attach_optional(probes::buildRunqlatWakeup(*runtime_, runqMaps_),
                            "runq.wakeup", TracepointId::SchedWakeup);
            attach_optional(probes::buildRunqlatWakeup(*runtime_, runqMaps_),
                            "runq.wakeup_new", TracepointId::SchedWakeupNew);
            attach_optional(
                probes::buildRunqlatSwitch(*runtime_, set, runqMaps_),
                "runq.switch", TracepointId::SchedSwitch);
            runqSnap_.assign(n * probes::kRunqlatBuckets, 0);
            runqWindow_.assign(probes::kRunqlatBuckets, 0);
        }
    }
    health_.pollAttached = poll_enter && poll_exit;

    running_ = true;
    backoff_ = 1;
    tearNextWindow_ = false;
    for (TenantMetrics &m : metrics_)
        m.reseed(FamilyCounters{}, *runtime_, health_);
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
ObservabilityAgent::readStats(int fd, std::size_t slot) const
{
    return runtime_->arrayAt(fd).at<SyscallStats>(
        static_cast<std::uint32_t>(slot));
}

std::uint64_t
ObservabilityAgent::closeRunqWindow(std::size_t slot)
{
    // Difference the slot's cumulative histogram against its window
    // start into runqWindow_, then advance the start.
    constexpr unsigned kBuckets = ebpf::probes::kRunqlatBuckets;
    ebpf::ArrayMap &hist = runtime_->arrayAt(runqMaps_.histFd);
    std::uint64_t *start = runqSnap_.data() + slot * kBuckets;
    std::uint64_t count = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
        const auto now = hist.at<std::uint64_t>(
            static_cast<std::uint32_t>(slot * kBuckets + b));
        runqWindow_[b] = now - start[b];
        count += runqWindow_[b];
        start[b] = now;
    }
    return count;
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
    // Read every slot first, so loss proration knows each emitting
    // slot's share of the tick's fresh events. A detached family's map
    // never advances; reading it anyway would only feed zero windows.
    // Partial-operation mode: read what's live.
    //
    // A cumulative counter moving backwards means the kernel-side map
    // state was reset under us (a wiped map / lost pin across a
    // restart). Differencing across the reset would wrap the u64 into
    // an astronomical window; a restart-spanning window (marked torn by
    // the supervisor) likewise holds one outage-wide delta.
    const std::size_t n = metrics_.size();
    bool regressed = false;
    bool any_fresh = false;
    std::uint64_t total_fresh = 0;
    for (std::size_t i = 0; i < n; ++i) {
        FamilyCounters &now = now_[i];
        if (health_.sendAttached)
            now.send = readStats(sendMaps_.statsFd, i);
        if (health_.recvAttached)
            now.recv = readStats(recvMaps_.statsFd, i);
        if (health_.pollAttached)
            now.poll = readStats(pollMaps_.statsFd, i);
        const FamilyCounters &start = metrics_[i].windowStart();
        regressed = regressed ||
                    (health_.sendAttached &&
                     now.send.count < start.send.count) ||
                    (health_.recvAttached &&
                     now.recv.count < start.recv.count) ||
                    (health_.pollAttached &&
                     now.poll.count < start.poll.count);
        const std::uint64_t fresh = metrics_[i].fresh(now, health_);
        total_fresh += fresh;
        any_fresh = any_fresh || fresh >= config_.minWindowSyscalls;
    }

    // Both tear down exactly this tick's windows: reseed every slot,
    // emit nothing, leave the backoff as it is.
    if (regressed || tearNextWindow_) {
        tearNextWindow_ = false;
        ++health_.discontinuities;
        for (std::size_t i = 0; i < n; ++i) {
            metrics_[i].reseed(now_[i], *runtime_, health_);
            if (runqMaps_.histFd >= 0)
                closeRunqWindow(i);
        }
        return;
    }

    // Freshness gate, per slot: a quiet tenant keeps accumulating its
    // window while busy neighbours sample normally. The sampler backs
    // off only when every slot is stale; with everything detached that
    // is every tick, and the agent idles at maximum backoff instead of
    // crashing.
    if (any_fresh)
        backoff_ = 1;
    else if (config_.staleBackoff && backoff_ < config_.maxBackoffFactor)
        backoff_ *= 2;
    health_.backoffFactor = backoff_;

    const sim::Tick t = kernel_.sim().now();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t fresh = metrics_[i].fresh(now_[i], health_);
        if (fresh < config_.minWindowSyscalls) {
            ++health_.staleWindows;
            continue;
        }
        // Each emitting slot claims its share of the tick's fresh
        // events (one slot: exactly 1.0). A tick with none anywhere
        // (possible only at minWindowSyscalls 0) splits evenly.
        const double share = total_fresh > 0
                                 ? static_cast<double>(fresh) /
                                       static_cast<double>(total_fresh)
                                 : 1.0 / static_cast<double>(n);
        std::uint64_t runq_count = 0;
        double runq_p99 = 0.0;
        if (runqMaps_.histFd >= 0) {
            runq_count = closeRunqWindow(i);
            if (runq_count > 0)
                runq_p99 = static_cast<double>(
                    ebpf::probes::runqlatQuantile(runqWindow_, 0.99));
        }
        const MetricsSample s = metrics_[i].observe(
            t, now_[i], *runtime_, share, health_, runq_count, runq_p99);
        if (config_.sampleHook)
            config_.sampleHook(s);
    }
}

FamilyCounters
ObservabilityAgent::counters(std::size_t i) const
{
    return {readStats(sendMaps_.statsFd, i), readStats(recvMaps_.statsFd, i),
            readStats(pollMaps_.statsFd, i)};
}

double
ObservabilityAgent::overallObservedRps(std::size_t i) const
{
    return wholeRunRps(readStats(sendMaps_.statsFd, i));
}

std::uint64_t
ObservabilityAgent::sendSyscalls(std::size_t i) const
{
    return readStats(sendMaps_.statsFd, i).count;
}

double
ObservabilityAgent::overallRunqP99Ns(std::size_t i) const
{
    if (runqMaps_.histFd < 0)
        return 0.0;
    return static_cast<double>(ebpf::probes::runqlatQuantile(
        ebpf::probes::readRunqlatHist(*runtime_, runqMaps_,
                                      static_cast<std::uint32_t>(i)),
        0.99));
}

std::vector<std::pair<std::uint32_t, std::uint64_t>>
ObservabilityAgent::topTenants(std::size_t k) const
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    if (sketchFd_ < 0)
        return out;
    for (const auto &[key, count] : runtime_->sketchAt(sketchFd_).topK(k)) {
        std::uint32_t slot;
        std::memcpy(&slot, key.data(), sizeof(slot));
        out.emplace_back(slot, count);
    }
    return out;
}

AgentCheckpoint
ObservabilityAgent::checkpoint() const
{
    return metrics_[0].checkpoint(health_);
}

void
ObservabilityAgent::restore(const AgentCheckpoint &ckpt)
{
    // Attach health stays this incarnation's; the cumulative counters
    // resume from the checkpoint.
    health_.staleWindows = ckpt.health.staleWindows;
    health_.discontinuities = ckpt.health.discontinuities;
    health_.lossCorrectedEvents = ckpt.health.lossCorrectedEvents;
    metrics_[0].restore(ckpt, *runtime_, health_);
}

} // namespace reqobs::core
