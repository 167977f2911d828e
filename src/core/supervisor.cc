#include "core/supervisor.hh"

#include <algorithm>
#include <cstring>

namespace reqobs::core {

using ebpf::probes::SyscallStats;

Supervisor::Supervisor(kernel::Kernel &kernel, kernel::Pid tgid,
                       const SyscallProfile &profile,
                       const AgentConfig &agent_config,
                       const SupervisorConfig &config,
                       fault::FaultInjector *injector, sim::Rng rng)
    : kernel_(kernel), tgid_(tgid), profile_(profile),
      agentConfig_(agent_config), config_(config), injector_(injector),
      rng_(rng)
{}

Supervisor::~Supervisor() { stop(); }

void
Supervisor::start()
{
    if (running_)
        return;
    running_ = true;
    backoff_ = config_.restartBackoffInitial;
    downSince_ = kernel_.sim().now();
    spawnAgent();
}

void
Supervisor::stop()
{
    if (!running_)
        return;
    if (!agent_)
        stats_.downtime += kernel_.sim().now() - downSince_;
    running_ = false;
    restartTimer_.cancel();
    teardownAgent();
}

void
Supervisor::spawnAgent()
{
    ++epoch_;
    startTimes_.push_back(kernel_.sim().now());

    AgentConfig ac = agentConfig_;
    auto user_hook = agentConfig_.sampleHook;
    ac.sampleHook = [this, user_hook](const MetricsSample &s) {
        if (user_hook)
            user_hook(s);
        samples_.push_back(s);
        // Sample-granular checkpointing: a crash loses at most the
        // window accumulating right now.
        if (agent_) {
            checkpoint_ = agent_->checkpoint();
            haveCheckpoint_ = true;
            ++stats_.checkpoints;
        }
    };

    agent_ = std::make_unique<ObservabilityAgent>(kernel_, tgid_, profile_,
                                                  ac);
    if (injector_)
        agent_->runtime().setFaultInjector(injector_);
    agent_->start();

    const AgentHealth &h = agent_->health();
    const bool attached = h.sendAttached || h.recvAttached || h.pollAttached;
    if (!attached) {
        // Failed start: nothing useful happened, keep the previous map
        // snapshot and the original downSince_ so downtime accrues
        // across the whole failure streak.
        ++stats_.failedStarts;
        ++consecutiveFailures_;
        teardownAgent();
        if (config_.circuitBreakerThreshold > 0 &&
            consecutiveFailures_ >= config_.circuitBreakerThreshold) {
            stats_.circuitOpen = true;
            return;
        }
        scheduleRestart();
        return;
    }

    stats_.downtime += kernel_.sim().now() - downSince_;
    consecutiveFailures_ = 0;
    backoff_ = config_.restartBackoffInitial;
    if (epoch_ > 1) {
        // The pinned-maps analogue: kernel-side counter state survived
        // the userspace crash — unless the wipe fault lost it, in which
        // case the fresh-zero maps regress below the checkpoint and the
        // agent's discontinuity detection tears down one window.
        const bool wiped = injector_ && injector_->injectMapWipe();
        if (wiped) {
            ++stats_.mapWipes;
            // Belt and braces: tear explicitly too, covering the edge
            // where the fresh counters race past the checkpoint within
            // one sample period (regression alone would not trigger).
            agent_->markWindowTorn();
        } else if (haveMapSnap_) {
            // Zero the delta chains' lastTs before restoring: the probe
            // treats 0 as "chain unseeded" and records no delta for the
            // first post-restart event, so the outage gap never enters
            // a window — the window keeps accumulating unbiased, which
            // is what lets slow workloads (minutes per window) survive
            // frequent restarts.
            reseedDeltaChains();
            agent_->runtime().restoreMaps(mapSnap_);
        }
        if (haveCheckpoint_) {
            agent_->restore(checkpoint_);
            ++stats_.restores;
        }
        ++stats_.restarts;
    }
    armLifecycleFaults();
    lastProgress_ = samplerProgress();
    idleWatchdogTicks_ = 0;
    armWatchdog();
}

void
Supervisor::reseedDeltaChains()
{
    for (const char *name : {"send.stats", "recv.stats"}) {
        auto it = mapSnap_.find(name);
        if (it == mapSnap_.end() || it->second.entries.empty())
            continue;
        auto &value = it->second.entries.front().second;
        if (value.size() < sizeof(SyscallStats))
            continue;
        SyscallStats s{};
        std::memcpy(&s, value.data(), sizeof(s));
        s.lastTs = 0;
        std::memcpy(value.data(), &s, sizeof(s));
    }
}

void
Supervisor::teardownAgent()
{
    crashTimer_.cancel();
    stallTimer_.cancel();
    watchdogTimer_.cancel();
    if (!agent_)
        return;
    const AgentHealth &h = agent_->health();
    if (h.sendAttached || h.recvAttached || h.pollAttached) {
        mapSnap_ = agent_->runtime().snapshotMaps();
        haveMapSnap_ = true;
    }
    lastHealth_ = h;
    ebpf::EbpfRuntime &rt = agent_->runtime();
    accumEvents_ += rt.eventsProcessed();
    accumInsns_ += rt.insnsInterpreted();
    accumCost_ += rt.totalProbeCost();
    accumMapUpdateFails_ += rt.mapUpdateFails();
    accumRingbufDrops_ += rt.ringbufDrops();
    accumProbeMisses_ += rt.probeMisses();
    agent_->stop();
    agent_.reset();
}

void
Supervisor::scheduleRestart()
{
    if (stats_.circuitOpen)
        return;
    sim::Tick delay = backoff_;
    if (config_.restartJitter > 0.0) {
        const double j =
            1.0 + config_.restartJitter * (2.0 * rng_.uniform() - 1.0);
        delay = static_cast<sim::Tick>(static_cast<double>(delay) * j);
    }
    delay = std::max<sim::Tick>(delay, 1);
    const double next = static_cast<double>(backoff_) *
                        std::max(1.0, config_.restartBackoffFactor);
    backoff_ = std::min<sim::Tick>(static_cast<sim::Tick>(next),
                                   config_.restartBackoffMax);
    restartTimer_ = kernel_.sim().schedule(delay, [this] { spawnAgent(); });
}

void
Supervisor::onCrash()
{
    injector_->noteAgentCrash();
    ++stats_.crashes;
    teardownAgent();
    downSince_ = kernel_.sim().now();
    scheduleRestart();
}

void
Supervisor::armLifecycleFaults()
{
    if (!injector_)
        return;
    const sim::Tick crash_delay = injector_->nextAgentCrashDelay();
    if (crash_delay > 0) {
        crashTimer_ =
            kernel_.sim().schedule(crash_delay, [this] { onCrash(); });
    }
    const sim::Tick stall_delay = injector_->nextSamplerStallDelay();
    if (stall_delay > 0) {
        stallTimer_ = kernel_.sim().schedule(stall_delay, [this] {
            injector_->noteSamplerStall();
            agent_->stallSampler();
        });
    }
}

std::uint64_t
Supervisor::samplerProgress() const
{
    if (!agent_)
        return 0;
    const AgentHealth &h = agent_->health();
    return agent_->samples().size() + h.staleWindows + h.discontinuities;
}

void
Supervisor::armWatchdog()
{
    watchdogTimer_ = kernel_.sim().schedule(agentConfig_.samplePeriod,
                                            [this] { onWatchdogTick(); });
}

void
Supervisor::onWatchdogTick()
{
    // Progress = emitted samples + stale ticks + torn windows: anything
    // the sampler does counts. A stalled sampler freezes all three; a
    // quiet application keeps ticking stale windows and stays alive.
    const std::uint64_t progress = samplerProgress();
    if (progress != lastProgress_) {
        lastProgress_ = progress;
        idleWatchdogTicks_ = 0;
    } else if (++idleWatchdogTicks_ >= config_.stallTimeoutTicks) {
        ++stats_.stallsDetected;
        teardownAgent();
        downSince_ = kernel_.sim().now();
        scheduleRestart();
        return;
    }
    armWatchdog();
}

AgentHealth
Supervisor::health() const
{
    return agent_ ? agent_->health() : lastHealth_;
}

SyscallStats
Supervisor::snapStats(const char *map_name) const
{
    SyscallStats s{};
    auto it = mapSnap_.find(map_name);
    if (it == mapSnap_.end() || it->second.entries.empty())
        return s;
    const auto &value = it->second.entries.front().second;
    std::memcpy(&s, value.data(), std::min(sizeof(s), value.size()));
    return s;
}

FamilyCounters
Supervisor::counters() const
{
    if (agent_)
        return agent_->counters();
    return {snapStats("send.stats"), snapStats("recv.stats"),
            snapStats("poll.stats")};
}

std::uint64_t
Supervisor::probeEvents() const
{
    return accumEvents_ +
           (agent_ ? agent_->runtime().eventsProcessed() : 0);
}

std::uint64_t
Supervisor::probeInsns() const
{
    return accumInsns_ +
           (agent_ ? agent_->runtime().insnsInterpreted() : 0);
}

sim::Tick
Supervisor::probeCost() const
{
    return accumCost_ + (agent_ ? agent_->runtime().totalProbeCost() : 0);
}

std::uint64_t
Supervisor::mapUpdateFails() const
{
    return accumMapUpdateFails_ +
           (agent_ ? agent_->runtime().mapUpdateFails() : 0);
}

std::uint64_t
Supervisor::ringbufDrops() const
{
    return accumRingbufDrops_ +
           (agent_ ? agent_->runtime().ringbufDrops() : 0);
}

std::uint64_t
Supervisor::probeMisses() const
{
    return accumProbeMisses_ +
           (agent_ ? agent_->runtime().probeMisses() : 0);
}

} // namespace reqobs::core
