#include "core/tenant_metrics.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reqobs::core {

using ebpf::probes::SyscallStats;

MultiTenantAgent::MultiTenantAgent(kernel::Kernel &kernel,
                                   std::vector<TenantBinding> tenants,
                                   const AgentConfig &config)
    : kernel_(kernel), tenants_(std::move(tenants)), config_(config),
      alive_(std::make_shared<bool>(true))
{
    if (tenants_.empty())
        sim::fatal("MultiTenantAgent: need at least one tenant");
    runtime_ = std::make_unique<ebpf::EbpfRuntime>(kernel, config.runtime);
    metrics_.reserve(tenants_.size());
    for (std::size_t i = 0; i < tenants_.size(); ++i)
        metrics_.push_back(std::make_unique<TenantMetrics>(config));
}

MultiTenantAgent::~MultiTenantAgent()
{
    *alive_ = false;
    stop();
}

void
MultiTenantAgent::start()
{
    if (running_)
        sim::fatal("MultiTenantAgent: start() called twice");

    const std::uint32_t n = static_cast<std::uint32_t>(tenants_.size());
    sendMaps_ = ebpf::probes::createTenantDeltaMaps(*runtime_, n, "send");
    recvMaps_ = ebpf::probes::createTenantDeltaMaps(*runtime_, n, "recv");
    pollMaps_ = ebpf::probes::createTenantDurationMaps(*runtime_, n, "poll");

    // One tenant set shared by every probe; slot i <-> tenants_[i].
    ebpf::probes::TenantSet set;
    set.tgids.reserve(n);
    set.pollSyscalls.reserve(n);
    // Families are the union of the tenants' vocabularies: the prologue
    // attributes by tgid, and a tenant only executes its own vocabulary,
    // so the union loses nothing and adds nothing.
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

    auto attach = [this](ebpf::ProgramSpec spec, const char *name,
                         kernel::TracepointId point) {
        spec.name = name;
        ebpf::VerifyResult vr =
            runtime_->loadAndAttach(std::move(spec), point);
        if (!vr)
            sim::fatal("tenant probe rejected by the verifier: %s",
                       vr.error.c_str());
    };

    const unsigned shift = ebpf::probes::kDeltaShift;
    if (config_.heavyHitterSketch) {
        sketchFd_ = ebpf::probes::createTenantSketchMap(
            *runtime_, config_.sketchStages, config_.sketchWidth, "send");
        attach(ebpf::probes::buildTenantHeavyHitter(*runtime_, set,
                                                    send_family, sketchFd_),
               "send.heavy_hitter", kernel::TracepointId::SysExit);
    }
    attach(ebpf::probes::buildTenantDeltaExit(*runtime_, set, send_family,
                                              sendMaps_, shift,
                                              config_.guardedProbes),
           "send.delta_exit", kernel::TracepointId::SysExit);
    attach(ebpf::probes::buildTenantDeltaExit(*runtime_, set, recv_family,
                                              recvMaps_, shift,
                                              config_.guardedProbes),
           "recv.delta_exit", kernel::TracepointId::SysExit);
    attach(ebpf::probes::buildTenantDurationEnter(*runtime_, set, pollMaps_),
           "poll.duration_enter", kernel::TracepointId::SysEnter);
    attach(ebpf::probes::buildTenantDurationExit(*runtime_, set, pollMaps_,
                                                 shift,
                                                 config_.guardedProbes),
           "poll.duration_exit", kernel::TracepointId::SysExit);
    if (config_.runqlatHistogram) {
        runqMaps_ = ebpf::probes::createRunqlatMaps(*runtime_, n, "runq");
        // The wakeup half goes on both wakeup tracepoints (same bytecode,
        // two attachments — exactly how the real runqlat tool loads one
        // program twice).
        attach(ebpf::probes::buildRunqlatWakeup(*runtime_, runqMaps_),
               "runq.wakeup", kernel::TracepointId::SchedWakeup);
        attach(ebpf::probes::buildRunqlatWakeup(*runtime_, runqMaps_),
               "runq.wakeup_new", kernel::TracepointId::SchedWakeupNew);
        attach(ebpf::probes::buildRunqlatSwitch(*runtime_, set, runqMaps_),
               "runq.switch", kernel::TracepointId::SchedSwitch);
    }

    running_ = true;
    // loadAndAttach is fatal on rejection, so reaching here means every
    // family is live.
    health_.sendAttached = true;
    health_.recvAttached = true;
    health_.pollAttached = true;
    for (auto &m : metrics_)
        m->reseed(FamilyCounters{}, *runtime_, health_);
    runqSnap_.assign(tenants_.size(),
                     std::vector<std::uint64_t>(
                         ebpf::probes::kRunqlatBuckets, 0));
    scheduleSample();
}

void
MultiTenantAgent::stop()
{
    if (!running_)
        return;
    running_ = false;
    sampleTimer_.cancel();
    runtime_->unloadAll();
}

SyscallStats
MultiTenantAgent::readSlot(int fd, std::size_t slot) const
{
    return runtime_->arrayAt(fd).at<SyscallStats>(
        static_cast<std::uint32_t>(slot));
}

void
MultiTenantAgent::scheduleSample()
{
    auto alive = alive_;
    sampleTimer_ = kernel_.sim().schedule(config_.samplePeriod,
                                          [this, alive] {
                                              if (!*alive || !running_)
                                                  return;
                                              takeSample();
                                              scheduleSample();
                                          });
}

void
MultiTenantAgent::takeSample()
{
    const sim::Tick now = kernel_.sim().now();

    // First pass: read every tenant's slots and total the fresh events,
    // so loss proration knows each emitting tenant's share of the tick.
    std::vector<FamilyCounters> counters(tenants_.size());
    std::uint64_t total_fresh = 0;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        counters[i] = {readSlot(sendMaps_.statsFd, i),
                       readSlot(recvMaps_.statsFd, i),
                       readSlot(pollMaps_.statsFd, i)};
        total_fresh += metrics_[i]->fresh(counters[i], health_);
    }

    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        // Per-tenant freshness gate: a quiet tenant keeps accumulating
        // its window while busy neighbours sample normally.
        const std::uint64_t fresh = metrics_[i]->fresh(counters[i], health_);
        if (fresh < config_.minWindowSyscalls) {
            ++health_.staleWindows;
            continue;
        }
        const double share = total_fresh > 0
                                 ? static_cast<double>(fresh) /
                                       static_cast<double>(total_fresh)
                                 : 0.0;
        std::uint64_t runq_count = 0;
        double runq_p99 = 0.0;
        if (config_.runqlatHistogram) {
            std::vector<std::uint64_t> hist = ebpf::probes::readRunqlatHist(
                *runtime_, runqMaps_, static_cast<std::uint32_t>(i));
            std::vector<std::uint64_t> window(hist.size(), 0);
            for (std::size_t b = 0; b < hist.size(); ++b) {
                window[b] = hist[b] - runqSnap_[i][b];
                runq_count += window[b];
            }
            if (runq_count > 0)
                runq_p99 = static_cast<double>(
                    ebpf::probes::runqlatQuantile(window, 0.99));
            runqSnap_[i] = std::move(hist);
        }
        metrics_[i]->observe(now, counters[i], *runtime_, share, health_,
                             runq_count, runq_p99);
    }
}

double
MultiTenantAgent::overallObservedRps(std::size_t i) const
{
    return wholeRunRps(readSlot(sendMaps_.statsFd, i));
}

double
MultiTenantAgent::overallSendVariance(std::size_t i) const
{
    const SyscallStats s = readSlot(sendMaps_.statsFd, i);
    return diffStats(SyscallStats{}, s).varianceNs2;
}

double
MultiTenantAgent::overallPollMeanDurationNs(std::size_t i) const
{
    return wholeRunMeanNs(readSlot(pollMaps_.statsFd, i));
}

std::uint64_t
MultiTenantAgent::sendSyscalls(std::size_t i) const
{
    return readSlot(sendMaps_.statsFd, i).count;
}

double
MultiTenantAgent::overallRunqP99Ns(std::size_t i) const
{
    if (runqMaps_.histFd < 0)
        return 0.0;
    return static_cast<double>(ebpf::probes::runqlatQuantile(
        ebpf::probes::readRunqlatHist(*runtime_, runqMaps_,
                                      static_cast<std::uint32_t>(i)),
        0.99));
}

std::vector<std::pair<std::uint32_t, std::uint64_t>>
MultiTenantAgent::topTenants(std::size_t k) const
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

} // namespace reqobs::core
