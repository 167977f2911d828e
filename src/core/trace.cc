#include "core/trace.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>

#include "kernel/syscalls.hh"
#include "sim/logging.hh"

namespace reqobs::core {

using ebpf::probes::StreamRecord;

TraceCollector::TraceCollector(kernel::Kernel &kernel, kernel::Pid tgid,
                               const TraceConfig &config)
    : kernel_(kernel), tgid_(tgid), config_(config)
{
    runtime_ = std::make_unique<ebpf::EbpfRuntime>(kernel, config.runtime);
}

TraceCollector::~TraceCollector() { stop(); }

void
TraceCollector::start()
{
    if (running_)
        sim::fatal("TraceCollector: start() called twice");
    maps_ = ebpf::probes::createStreamMaps(*runtime_, config_.ringBytes,
                                           "trace");
    auto attach = [this](bool exit_point, kernel::TracepointId point) {
        auto vr = runtime_->loadAndAttach(
            ebpf::probes::buildStreamProbe(*runtime_, tgid_, exit_point,
                                           maps_),
            point);
        if (!vr)
            sim::fatal("stream probe rejected: %s", vr.error.c_str());
    };
    attach(false, kernel::TracepointId::SysEnter);
    attach(true, kernel::TracepointId::SysExit);
    running_ = true;
    scheduleDrain();
}

void
TraceCollector::stop()
{
    if (!running_)
        return;
    drain(); // pick up anything still queued
    running_ = false;
    drainTimer_.cancel();
    runtime_->unloadAll();
}

std::uint64_t
TraceCollector::drops() const
{
    return runtime_->ringbufAt(maps_.ringFd).drops();
}

void
TraceCollector::scheduleDrain()
{
    drainTimer_ = kernel_.sim().schedule(config_.drainPeriod, [this] {
        if (!running_)
            return;
        drain();
        scheduleDrain();
    });
}

void
TraceCollector::drain()
{
    runtime_->ringbufAt(maps_.ringFd)
        .consume([this](const std::uint8_t *data, std::uint32_t len) {
            if (len != sizeof(StreamRecord))
                return;
            StreamRecord rec;
            std::memcpy(&rec, data, sizeof(rec));
            records_.push_back(rec);
        });
}

std::string
TraceCollector::format(std::size_t max_lines) const
{
    std::ostringstream os;
    std::size_t n = 0;
    for (const auto &r : records_) {
        if (n++ >= max_lines) {
            os << "... (" << records_.size() - max_lines
               << " more records)\n";
            break;
        }
        os << sim::formatTicks(static_cast<sim::Tick>(r.ts)) << " tid="
           << kernel::tidOf(r.pidTgid) << " "
           << kernel::syscallName(static_cast<std::int64_t>(r.id))
           << (r.point ? " exit" : " enter");
        if (r.point)
            os << " ret=" << r.ret;
        os << "\n";
    }
    return os.str();
}

// ------------------------------------------------------- reconstruction

double
ReconstructionReport::matchRate() const
{
    if (totalSends == 0)
        return 0.0;
    return static_cast<double>(requests.size()) /
           static_cast<double>(totalSends);
}

double
ReconstructionReport::meanServiceNs() const
{
    if (requests.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto &r : requests)
        acc += static_cast<double>(r.serviceNs());
    return acc / static_cast<double>(requests.size());
}

ReconstructionReport
reconstructTimelines(const std::vector<StreamRecord> &records,
                     const SyscallProfile &profile)
{
    ReconstructionReport report;
    auto in_family = [](const std::vector<std::int64_t> &family,
                        std::uint64_t id) {
        return std::find(family.begin(), family.end(),
                         static_cast<std::int64_t>(id)) != family.end();
    };

    // Per-thread pending recv timestamp (0 = none).
    std::map<kernel::Tid, std::uint64_t> pending;

    for (const auto &r : records) {
        if (r.point == 0)
            continue; // pair on exits only
        const kernel::Tid tid = kernel::tidOf(r.pidTgid);
        if (in_family(profile.recvFamily, r.id)) {
            if (r.ret < 0)
                continue; // EAGAIN etc: no request consumed
            auto [it, inserted] = pending.emplace(tid, r.ts);
            if (!inserted) {
                // A second recv before the send: the naive single-
                // outstanding-request model breaks (§III).
                ++report.nestedRecvs;
                it->second = r.ts;
            }
        } else if (in_family(profile.sendFamily, r.id)) {
            ++report.totalSends;
            auto it = pending.find(tid);
            if (it == pending.end()) {
                ++report.unmatchedSends;
                continue;
            }
            ReconstructedRequest req;
            req.tid = tid;
            req.recvTs = it->second;
            req.sendTs = r.ts;
            report.requests.push_back(req);
            pending.erase(it);
        }
    }
    return report;
}

} // namespace reqobs::core
