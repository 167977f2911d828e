#include "kernel/tracepoint.hh"

#include <algorithm>

namespace reqobs::kernel {

ProbeHandle
TracepointRegistry::attach(TracepointId point, TracepointProbe probe)
{
    const ProbeHandle h = nextHandle_++;
    probes_[static_cast<std::size_t>(point)].push_back(
        Entry{h, std::move(probe)});
    return h;
}

void
TracepointRegistry::detach(ProbeHandle handle)
{
    for (auto &list : probes_) {
        auto it = std::find_if(list.begin(), list.end(),
                               [handle](const Entry &e) {
                                   return e.handle == handle;
                               });
        if (it != list.end()) {
            list.erase(it);
            return;
        }
    }
}

sim::Tick
TracepointRegistry::fire(const RawSyscallEvent &event)
{
    ++fired_;
    sim::Tick cost = 0;
    for (auto &entry : probes_[static_cast<std::size_t>(event.point)])
        cost += entry.probe(event);
    return cost;
}

std::size_t
TracepointRegistry::probeCount(TracepointId point) const
{
    return probes_[static_cast<std::size_t>(point)].size();
}

} // namespace reqobs::kernel
