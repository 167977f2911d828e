#include "sim/simulation.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace reqobs::sim {

Simulation::Simulation(std::uint64_t seed) : masterRng_(seed) {}

void
Simulation::checkDelay(Tick delay) const
{
    if (delay < 0)
        panic("Simulation::schedule: negative delay %lld", (long long)delay);
}

void
Simulation::checkAt(Tick when) const
{
    if (when < now_)
        panic("Simulation::scheduleAt: tick %lld is in the past (now %lld)",
              (long long)when, (long long)now_);
}

void
Simulation::run()
{
    while (events_.popAndRun(now_)) {
    }
}

void
Simulation::runUntil(Tick deadline)
{
    while (!events_.empty() && events_.nextTick() <= deadline) {
        events_.popAndRun(now_);
    }
    if (now_ < deadline)
        now_ = deadline;
}

bool
Simulation::step()
{
    return events_.popAndRun(now_);
}

} // namespace reqobs::sim
