/**
 * @file
 * Fleet-level merging of per-machine metric streams.
 *
 * Each machine's tenant-scoped ObservabilityAgent emits MetricsSamples
 * on its own timeline. FleetAggregator aligns them on fixed time
 * buckets and merges per bucket: observed RPS adds across machines
 * (Eq. 1 is a rate), variance pools weighted by window event count, and
 * slack takes the fleet minimum (the fleet is as close to saturation as
 * its tightest machine). Buckets missing a machine's sample still merge — a fleet
 * consumer can't wait for stragglers — with the contributor count
 * recorded so consumers can tell a quiet machine from a missing one.
 */

#ifndef REQOBS_CORE_FLEET_HH
#define REQOBS_CORE_FLEET_HH

#include <cstdint>
#include <map>
#include <vector>

#include "core/agent.hh"

namespace reqobs::core {

/** One merged fleet window. */
struct FleetSample
{
    sim::Tick t = 0;            ///< bucket start time
    double rpsObsv = 0.0;       ///< Σ per-machine Eq. 1 estimates
    double varianceNs2 = 0.0;   ///< count-weighted pooled send variance
    double slack = 0.0;         ///< min per-machine slack
    std::uint64_t sendCount = 0; ///< Σ window send events
    unsigned contributors = 0;  ///< machines represented in this bucket
    /**
     * Max per-machine run-queue wait p99 (runqlat family): the fleet is
     * as contended as its worst machine. 0 when the family is off.
     */
    double runqP99Ns = 0.0;
};

/** See file comment. */
class FleetAggregator
{
  public:
    /**
     * @param machines Fleet size (fixes the per-bucket contributor slots).
     * @param bucket   Alignment granularity; sample timestamps are
     *                 floored to multiples of this.
     */
    FleetAggregator(unsigned machines, sim::Tick bucket);

    /** Feed one machine's sample (latest sample wins within a bucket). */
    void add(unsigned machine, const MetricsSample &sample);

    /** Feed a machine's whole sample series. */
    void addSeries(unsigned machine,
                   const std::vector<MetricsSample> &samples);

    /** Merge everything fed so far, ordered by bucket time. */
    std::vector<FleetSample> merged() const;

    unsigned machines() const { return machines_; }
    sim::Tick bucket() const { return bucket_; }

  private:
    unsigned machines_;
    sim::Tick bucket_;
    /** bucket start -> per-machine latest sample (empty = missing). */
    struct Slot
    {
        bool present = false;
        MetricsSample sample;
    };
    std::map<sim::Tick, std::vector<Slot>> buckets_;
};

} // namespace reqobs::core

#endif // REQOBS_CORE_FLEET_HH
