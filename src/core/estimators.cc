#include "core/estimators.hh"

#include <algorithm>
#include <cmath>

namespace reqobs::core {

DeltaWindow
diffStats(const ebpf::probes::SyscallStats &older,
          const ebpf::probes::SyscallStats &newer, unsigned shift)
{
    DeltaWindow w;
    if (newer.count <= older.count)
        return w;
    w.count = newer.count - older.count;
    // Snapshots of a live counter pair can disagree (an injected map
    // fault, a probe detached mid-window): never let the u64 difference
    // wrap into an astronomical sum.
    const double sum_ns = newer.sumNs >= older.sumNs
                              ? static_cast<double>(newer.sumNs - older.sumNs)
                              : 0.0;
    w.meanNs = sum_ns / static_cast<double>(w.count);

    const double scale = static_cast<double>(1ULL << shift);
    const double mean_q = w.meanNs / scale;
    const double sum_sq_q =
        newer.sumSqQ >= older.sumSqQ
            ? static_cast<double>(newer.sumSqQ - older.sumSqQ)
            : 0.0;
    const double ex2_q = sum_sq_q / static_cast<double>(w.count);
    const double var_q = ex2_q - mean_q * mean_q; // Eq. 2
    w.varianceNs2 = std::max(0.0, var_q) * scale * scale;
    if (!std::isfinite(w.meanNs))
        w.meanNs = 0.0;
    if (!std::isfinite(w.varianceNs2))
        w.varianceNs2 = 0.0;
    return w;
}

DeltaWindow
correctForLoss(const DeltaWindow &window, std::uint64_t lost_events)
{
    if (window.count == 0 || lost_events == 0)
        return window;
    DeltaWindow w = window;
    const double k = static_cast<double>(window.count + lost_events) /
                     static_cast<double>(window.count);
    w.count = window.count + lost_events;
    w.meanNs = window.meanNs / k;
    w.varianceNs2 = window.varianceNs2 / k;
    return w;
}

double
rpsFromWindow(const DeltaWindow &window)
{
    if (window.count == 0 || window.meanNs <= 0.0 ||
        !std::isfinite(window.meanNs))
        return 0.0;
    return 1e9 / window.meanNs; // Eq. 1
}

std::uint64_t
lostEvents(const LossSnap &now, const LossSnap &snap,
           std::uint64_t window_count, double share)
{
    const std::uint64_t d_inprog =
        (now.loss - now.misses) - (snap.loss - snap.misses);
    const std::uint64_t d_miss = now.misses - snap.misses;
    const std::uint64_t d_runs = now.runs - snap.runs;
    std::uint64_t est = static_cast<std::uint64_t>(
        static_cast<double>(d_inprog) * share + 0.5);
    if (d_miss > 0 && d_runs > 0)
        est += (window_count * d_miss + d_runs / 2) / d_runs;
    return est;
}

namespace {

/** Eq. 1 over run totals: 1e9 · count / Σdelta, 0 when empty. */
double
rpsOverTotals(double count, double sum_ns)
{
    if (count == 0.0 || sum_ns <= 0.0)
        return 0.0;
    return 1e9 * count / sum_ns;
}

} // namespace

double
wholeRunRps(const ebpf::probes::SyscallStats &cumulative)
{
    return rpsOverTotals(static_cast<double>(cumulative.count),
                         static_cast<double>(cumulative.sumNs));
}

double
wholeRunMeanNs(const ebpf::probes::SyscallStats &cumulative)
{
    if (cumulative.count == 0)
        return 0.0;
    return static_cast<double>(cumulative.sumNs) /
           static_cast<double>(cumulative.count);
}

void
RpsEstimator::observe(const DeltaWindow &window)
{
    if (window.count == 0)
        return;
    last_ = window;
    totalCount_ += window.count;
    totalSumNs_ += window.meanNs * static_cast<double>(window.count);
    ++windows_;
}

double
RpsEstimator::overallRps() const
{
    return rpsOverTotals(static_cast<double>(totalCount_), totalSumNs_);
}

// ------------------------------------------------------ SaturationDetector

SaturationDetector::SaturationDetector(const SaturationConfig &config)
    : config_(config)
{}

double
SaturationDetector::baselineVariance() const
{
    if (baseline_.size() < config_.baselineWindows)
        return 0.0;
    // Median of the baseline windows: robust to one early outlier.
    std::deque<double> sorted = baseline_;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
}

bool
SaturationDetector::observe(const DeltaWindow &window)
{
    if (window.count == 0 || !std::isfinite(window.cvSquared()))
        return saturated_;
    if (baseline_.size() < config_.baselineWindows) {
        baseline_.push_back(window.cvSquared());
        return saturated_;
    }
    const double base = baselineVariance();
    if (base <= 0.0) {
        lastRatio_ = 0.0;
        return saturated_;
    }
    lastRatio_ = window.cvSquared() / base;
    if (lastRatio_ >= config_.varianceFactor) {
        if (++hotStreak_ >= config_.consecutive)
            saturated_ = true;
    } else {
        hotStreak_ = 0;
        saturated_ = false;
    }
    return saturated_;
}

void
SaturationDetector::reset()
{
    baseline_.clear();
    hotStreak_ = 0;
    saturated_ = false;
    lastRatio_ = 0.0;
}

// ---------------------------------------------------------- SlackEstimator

SlackEstimator::SlackEstimator(const SlackConfig &config) : config_(config) {}

void
SlackEstimator::observe(double mean_duration_ns)
{
    if (mean_duration_ns < 0.0 || !std::isfinite(mean_duration_ns))
        return;
    if (!primed_) {
        ewma_ = mean_duration_ns;
        maxSeen_ = mean_duration_ns;
        primed_ = true;
        return;
    }
    ewma_ = config_.ewmaAlpha * mean_duration_ns +
            (1.0 - config_.ewmaAlpha) * ewma_;
    maxSeen_ = std::max(maxSeen_, ewma_);
}

double
SlackEstimator::slack() const
{
    if (!primed_ || maxSeen_ <= 0.0)
        return 1.0;
    return std::clamp(ewma_ / maxSeen_, 0.0, 1.0);
}

void
SlackEstimator::reset()
{
    ewma_ = 0.0;
    maxSeen_ = 0.0;
    primed_ = false;
}

} // namespace reqobs::core
