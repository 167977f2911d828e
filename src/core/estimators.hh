/**
 * @file
 * The paper's three request-level estimators, as reusable userspace
 * components operating on windowed syscall statistics:
 *
 *  - RpsEstimator    — Eq. 1: RPS_obsv = 1 / mean(Δt_send)
 *  - SaturationDetector — Eq. 2: flags saturation when the variance of
 *    inter-send deltas departs from its low-load baseline
 *  - SlackEstimator  — maps epoll-duration to a [0, 1] saturation slack
 *    (1 = idle, 0 = at/after saturation)
 *
 * Each consumes the cumulative counters maintained in-kernel by the
 * probes in src/ebpf/probes.* via windowed differencing.
 */

#ifndef REQOBS_CORE_ESTIMATORS_HH
#define REQOBS_CORE_ESTIMATORS_HH

#include <cstdint>
#include <deque>

#include "ebpf/probes.hh"
#include "sim/time.hh"

namespace reqobs::core {

/** One window of syscall-delta statistics (difference of cumulatives). */
struct DeltaWindow
{
    std::uint64_t count = 0;  ///< deltas in the window
    double meanNs = 0.0;      ///< mean inter-syscall delta
    double varianceNs2 = 0.0; ///< Eq. 2 variance

    /**
     * Normalized variance (squared coefficient of variation):
     * variance / mean². ~1 for Poisson-paced syscalls at any load,
     * rising sharply when saturation clumps them — the scale-free form
     * of the paper's Fig. 3 y-axis.
     */
    double cvSquared() const
    {
        return meanNs > 0.0 ? varianceNs2 / (meanNs * meanNs) : 0.0;
    }
};

/**
 * Difference two cumulative SyscallStats snapshots into a window.
 * @p shift must match the probe's quantisation shift.
 */
DeltaWindow diffStats(const ebpf::probes::SyscallStats &older,
                      const ebpf::probes::SyscallStats &newer,
                      unsigned shift = ebpf::probes::kDeltaShift);

/** Eq. 1 applied to a window. Returns 0 for empty windows. */
double rpsFromWindow(const DeltaWindow &window);

/**
 * De-bias a window for @p lost_events events known to have been lost
 * in-kernel (missed probe runs, failed map updates, ring-buffer drops
 * — the counters the kernel exports per program). A lost event merges
 * its two adjacent inter-syscall deltas into one observed delta, so
 * with N observed and L lost the observed deltas each span
 * k = (N + L) / N true intervals on average: E[mean_obs] ≈ k · mean
 * and, for near-exponential spacing, Var_obs ≈ k · variance. The
 * correction divides both out and restores the true event count
 * (first order: the randomness of the merge pattern is ignored).
 * Inert when lost_events is 0 or the window is empty.
 */
DeltaWindow correctForLoss(const DeltaWindow &window,
                           std::uint64_t lost_events);

/**
 * One probe program's cumulative loss counters, as EbpfRuntime exports
 * them per program.
 */
struct LossSnap
{
    std::uint64_t loss = 0;   ///< misses + map fails + ringbuf drops
    std::uint64_t misses = 0; ///< pre-filter missed runs
    std::uint64_t runs = 0;   ///< completed runs (every syscall)
};

/**
 * Family events one program lost between its loss snapshots @p snap and
 * @p now, over a window that recorded @p window_count events.
 *
 * In-program losses (failed map updates, ring-buffer drops) happen
 * after the bytecode's syscall-id filter, so they are absolute counts of
 * lost family events; a program shared by several tenants counts them
 * program-wide, and each tenant claims @p share of them (its fraction
 * of the tick's fresh events). A single tenant passes share = 1.0:
 * d · 1.0 + 0.5 is exact in a double for every d below 2^52, so the
 * rounding returns the integer count unchanged.
 *
 * Missed runs happen before the program (and its filter) ever executes,
 * across every syscall the tracepoint fires for, so only the family's
 * share of arrivals was really lost: the misses are scaled by the
 * window's recorded-events-per-run ratio (misses strike independently
 * of syscall type).
 */
std::uint64_t lostEvents(const LossSnap &now, const LossSnap &snap,
                         std::uint64_t window_count, double share);

/**
 * Eq. 1 over a whole run's cumulative counters: 1e9 · count / Σdelta.
 * 0 when nothing was recorded.
 */
double wholeRunRps(const ebpf::probes::SyscallStats &cumulative);

/** Mean of a duration family's cumulative counters (ns); 0 when empty. */
double wholeRunMeanNs(const ebpf::probes::SyscallStats &cumulative);

/**
 * Throughput estimator: keeps the most recent window and a cumulative
 * aggregate so callers can query both an instantaneous and a whole-run
 * RPS_obsv.
 */
class RpsEstimator
{
  public:
    /** Feed one window (ignored when empty). */
    void observe(const DeltaWindow &window);

    /** Eq. 1 over the latest window; 0 before any window. */
    double currentRps() const { return rpsFromWindow(last_); }

    /** Eq. 1 over everything observed so far. */
    double overallRps() const;

    std::uint64_t windows() const { return windows_; }

  private:
    DeltaWindow last_;
    std::uint64_t totalCount_ = 0;
    double totalSumNs_ = 0.0;
    std::uint64_t windows_ = 0;
};

/** Tunables for SaturationDetector. */
struct SaturationConfig
{
    /** Windows used to establish the low-load baseline. */
    unsigned baselineWindows = 5;
    /** Normalized variance (CV²) must exceed baseline * factor ... */
    double varianceFactor = 3.0;
    /** ... for this many consecutive windows to flag saturation. */
    unsigned consecutive = 2;
};

/**
 * Eq. 2 based saturation detector. Feed it the per-window send-delta
 * variance; it learns a baseline from the earliest (assumed unsaturated)
 * windows and flags saturation on a sustained variance blow-up.
 */
class SaturationDetector
{
  public:
    explicit SaturationDetector(const SaturationConfig &config = {});

    /** Feed one window. @return saturated() after this observation. */
    bool observe(const DeltaWindow &window);

    bool saturated() const { return saturated_; }

    /** Learned baseline normalized variance (0 until complete). */
    double baselineVariance() const;

    /** Latest CV² / baseline ratio (0 until baseline complete). */
    double varianceRatio() const { return lastRatio_; }

    void reset();

  private:
    SaturationConfig config_;
    std::deque<double> baseline_;
    unsigned hotStreak_ = 0;
    bool saturated_ = false;
    double lastRatio_ = 0.0;
};

/** Tunables for SlackEstimator. */
struct SlackConfig
{
    /** Smoothing factor for the running poll-duration average. */
    double ewmaAlpha = 0.3;
};

/**
 * Saturation-slack estimator from epoll/select durations (§IV-C-2).
 * The idle ceiling is the largest (smoothed) poll duration seen — the
 * application waiting for work; at saturation polls return immediately,
 * so the duration collapses toward 0. Slack is the current duration's
 * position under that ceiling: ~1 idle, ~0 saturated.
 */
class SlackEstimator
{
  public:
    explicit SlackEstimator(const SlackConfig &config = {});

    /** Feed one window's mean poll duration (ns). */
    void observe(double mean_duration_ns);

    /** Smoothed current duration (ns). */
    double currentDurationNs() const { return ewma_; }

    /** Largest smoothed duration observed (the idle ceiling, ns). */
    double idleCeilingNs() const { return maxSeen_; }

    /** Slack in [0, 1]; 1 until observations arrive. */
    double slack() const;

    void reset();

  private:
    SlackConfig config_;
    double ewma_ = 0.0;
    double maxSeen_ = 0.0;
    bool primed_ = false;
};

} // namespace reqobs::core

#endif // REQOBS_CORE_ESTIMATORS_HH
