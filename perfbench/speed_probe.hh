/**
 * @file
 * Host-speed normalisation for the benchmark's timings.
 *
 * On a host whose cores are shared with other tenants (measured on a
 * 4-core VM) the same code runs up to ~2x slower for seconds at a time,
 * and the slow phases differ from core to core, so neither longer runs
 * nor a reference measured on another core remove the drift. SpeedProbe samples the
 * speed of the core the benchmark runs on, on the same thread, while it
 * runs: a periodic timer signal runs a fixed integer kernel (no
 * repository code) and records how long it took. A timed interval is
 * then rescaled to the reference speed at which that kernel takes
 * kReferenceNs.
 */

#ifndef REQOBS_PERFBENCH_SPEED_PROBE_HH
#define REQOBS_PERFBENCH_SPEED_PROBE_HH

#include <chrono>
#include <cstdint>

namespace perfbench {

/** Host ns the probe kernel takes at the reference speed. */
constexpr double kReferenceNs = 250000.0;

/** Running totals of the probe kernel's samples. */
struct SpeedSample
{
    std::chrono::steady_clock::time_point at;
    double kernelNs = 0.0;  ///< host time spent in the kernel so far
    std::uint64_t runs = 0; ///< kernel runs so far
};

/** What happened between two samples. */
struct Interval
{
    double workSeconds = 0.0; ///< wall time minus the probe's own runs
    double kernelNs = 0.0;    ///< median kernel time (0 without runs)
    std::uint64_t runs = 0;   ///< kernel runs in the interval
};

/**
 * Samples host speed from a SIGALRM timer while alive. One at a time
 * per process; not copyable.
 */
class SpeedProbe
{
  public:
    SpeedProbe();
    ~SpeedProbe();

    SpeedProbe(const SpeedProbe &) = delete;
    SpeedProbe &operator=(const SpeedProbe &) = delete;

    SpeedSample now() const;
};

Interval between(const SpeedSample &from, const SpeedSample &to);

/** @p seconds of work done while the kernel took @p kernel_ns, rescaled
 *  to the reference speed (unchanged without a reading). */
double atReferenceSpeed(double seconds, double kernel_ns);

/**
 * Run the probe kernel three times right now, on this thread, and
 * return its fastest host time: the speed reading for intervals too
 * short for the timer to sample.
 */
double kernelNsNow();

} // namespace perfbench

#endif // REQOBS_PERFBENCH_SPEED_PROBE_HH
