#include "speed_probe.hh"

#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace perfbench {

namespace {

/** Timer period: 50 readings a second, about 1.2% of the time. */
constexpr long kPeriodUs = 20000;

/** Readings kept: over five minutes at the timer's rate. */
constexpr std::uint64_t kLogSize = 1 << 14;

/** What the handler writes (lock-free atomics are signal-safe). */
std::uint32_t g_log[kLogSize]; ///< kernel ns of reading i % kLogSize
std::atomic<std::uint64_t> g_kernelNs{0};
std::atomic<std::uint64_t> g_runs{0};

/** Table the kernel walks: 16 KiB, L1-resident like a hot sim loop. */
std::uint32_t g_table[4096];

volatile std::uint64_t g_sink = 0;

std::uint64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/**
 * Fixed work: a data-dependent walk with unpredictable branches and
 * 64-bit multiplies, the mix the simulator's event loop runs.
 */
std::uint64_t
kernel()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + g_table[(x >> 40) & 4095];
        if (x & (1ull << 37))
            x ^= x >> 17;
        else
            x += g_table[x & 4095];
    }
    return x;
}

void
fillTable()
{
    if (g_table[0] != 0)
        return;
    std::uint64_t s = 88172645463325252ull;
    for (std::uint32_t &v : g_table) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        v = static_cast<std::uint32_t>(s) | 1u;
    }
}

void
onAlarm(int)
{
    const std::uint64_t t0 = monoNs();
    g_sink = g_sink + kernel();
    const std::uint64_t ns = monoNs() - t0;
    const std::uint64_t i = g_runs.load(std::memory_order_relaxed);
    g_log[i % kLogSize] = static_cast<std::uint32_t>(ns);
    g_kernelNs.fetch_add(ns, std::memory_order_relaxed);
    g_runs.store(i + 1);
}

void
setTimer(long period_us)
{
    itimerval it{};
    it.it_interval.tv_usec = period_us;
    it.it_value.tv_usec = period_us;
    if (setitimer(ITIMER_REAL, &it, nullptr) != 0) {
        std::perror("perfbench: setitimer");
        std::exit(2);
    }
}

} // namespace

SpeedProbe::SpeedProbe()
{
    fillTable();
    struct sigaction sa{};
    sa.sa_handler = onAlarm;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGALRM, &sa, nullptr) != 0) {
        std::perror("perfbench: sigaction");
        std::exit(2);
    }
    setTimer(kPeriodUs);
}

SpeedProbe::~SpeedProbe()
{
    setTimer(0);
}

SpeedSample
SpeedProbe::now() const
{
    // Hold the timer's signal off so the three readings agree.
    sigset_t alarm, old;
    sigemptyset(&alarm);
    sigaddset(&alarm, SIGALRM);
    sigprocmask(SIG_BLOCK, &alarm, &old);
    SpeedSample s;
    s.runs = g_runs.load();
    s.kernelNs = static_cast<double>(g_kernelNs.load());
    s.at = std::chrono::steady_clock::now();
    sigprocmask(SIG_SETMASK, &old, nullptr);
    return s;
}

Interval
between(const SpeedSample &from, const SpeedSample &to)
{
    Interval iv;
    iv.runs = to.runs - from.runs;
    iv.workSeconds = std::chrono::duration<double>(to.at - from.at).count() -
                     (to.kernelNs - from.kernelNs) * 1e-9;
    // The median reading: a run the host happened to preempt would drag
    // a mean far off.
    if (iv.runs > 0 && iv.runs <= kLogSize) {
        std::vector<std::uint32_t> v;
        for (std::uint64_t i = from.runs; i < to.runs; ++i)
            v.push_back(g_log[i % kLogSize]);
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        iv.kernelNs = v[v.size() / 2];
    }
    return iv;
}

double
atReferenceSpeed(double seconds, double kernel_ns)
{
    return kernel_ns > 0.0 ? seconds * kReferenceNs / kernel_ns : seconds;
}

double
kernelNsNow()
{
    fillTable();
    std::uint64_t best = ~0ull;
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t t0 = monoNs();
        g_sink = g_sink + kernel();
        best = std::min(best, monoNs() - t0);
    }
    return static_cast<double>(best);
}

} // namespace perfbench
