/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: compact
 * sweep construction, per-level window-sample collection (the paper's
 * "ten estimations per actual RPS level"), and table printing.
 */

#ifndef REQOBS_BENCH_BENCH_UTIL_HH
#define REQOBS_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "stats/regression.hh"
#include "stats/summary.hh"

namespace reqobs::bench {

/** One load level's ground truth + the agent's windowed estimates. */
using LevelResult = core::SweepPoint;

/** Base config for one workload with bench-appropriate run lengths. */
inline core::ExperimentConfig
benchConfig(const workload::WorkloadConfig &wl, std::uint64_t seed = 7)
{
    core::ExperimentConfig cfg;
    cfg.workload = wl;
    cfg.seed = seed;
    // Windows of ~512+ sends per estimate; several estimates per level.
    cfg.agent.minWindowSyscalls = 512;
    return cfg;
}

/**
 * Bench profile of the shared sweep scaling: shorter windows than the
 * harness default (4x requests per RPS, 2.5k-25k), warmup and sampling
 * capped to fractions of the window, and one seed per level.
 */
inline core::SweepScaling
benchScaling()
{
    core::SweepScaling s;
    s.requestsPerRps = 4.0;
    s.minRequests = 2500;
    s.maxRequests = 25000;
    s.scaleWarmup = true;
    s.scaleSampling = true;
    s.perLevelSeedOffset = true;
    return s;
}

/** Run one load point with request count scaled to the rate. */
inline core::ExperimentResult
runPoint(const core::ExperimentConfig &cfg, double load_fraction)
{
    return core::runExperiment(
        core::sweepPointConfig(cfg, load_fraction, benchScaling()));
}

/** Sweep a workload over @p fractions (points run in parallel). */
inline std::vector<LevelResult>
sweep(const workload::WorkloadConfig &wl,
      const std::vector<double> &fractions,
      const net::NetemConfig &netem = {}, std::uint64_t seed = 7)
{
    core::ExperimentConfig base = benchConfig(wl, seed);
    base.netem = netem;
    return core::runSweepParallel(base, fractions, benchScaling());
}

/**
 * Fig. 2-style correlation: pair every windowed RPS_obsv estimate with
 * its level's measured RPS_real and fit RPS_real = a * RPS_obsv + b.
 * @param max_estimates_per_level mirrors the paper's "ten estimations
 *        plotted for each actual RPS level".
 */
inline stats::LinearFit
fitObsVsReal(const std::vector<LevelResult> &levels,
             std::size_t max_estimates_per_level = 10)
{
    stats::LinearRegression reg;
    for (const auto &lvl : levels) {
        std::size_t used = 0;
        for (const auto &s : lvl.result.samples) {
            if (used++ >= max_estimates_per_level)
                break;
            if (s.rpsObsv > 0.0)
                reg.add(s.rpsObsv, lvl.result.achievedRps);
        }
    }
    return reg.fit();
}

/**
 * Fraction of emitted samples flagged degraded by the agent's health
 * self-diagnostics, across all levels. Pairs every accuracy number with
 * a pipeline-health number: an R² is only trustworthy alongside the
 * fraction of its samples that came from a sick pipeline.
 */
inline double
degradedFraction(const std::vector<LevelResult> &levels)
{
    std::size_t total = 0, degraded = 0;
    for (const auto &lvl : levels) {
        for (const auto &s : lvl.result.samples) {
            ++total;
            if (s.health.degraded())
                ++degraded;
        }
    }
    return total > 0 ? static_cast<double>(degraded) /
                           static_cast<double>(total)
                     : 0.0;
}

/** First swept level whose run violated QoS (-1 if none). */
inline int
qosKneeIndex(const std::vector<LevelResult> &levels)
{
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (levels[i].result.qosViolated)
            return static_cast<int>(i);
    }
    return -1;
}

/** Default sweep fractions spanning the saturation knee. */
inline std::vector<double>
kneeFractions()
{
    return {0.50, 0.65, 0.80, 0.90, 0.95, 1.00, 1.10, 1.20, 1.30};
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n=============================================="
                "==============================\n%s\n"
                "=============================================="
                "==============================\n",
                title.c_str());
}

/** The 74-dash rule separating a table header from its rows. */
inline void
dashRule()
{
    std::printf("%.74s\n",
                "--------------------------------------------------------"
                "-------------------");
}

/** `--json <path>` argument, or empty ("--json" without a path is ignored,
 *  matching the benches' historical parsing). */
inline std::string
jsonPathArg(int argc, char **argv)
{
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            path = argv[++i];
    }
    return path;
}

/**
 * The R²-matrix table shared by the matrix benches (fault classes ×
 * workloads, lifecycle classes × workloads, tenants × mixes): 14-char
 * row labels, 9-char cells. Stateless printf wrappers so the emitted
 * bytes are exactly the historical per-bench format strings.
 */
struct MatrixTable
{
    /** Header row (label + one column per class) and the dash rule. */
    static void header(const char *label,
                       const std::vector<std::string> &cols)
    {
        std::printf("%-14s", label);
        for (const std::string &c : cols)
            std::printf(" %9s", c.c_str());
        std::printf("\n");
        dashRule();
    }

    static void rowLabel(const std::string &label)
    {
        std::printf("%-14s", label.c_str());
    }

    /** One R² cell. */
    static void cell(double r2) { std::printf(" %9.4f", r2); }

    static void endRow() { std::printf("\n"); }

    /** Whole footer row of integer counts. */
    static void rowU64(const char *label,
                       const std::vector<std::uint64_t> &values)
    {
        std::printf("%-14s", label);
        for (std::uint64_t v : values)
            std::printf(" %9llu", static_cast<unsigned long long>(v));
        std::printf("\n");
    }

    /** Whole footer row of one-decimal values. */
    static void rowF1(const char *label, const std::vector<double> &values)
    {
        std::printf("%-14s", label);
        for (double v : values)
            std::printf(" %9.1f", v);
        std::printf("\n");
    }
};

/**
 * Accumulator for the benches' optional `--json <path>` emission. A row
 * is (part, label) plus two named values, r2 and degradedFraction
 * unless the bench names them; lifecycle rows add the crash/downtime
 * tail.
 */
class JsonRows
{
  public:
    /** Accuracy + pipeline-health row. */
    void add(std::string part, std::string label, double r2,
             double degraded_fraction)
    {
        add(std::move(part), std::move(label), "r2", r2,
            "degradedFraction", degraded_fraction);
    }

    /** Row whose two values are stored under @p key_a and @p key_b. */
    void add(std::string part, std::string label, const char *key_a,
             double a, const char *key_b, double b)
    {
        rows_.push_back({std::move(part), std::move(label), key_a, a, key_b,
                         b, false, 0, 0.0});
    }

    /** Row holding the one value @p a, stored under @p key. */
    void add(std::string part, std::string label, const char *key, double a)
    {
        add(std::move(part), std::move(label), key, a, nullptr, 0.0);
    }

    /** Lifecycle row (adds crashes + downtime). */
    void addLifecycle(std::string part, std::string label, double r2,
                      double degraded_fraction, std::uint64_t crashes,
                      double downtime_ms)
    {
        rows_.push_back({std::move(part), std::move(label), "r2", r2,
                         "degradedFraction", degraded_fraction, true,
                         crashes, downtime_ms});
    }

    std::size_t size() const { return rows_.size(); }

    /** Write `{"rows": [...]}` to @p path and log it. */
    void write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"rows\": [\n");
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            const char *sep = i + 1 < rows_.size() ? "," : "";
            std::fprintf(f,
                         "    {\"part\": \"%s\", \"label\": \"%s\", "
                         "\"%s\": %.6f",
                         r.part.c_str(), r.label.c_str(), r.keyA, r.a);
            if (r.keyB)
                std::fprintf(f, ", \"%s\": %.6f", r.keyB, r.b);
            if (r.lifecycle) {
                std::fprintf(f, ", \"crashes\": %llu, \"downtimeMs\": %.3f",
                             static_cast<unsigned long long>(r.crashes),
                             r.downtimeMs);
            }
            std::fprintf(f, "}%s\n", sep);
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("\nwrote %s\n", path.c_str());
    }

  private:
    struct Row
    {
        std::string part;
        std::string label;
        const char *keyA = "r2";
        double a = 0.0;
        const char *keyB = "degradedFraction"; ///< null: one-value row
        double b = 0.0;
        bool lifecycle = false;
        std::uint64_t crashes = 0;
        double downtimeMs = 0.0;
    };
    std::vector<Row> rows_;
};

} // namespace reqobs::bench

#endif // REQOBS_BENCH_BENCH_UTIL_HH
