/**
 * @file
 * Unit tests for the statistics module: streaming moments (floating
 * point and the probe's integer form), the log-bucket latency
 * histogram, OLS regression and batch helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "stats/regression.hh"
#include "stats/summary.hh"
#include "stats/welford.hh"

namespace reqobs::stats {
namespace {

std::vector<double>
randomSamples(std::uint64_t seed, std::size_t n, double lo, double hi)
{
    sim::Rng rng(seed);
    std::vector<double> v(n);
    for (auto &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

double
naiveVariance(const std::vector<double> &v)
{
    double m = 0.0;
    for (double x : v)
        m += x;
    m /= static_cast<double>(v.size());
    double s = 0.0;
    for (double x : v)
        s += (x - m) * (x - m);
    return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------- Welford

TEST(WelfordTest, MatchesNaiveComputation)
{
    const auto v = randomSamples(1, 5000, -100.0, 100.0);
    Welford w;
    for (double x : v)
        w.add(x);
    EXPECT_EQ(w.count(), v.size());
    EXPECT_NEAR(w.variance(), naiveVariance(v), 1e-9 * naiveVariance(v));
}

TEST(WelfordTest, EmptyAndSingleSample)
{
    Welford w;
    EXPECT_EQ(w.mean(), 0.0);
    EXPECT_EQ(w.variance(), 0.0);
    w.add(42.0);
    EXPECT_DOUBLE_EQ(w.mean(), 42.0);
    EXPECT_EQ(w.variance(), 0.0);
}

TEST(WelfordTest, MergeEqualsSequential)
{
    const auto v = randomSamples(2, 2000, 0.0, 50.0);
    Welford whole, a, b;
    for (std::size_t i = 0; i < v.size(); ++i) {
        whole.add(v[i]);
        (i < v.size() / 3 ? a : b).add(v[i]);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9 * whole.variance());
}

TEST(WelfordTest, SampleVarianceUsesNMinusOne)
{
    Welford w;
    w.add(1.0);
    w.add(3.0);
    EXPECT_DOUBLE_EQ(w.variance(), 1.0);       // population
    EXPECT_DOUBLE_EQ(w.sampleVariance(), 2.0); // n-1
}

// --------------------------------------------------------- IntegerMoments

TEST(IntegerMomentsTest, AgreesWithWelfordWithinQuantisation)
{
    sim::Rng rng(3);
    Welford w;
    IntegerMoments im(10); // ~1us quantisation on ns samples
    for (int i = 0; i < 20000; ++i) {
        // Deltas in the 100us..10ms range, like real inter-send gaps.
        const std::uint64_t x =
            100'000 + rng.uniformInt(9'900'000);
        w.add(static_cast<double>(x));
        im.add(x);
    }
    EXPECT_FALSE(im.saturated());
    EXPECT_NEAR(im.mean(), w.mean(), 0.01 * w.mean());
    EXPECT_NEAR(im.variance(), w.variance(), 0.02 * w.variance());
}

TEST(IntegerMomentsTest, DetectsSaturation)
{
    IntegerMoments im(0); // no quantisation: squares overflow fast
    for (int i = 0; i < 4; ++i)
        im.add(1ULL << 33); // (2^33)^2 = 2^66 overflows u64
    EXPECT_TRUE(im.saturated());
}

TEST(IntegerMomentsTest, ResetClearsState)
{
    IntegerMoments im;
    im.add(1000);
    im.add(2000);
    im.reset();
    EXPECT_EQ(im.count(), 0u);
    EXPECT_EQ(im.mean(), 0.0);
}

// -------------------------------------------------------------- Histogram

TEST(LatencyHistogramTest, ExactForSmallValues)
{
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < 32; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 32u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 31u);
    EXPECT_EQ(h.quantile(0.5), 15u);
}

class HistogramQuantileTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(HistogramQuantileTest, QuantilesWithinRelativeErrorBound)
{
    sim::Rng rng(GetParam());
    LatencyHistogram h(6, 40);
    std::vector<double> exact;
    for (int i = 0; i < 50000; ++i) {
        // Span several orders of magnitude like real latencies.
        const std::uint64_t v =
            1000 + rng.uniformInt(1) * 0 +
            static_cast<std::uint64_t>(
                std::exp(rng.uniform(std::log(1e3), std::log(1e9))));
        h.record(v);
        exact.push_back(static_cast<double>(v));
    }
    for (double q : {0.5, 0.9, 0.99}) {
        const double truth = percentile(exact, q);
        const double approx = static_cast<double>(h.quantile(q));
        EXPECT_NEAR(approx, truth, 0.05 * truth)
            << "quantile " << q << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramQuantileTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LatencyHistogramTest, MergeAddsCounts)
{
    LatencyHistogram a, b;
    a.record(100, 10);
    b.record(1'000'000, 5);
    a.merge(b);
    EXPECT_EQ(a.count(), 15u);
    EXPECT_EQ(a.maxValue(), 1'000'000u);
}

TEST(LatencyHistogramTest, HugeValuesClampInsteadOfCrashing)
{
    LatencyHistogram h(6, 30);
    h.record(UINT64_MAX);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.quantile(1.0), (1ULL << 29));
}

TEST(LatencyHistogramDeathTest, MergeGeometryMismatchIsFatal)
{
    LatencyHistogram a(6, 40), b(7, 40);
    EXPECT_DEATH(a.merge(b), "geometry");
}

// ------------------------------------------------------------- Regression

TEST(RegressionTest, PerfectLineRecovered)
{
    LinearRegression reg;
    for (int i = 0; i < 100; ++i)
        reg.add(i, 3.0 * i + 7.0);
    const LinearFit f = reg.fit();
    EXPECT_NEAR(f.slope, 3.0, 1e-9);
    EXPECT_NEAR(f.intercept, 7.0, 1e-9);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
    EXPECT_NEAR(f.residualStd, 0.0, 1e-9);
}

TEST(RegressionTest, NoiseLowersR2)
{
    sim::Rng rng(8);
    LinearRegression reg;
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniform(0.0, 10.0);
        reg.add(x, 2.0 * x + rng.normal() * 5.0);
    }
    const LinearFit f = reg.fit();
    EXPECT_NEAR(f.slope, 2.0, 0.1);
    EXPECT_GT(f.r2, 0.5);
    EXPECT_LT(f.r2, 0.99);
}

TEST(RegressionTest, DegenerateInputs)
{
    LinearRegression reg;
    EXPECT_EQ(reg.fit().n, 0u);
    reg.add(1.0, 5.0);
    EXPECT_EQ(reg.fit().slope, 0.0);
    reg.add(1.0, 7.0); // zero-variance predictor
    const LinearFit f = reg.fit();
    EXPECT_EQ(f.slope, 0.0);
    EXPECT_DOUBLE_EQ(f.intercept, 6.0);
}

TEST(RegressionTest, ResidualsSumToZero)
{
    const auto xs = randomSamples(9, 500, 0.0, 100.0);
    std::vector<double> ys(xs.size());
    sim::Rng rng(10);
    for (std::size_t i = 0; i < xs.size(); ++i)
        ys[i] = 0.5 * xs[i] + rng.normal();
    const auto res = residuals(xs, ys);
    double sum = 0.0;
    for (double r : res)
        sum += r;
    EXPECT_NEAR(sum / static_cast<double>(res.size()), 0.0, 1e-9);
}

TEST(RegressionDeathTest, SizeMismatchIsFatal)
{
    EXPECT_DEATH(fitLinear({1.0, 2.0}, {1.0}), "mismatch");
}

// ---------------------------------------------------------------- summary

TEST(SummaryTest, PercentileNearestRank)
{
    std::vector<double> v{5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(SummaryTest, NormalizeMapsToUnitInterval)
{
    const auto out = normalize({10.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 0.5);
    EXPECT_DOUBLE_EQ(out[2], 1.0);
    // Constant input maps to zeros.
    for (double v : normalize({7.0, 7.0}))
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SummaryTest, NormalizeByMax)
{
    const auto out = normalizeByMax({1.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(out[2], 1.0);
    EXPECT_DOUBLE_EQ(out[0], 0.25);
}

} // namespace
} // namespace reqobs::stats
