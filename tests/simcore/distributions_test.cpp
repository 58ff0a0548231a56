#include "simcore/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace simmr {
namespace {

// Shared sampling-vs-theory checks for every distribution: sample moments
// approach Mean()/Variance(), and the empirical CDF of the sample agrees
// with Cdf() at the quartile points.
struct DistCase {
  std::string name;
  DistributionPtr dist;
  double mean_tol;      // relative tolerance on the mean
  double variance_tol;  // relative tolerance on the variance
};

// gtest_discover_tests builds each ctest name from the printed param. With
// no printer gtest dumps the struct's raw bytes, heap pointers included, so
// ASLR renamed these cases on every build. Printing the family name gives
// stable names such as
// "AllFamilies/DistributionMoments.SampleMeanMatchesTheory/normal".
void PrintTo(const DistCase& c, std::ostream* os) { *os << c.name; }

class DistributionMoments : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionMoments, SampleMeanMatchesTheory) {
  const DistCase& c = GetParam();
  Rng rng(2024);
  const int n = 120000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += c.dist->Sample(rng);
  const double sample_mean = sum / n;
  const double expected = c.dist->Mean();
  EXPECT_NEAR(sample_mean, expected,
              std::max(1e-9, std::fabs(expected) * c.mean_tol))
      << c.dist->Describe();
}

TEST_P(DistributionMoments, SampleVarianceMatchesTheory) {
  const DistCase& c = GetParam();
  Rng rng(4048);
  const int n = 120000;
  std::vector<double> xs(n);
  double sum = 0.0;
  for (auto& x : xs) {
    x = c.dist->Sample(rng);
    sum += x;
  }
  const double mean = sum / n;
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  const double sample_var = ss / n;
  const double expected = c.dist->Variance();
  EXPECT_NEAR(sample_var, expected,
              std::max(1e-9, std::fabs(expected) * c.variance_tol))
      << c.dist->Describe();
}

TEST_P(DistributionMoments, EmpiricalCdfMatchesCdf) {
  const DistCase& c = GetParam();
  Rng rng(31337);
  const int n = 50000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = c.dist->Sample(rng);
  std::sort(xs.begin(), xs.end());
  for (const double q : {0.25, 0.5, 0.75}) {
    const double x = xs[static_cast<std::size_t>(q * n)];
    EXPECT_NEAR(c.dist->Cdf(x), q, 0.02) << c.dist->Describe() << " at q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, DistributionMoments,
    ::testing::Values(
        DistCase{"uniform", std::make_shared<UniformDist>(2.0, 8.0), 0.02,
                 0.05},
        DistCase{"exponential", std::make_shared<ExponentialDist>(0.5), 0.02,
                 0.05},
        DistCase{"normal", std::make_shared<NormalDist>(10.0, 2.0), 0.02,
                 0.05},
        DistCase{"lognormal", std::make_shared<LogNormalDist>(1.0, 0.5), 0.02,
                 0.08},
        DistCase{"weibull", std::make_shared<WeibullDist>(1.5, 3.0), 0.02,
                 0.05},
        DistCase{"gamma_large_shape", std::make_shared<GammaDist>(3.0, 2.0),
                 0.02, 0.05},
        DistCase{"gamma_small_shape", std::make_shared<GammaDist>(0.5, 1.0),
                 0.03, 0.08},
        DistCase{"pareto", std::make_shared<ParetoDist>(1.0, 4.0), 0.02,
                 0.30}));

TEST(DeterministicDist, AlwaysReturnsValue) {
  DeterministicDist d(3.5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.Sample(rng), 3.5);
  EXPECT_EQ(d.Mean(), 3.5);
  EXPECT_EQ(d.Variance(), 0.0);
  EXPECT_EQ(d.Cdf(3.4), 0.0);
  EXPECT_EQ(d.Cdf(3.5), 1.0);
}

TEST(UniformDist, CdfShape) {
  UniformDist d(0.0, 10.0);
  EXPECT_EQ(d.Cdf(-1.0), 0.0);
  EXPECT_NEAR(d.Cdf(2.5), 0.25, 1e-12);
  EXPECT_EQ(d.Cdf(11.0), 1.0);
}

TEST(UniformDist, RejectsInvertedRange) {
  EXPECT_THROW(UniformDist(3.0, 2.0), std::invalid_argument);
}

TEST(ExponentialDist, RejectsNonpositiveRate) {
  EXPECT_THROW(ExponentialDist(0.0), std::invalid_argument);
  EXPECT_THROW(ExponentialDist(-1.0), std::invalid_argument);
}

TEST(ExponentialDist, SamplesNonnegative) {
  ExponentialDist d(2.0);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(d.Sample(rng), 0.0);
}

TEST(NormalDist, TruncationFloorHolds) {
  NormalDist d(0.0, 1.0, /*floor=*/0.5);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) EXPECT_GE(d.Sample(rng), 0.5);
}

TEST(NormalDist, RejectsNonpositiveSigma) {
  EXPECT_THROW(NormalDist(0.0, 0.0), std::invalid_argument);
}

TEST(LogNormalDist, SamplesArePositive) {
  LogNormalDist d(9.9511, 1.6764);  // the paper's Facebook map fit
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(d.Sample(rng), 0.0);
}

TEST(LogNormalDist, MedianIsExpMu) {
  LogNormalDist d(2.0, 0.7);
  EXPECT_NEAR(d.Cdf(std::exp(2.0)), 0.5, 1e-9);
}

TEST(LogNormalDist, FacebookFitMeanIsPlausible) {
  // LN(9.9511, 1.6764) in milliseconds: mean = exp(mu + sigma^2/2).
  LogNormalDist d(9.9511, 1.6764);
  const double mean_s = d.Mean() / 1000.0;
  EXPECT_GT(mean_s, 50.0);   // tens of seconds
  EXPECT_LT(mean_s, 200.0);  // not hours
}

TEST(WeibullDist, Shape1IsExponential) {
  WeibullDist w(1.0, 2.0);
  ExponentialDist e(0.5);
  for (const double x : {0.1, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(w.Cdf(x), e.Cdf(x), 1e-12);
  }
}

TEST(GammaDist, Shape1IsExponential) {
  GammaDist g(1.0, 2.0);
  ExponentialDist e(0.5);
  for (const double x : {0.1, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(g.Cdf(x), e.Cdf(x), 1e-9);
  }
}

TEST(GammaDist, CdfMonotoneIncreasing) {
  GammaDist g(2.5, 1.5);
  double prev = 0.0;
  for (double x = 0.0; x < 20.0; x += 0.5) {
    const double cur = g.Cdf(x);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_NEAR(g.Cdf(1000.0), 1.0, 1e-9);
}

TEST(ParetoDist, SupportStartsAtXm) {
  ParetoDist p(2.0, 3.0);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(p.Sample(rng), 2.0);
  EXPECT_EQ(p.Cdf(1.9), 0.0);
}

TEST(ParetoDist, InfiniteMomentsForHeavyTails) {
  EXPECT_TRUE(std::isinf(ParetoDist(1.0, 0.9).Mean()));
  EXPECT_TRUE(std::isinf(ParetoDist(1.0, 1.5).Variance()));
}

TEST(EmpiricalDist, ResamplesOnlyObservedValues) {
  EmpiricalDist d({1.0, 2.0, 3.0});
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.Sample(rng);
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 3.0);
  }
}

TEST(EmpiricalDist, MomentsMatchSample) {
  EmpiricalDist d({2.0, 4.0, 6.0, 8.0});
  EXPECT_DOUBLE_EQ(d.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 5.0);
}

TEST(EmpiricalDist, CdfIsStepFunction) {
  EmpiricalDist d({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.Cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.Cdf(4.0), 1.0);
}

TEST(EmpiricalDist, RejectsEmptySample) {
  EXPECT_THROW(EmpiricalDist({}), std::invalid_argument);
}

TEST(Distribution, SampleManyReturnsRequestedCount) {
  UniformDist d(0.0, 1.0);
  Rng rng(3);
  EXPECT_EQ(d.SampleMany(rng, 57).size(), 57u);
}

TEST(Distribution, DescribeMentionsParameters) {
  EXPECT_NE(LogNormalDist(9.9511, 1.6764).Describe().find("9.9511"),
            std::string::npos);
  EXPECT_NE(UniformDist(1, 2).Describe().find("Uniform"), std::string::npos);
}

TEST(StdNormalCdf, KnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(StdNormalCdf(-1.96), 0.025, 1e-3);
}

TEST(Distribution, SamplingIsDeterministicUnderFixedSeed) {
  // Equal seeds must give bit-identical streams for every family — the
  // property trace generation, the fuzzer and reproducer replays build on.
  const std::vector<DistributionPtr> dists = []() {
    std::vector<DistributionPtr> v;
    v.push_back(std::make_shared<LogNormalDist>(9.9511, 1.6764));
    v.push_back(std::make_shared<UniformDist>(1.0, 120.0));
    v.push_back(std::make_shared<ExponentialDist>(0.5));
    v.push_back(std::make_shared<ParetoDist>(1.0, 1.2));
    v.push_back(std::make_shared<WeibullDist>(1.5, 10.0));
    v.push_back(std::make_shared<GammaDist>(2.0, 3.0));
    return v;
  }();
  for (const auto& dist : dists) {
    Rng a(77);
    Rng b(77);
    const auto sa = dist->SampleMany(a, 500);
    const auto sb = dist->SampleMany(b, 500);
    EXPECT_EQ(sa, sb) << dist->Describe();
  }
}

}  // namespace
}  // namespace simmr
