/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "sim/stats.hh"

namespace neofog {
namespace {

TEST(Counter, IncrementsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    c.increment(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ScalarStat, EmptyIsZero)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(ScalarStat, BasicMoments)
{
    ScalarStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    // Sample variance of this classic data set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(ScalarStat, SingleSample)
{
    ScalarStat s;
    s.sample(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(ScalarStat, WelfordMatchesNaiveOnLargeValues)
{
    // Welford stays accurate with a large offset.
    ScalarStat s;
    const double offset = 1e9;
    for (double v : {1.0, 2.0, 3.0})
        s.sample(offset + v);
    EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
    EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(Histogram, BucketsAndBounds)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(0.0);
    h.sample(5.5);
    h.sample(9.999);
    h.sample(10.0);
    h.sample(42.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(5), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
}

TEST(Histogram, PercentileMidpoint)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.percentile(0.9), 90.0, 1.5);
    EXPECT_NEAR(h.percentile(0.0), 0.5, 1.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h(0.0, 1.0, 4);
    h.sample(0.5);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Downsample, KeepsEnds)
{
    std::vector<SeriesPoint> points;
    for (Tick i = 0; i < 1000; ++i)
        points.push_back({i, static_cast<double>(i)});
    const auto down = downsample(points, 10);
    EXPECT_LE(down.size(), 12u);
    EXPECT_EQ(down.front().when, 0);
    EXPECT_EQ(down.back().when, 999);
}

TEST(Downsample, NoopWhenSmall)
{
    const std::vector<SeriesPoint> points{{1, 1.0}, {2, 2.0}};
    EXPECT_EQ(downsample(points, 10).size(), 2u);
}

TEST(StatRegistry, RegisterAndFind)
{
    StatRegistry reg;
    Counter c;
    ScalarStat s;
    reg.registerCounter("node0.wakeups", &c);
    reg.registerScalar("node0.income", &s);
    EXPECT_EQ(reg.findCounter("node0.wakeups"), &c);
    EXPECT_EQ(reg.findScalar("node0.income"), &s);
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
}

TEST(StatRegistry, DumpContainsNames)
{
    StatRegistry reg;
    Counter c;
    c.increment(3);
    reg.registerCounter("x.count", &c);
    std::ostringstream oss;
    reg.dump(oss);
    EXPECT_NE(oss.str().find("x.count 3"), std::string::npos);
}

} // namespace
} // namespace neofog
