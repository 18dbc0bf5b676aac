#include <gtest/gtest.h>

#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "stats/stats.hpp"

using namespace transfw;
using namespace transfw::stats;

TEST(Counter, IncAndReset)
{
    Counter counter;
    counter.inc();
    counter.inc(4);
    EXPECT_EQ(counter.value(), 5u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Distribution, Moments)
{
    Distribution dist;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        dist.record(x);
    EXPECT_EQ(dist.count(), 4u);
    EXPECT_DOUBLE_EQ(dist.mean(), 2.5);
    EXPECT_DOUBLE_EQ(dist.minimum(), 1.0);
    EXPECT_DOUBLE_EQ(dist.maximum(), 4.0);
    EXPECT_NEAR(dist.variance(), 1.25, 1e-9);
}

TEST(Distribution, WelfordStableAtLargeMagnitude)
{
    // Regression: the old sum/sumsq formulation cancels catastrophically
    // when the mean dwarfs the spread — samples around 1e9 with unit
    // spread produced wildly wrong (even negative) variances. Welford's
    // update keeps full precision.
    Distribution dist;
    for (double x : {1e9, 1e9 + 1.0, 1e9 + 2.0})
        dist.record(x);
    EXPECT_DOUBLE_EQ(dist.mean(), 1e9 + 1.0);
    EXPECT_NEAR(dist.variance(), 2.0 / 3.0, 1e-3);
    EXPECT_GE(dist.variance(), 0.0);

    // Harsher still: tick-scale offsets with tiny jitter.
    Distribution ticks;
    for (int i = 0; i < 1000; ++i)
        ticks.record(4e15 + (i % 2));
    EXPECT_NEAR(ticks.variance(), 0.25, 1e-3);
    EXPECT_GE(ticks.variance(), 0.0);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution dist;
    EXPECT_EQ(dist.mean(), 0.0);
    EXPECT_EQ(dist.variance(), 0.0);
    EXPECT_EQ(dist.minimum(), 0.0);
}

TEST(BucketHistogram, RecordAndFractions)
{
    BucketHistogram hist(4);
    hist.record(1, 3);
    hist.record(2, 1);
    EXPECT_EQ(hist.total(), 4u);
    EXPECT_DOUBLE_EQ(hist.fraction(1), 0.75);
    EXPECT_DOUBLE_EQ(hist.fraction(2), 0.25);
    EXPECT_DOUBLE_EQ(hist.fraction(3), 0.0);
}

TEST(BucketHistogram, GrowsOnDemand)
{
    BucketHistogram hist(2);
    hist.record(7);
    EXPECT_EQ(hist.bucket(7), 1u);
    EXPECT_GE(hist.buckets(), 8u);
}

TEST(Registry, SetGetFormat)
{
    Registry registry;
    registry.set("b", 2);
    registry.set("a", 1);
    EXPECT_TRUE(registry.has("a"));
    EXPECT_FALSE(registry.has("c"));
    EXPECT_DOUBLE_EQ(registry.get("b"), 2.0);
    EXPECT_EQ(registry.format(), "a = 1\nb = 2\n");
}

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(sim::strfmt("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(sim::strfmt("%05.1f", 3.25), "003.2");
}

TEST(Rng, DeterministicAndBounded)
{
    sim::Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
    sim::Rng c(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(c.range(17), 17u);
        double u = c.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, RoughUniformity)
{
    sim::Rng rng(99);
    int counts[10] = {};
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.range(10)];
    for (int count : counts) {
        EXPECT_GT(count, 9000);
        EXPECT_LT(count, 11000);
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    sim::Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}
