#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace caya {
namespace {

TEST(RateCounter, EmptyIsZero) {
  RateCounter c;
  EXPECT_EQ(c.trials(), 0u);
  EXPECT_DOUBLE_EQ(c.rate(), 0.0);
}

TEST(RateCounter, CountsSuccesses) {
  RateCounter c;
  c.record(true);
  c.record(false);
  c.record(true);
  c.record(true);
  EXPECT_EQ(c.trials(), 4u);
  EXPECT_EQ(c.successes(), 3u);
  EXPECT_DOUBLE_EQ(c.rate(), 0.75);
}

TEST(RateCounter, WilsonBracketsTheRate) {
  RateCounter c;
  for (int i = 0; i < 50; ++i) c.record(true);
  for (int i = 0; i < 50; ++i) c.record(false);
  const auto iv = c.wilson();
  EXPECT_LT(iv.lo, 0.5);
  EXPECT_GT(iv.hi, 0.5);
  EXPECT_GT(iv.lo, 0.38);
  EXPECT_LT(iv.hi, 0.62);
}

TEST(RateCounter, WilsonHandlesExtremes) {
  RateCounter c;
  for (int i = 0; i < 20; ++i) c.record(true);
  const auto iv = c.wilson();
  EXPECT_GT(iv.lo, 0.7);
  EXPECT_LE(iv.hi, 1.0);
  // 0/20: the lower end is exactly +0.0, which prints as 0.0%, not -0.0%.
  RateCounter none;
  for (int i = 0; i < 20; ++i) none.record(false);
  const auto zero = none.wilson();
  EXPECT_EQ(zero.lo, 0.0);
  EXPECT_FALSE(std::signbit(zero.lo));
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_LE(zero.hi, 1.0);
}

TEST(Percent, FormatsRounded) {
  EXPECT_EQ(percent(0.537), "54%");
  EXPECT_EQ(percent(0.0), "0%");
  EXPECT_EQ(percent(1.0), "100%");
  EXPECT_EQ(percent(0.004), "0%");
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

}  // namespace
}  // namespace caya
