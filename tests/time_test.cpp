#include "simcore/time.h"

#include <gtest/gtest.h>

namespace asman::sim {
namespace {

TEST(Cycles, ArithmeticAndComparison) {
  Cycles a{100}, b{40};
  EXPECT_EQ((a + b).v, 140u);
  EXPECT_EQ((a - b).v, 60u);
  EXPECT_EQ((a * 3).v, 300u);
  EXPECT_EQ((a / 3).v, 33u);
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
  a += b;
  EXPECT_EQ(a.v, 140u);
  a -= b;
  EXPECT_EQ(a.v, 100u);
}

TEST(Cycles, Ratio) {
  EXPECT_DOUBLE_EQ(Cycles{50}.ratio(Cycles{200}), 0.25);
  EXPECT_DOUBLE_EQ(Cycles{50}.ratio(Cycles{0}), 0.0);
}

TEST(Cycles, SaturatingSub) {
  EXPECT_EQ(saturating_sub(Cycles{10}, Cycles{4}).v, 6u);
  EXPECT_EQ(saturating_sub(Cycles{4}, Cycles{10}).v, 0u);
  EXPECT_EQ(saturating_sub(Cycles{4}, Cycles{4}).v, 0u);
}

TEST(ClockDomain, Conversions) {
  constexpr ClockDomain clk{2'000'000'000ULL};
  EXPECT_EQ(clk.from_ms(10).v, 20'000'000ULL);
  EXPECT_EQ(clk.from_us(5).v, 10'000ULL);
  EXPECT_DOUBLE_EQ(clk.to_seconds(Cycles{2'000'000'000ULL}), 1.0);
  EXPECT_DOUBLE_EQ(clk.to_ms(Cycles{2'000'000ULL}), 1.0);
  EXPECT_EQ(clk.from_seconds_f(0.5).v, 1'000'000'000ULL);
}

TEST(ClockDomain, DefaultClockIsPaperMachine) {
  EXPECT_EQ(kDefaultClock.hz(), 2'330'000'000ULL);
}

TEST(Log2Floor, PowersAndBetween) {
  EXPECT_EQ(log2_floor(Cycles{0}), 0u);
  EXPECT_EQ(log2_floor(Cycles{1}), 0u);
  EXPECT_EQ(log2_floor(Cycles{2}), 1u);
  EXPECT_EQ(log2_floor(Cycles{3}), 1u);
  EXPECT_EQ(log2_floor(Cycles{1024}), 10u);
  EXPECT_EQ(log2_floor(Cycles{1ULL << 20}), 20u);
  EXPECT_EQ(log2_floor(Cycles{(1ULL << 20) + 1}), 20u);
  EXPECT_EQ(log2_floor(Cycles{(1ULL << 21) - 1}), 20u);
}

TEST(Pow2Cycles, MatchesShift) {
  for (unsigned e = 0; e < 40; ++e) EXPECT_EQ(pow2_cycles(e).v, 1ULL << e);
}

class Log2FloorProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(Log2FloorProperty, InverseOfPow2) {
  const unsigned e = GetParam();
  EXPECT_EQ(log2_floor(pow2_cycles(e)), e);
  if (e > 0) {
    EXPECT_EQ(log2_floor(Cycles{(1ULL << e) - 1}), e - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllExponents, Log2FloorProperty,
                         ::testing::Range(1u, 63u));

}  // namespace
}  // namespace asman::sim
