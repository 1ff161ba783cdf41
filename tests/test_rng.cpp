#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace caya {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1'000'000), b.uniform(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1'000'000) == b.uniform(0, 1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
  // Clamped draws take nothing from the stream (LinkModel's fixed-draw
  // contract relies on it).
  Rng untouched(7);
  EXPECT_EQ(rng.engine()(), untouched.engine()());
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng rng(123);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, BytesProducesRequestedLength) {
  Rng rng(9);
  EXPECT_EQ(rng.bytes(16).size(), 16u);
  EXPECT_TRUE(rng.bytes(0).empty());
}

TEST(Rng, PickCoversAllElements) {
  Rng rng(5);
  const std::vector<int> xs = {1, 2, 3, 4};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.pick(xs));
  EXPECT_EQ(seen.size(), xs.size());
}

TEST(Rng, SaveAdvanceRestoreReplaysExactly) {
  Rng rng(2024);
  // Burn some draws so the saved state is not the freshly seeded one.
  for (int i = 0; i < 37; ++i) (void)rng.uniform(0, 1'000'000);

  const std::string state = rng.save_state();
  std::vector<std::uint64_t> first;
  std::vector<double> first_units;
  for (int i = 0; i < 50; ++i) {
    first.push_back(rng.uniform(0, 1'000'000));
    first_units.push_back(rng.unit());
  }

  rng.restore_state(state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.uniform(0, 1'000'000), first[i]);
    EXPECT_EQ(rng.unit(), first_units[i]);
  }
}

TEST(Rng, RestoreIntoDifferentInstance) {
  Rng source(7);
  for (int i = 0; i < 11; ++i) (void)source.unit();
  const std::string state = source.save_state();

  Rng other(999);  // unrelated seed; state restore must fully overwrite it
  other.restore_state(state);
  EXPECT_EQ(other.uniform(0, 1'000'000), source.uniform(0, 1'000'000));
  EXPECT_EQ(other.save_state(), source.save_state());
}

TEST(Rng, RestoreRejectsGarbage) {
  // Each rejected string: not numbers, too few or too many words, trailing
  // junk, a word out of range, and the engine's all-zero fixed point.
  const std::vector<std::string> bad = {
      "not a xoshiro256** state",
      "",
      "1 2 3",
      "1 2 3 4 5",
      "1 2 3 4x",
      "1 2 3 4 ",
      " 1 2 3 4",
      "1  2 3 4",
      "-1 2 3 4",
      "+1 2 3 4",
      "18446744073709551616 1 1 1",
      "0 0 0 0",
  };
  for (const std::string& state : bad) {
    Rng rng(1);
    (void)rng.unit();
    EXPECT_THROW(rng.restore_state(state), std::invalid_argument)
        << '"' << state << '"';
    // A failed restore must leave the stream untouched.
    Rng witness(1);
    (void)witness.unit();
    EXPECT_EQ(rng.save_state(), witness.save_state()) << '"' << state << '"';
    EXPECT_EQ(rng.uniform(0, 1'000'000), witness.uniform(0, 1'000'000));
  }
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  Rng a(42);
  Rng child = a.fork();
  // The child must be deterministic given the parent's seed...
  Rng b(42);
  Rng child2 = b.fork();
  EXPECT_EQ(child.uniform(0, 1'000'000), child2.uniform(0, 1'000'000));
}

// ---- Known-answer vectors ---------------------------------------------------
// The stream is a contract: checkpoints, goldens and every published number
// depend on it. These vectors were computed independently of this code (a
// direct Python transcription of splitmix64, xoshiro256** and Lemire's
// bounded draw), so any change to the engine or a distribution fails here.

TEST(Rng, Splitmix64MatchesReference) {
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454fULL);
  EXPECT_EQ(state, 3 * 0x9e3779b97f4a7c15ULL);
}

TEST(Rng, EngineMatchesReference) {
  Rng zero(0);
  EXPECT_EQ(zero.engine()(), 0x99ec5f36cb75f2b4ULL);
  EXPECT_EQ(zero.engine()(), 0xbf6e1f784956452aULL);
  EXPECT_EQ(zero.engine()(), 0x1a5f849d4933e6e0ULL);
  Rng answer(42);
  EXPECT_EQ(answer.engine()(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(answer.engine()(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(answer.engine()(), 0xae17533239e499a1ULL);
}

TEST(Rng, DistributionsMatchReference) {
  // One stream through every public draw, in this order.
  Rng rng(2024);
  for (const std::uint64_t expected : {10u, 18u, 10u, 11u}) {
    EXPECT_EQ(rng.uniform(10, 20), expected);
  }
  EXPECT_EQ(rng.uniform(0, 1'000'000), 773651u);
  for (const std::size_t expected : {1u, 2u, 1u, 3u}) {
    EXPECT_EQ(rng.index(7), expected);
  }
  EXPECT_EQ(rng.unit(), 0x1.9f1188e60f9b0p-5);
  EXPECT_EQ(rng.unit(), 0x1.70d10a113e700p-1);
  for (const bool expected :
       {false, false, false, false, true, true, false, false}) {
    EXPECT_EQ(rng.chance(0.3), expected);
  }
  EXPECT_EQ(rng.bytes(5), (Bytes{0x66, 0xa6, 0x4d, 0x31, 0x6b}));
  Rng child = rng.fork();
  EXPECT_EQ(child.engine()(), 0xbd835cd168e0495aULL);
  // fork() took exactly one parent draw.
  EXPECT_EQ(rng.engine()(), 0x00b3f7974a7c92d5ULL);
}

TEST(Rng, FullRangeUniformIsTheRawDraw) {
  Rng a(11);
  Rng b(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, std::numeric_limits<std::uint64_t>::max()),
              b.engine()());
  }
}

TEST(Rng, DegenerateRangeStillTakesOneDraw) {
  Rng a(12);
  Rng b(12);
  EXPECT_EQ(a.uniform(77, 77), 77u);
  EXPECT_EQ(a.index(1), 0u);
  (void)b.engine()();
  (void)b.engine()();
  EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(Rng, HalfRangeBoundRejectsAndStaysExact) {
  // n = 2^63 + 1 is the worst case for the multiply-shift: almost half of
  // all draws land in the biased sliver and are redrawn. 8 outputs took 19
  // draws in the reference.
  constexpr std::size_t kN = (std::size_t{1} << 63) + 1;
  Rng rng(7);
  const std::vector<std::size_t> expected = {
      0x59ac7d7ba77cbb2d, 0x6b78e9a4ca963ccb, 0x7d949c398f403920,
      0x7ed482763f2a018c, 0x136eb5d000c700b1, 0x5dad879c48f94fec,
      0x20db7accf9ed2edf, 0x140830628533ca9d};
  for (const std::size_t value : expected) EXPECT_EQ(rng.index(kN), value);
  // ...and exactly 19 draws: the next raw draw is the reference's 20th.
  EXPECT_EQ(rng.engine()(), 0x223a45c5da8c03adULL);
}

TEST(Rng, UnitLivesOnTheHalfOpenLattice) {
  // Every value is a multiple of 2^-53 in [0, 1), equal to the top 53 bits
  // of one raw draw.
  Rng rng(13);
  Rng twin(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_EQ(u, static_cast<double>(twin.engine()() >> 11) * 0x1p-53);
    const double scaled = u * 0x1p53;
    EXPECT_EQ(scaled, std::floor(scaled));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  // The extremes, from states whose next raw draw is 0 and 2^64 - 1.
  Rng edge(0);
  edge.restore_state("1 0 0 0");
  EXPECT_EQ(edge.unit(), 0.0);
  edge.restore_state("1 5748594724359139783 0 0");
  EXPECT_EQ(edge.unit(), 1.0 - 0x1p-53);
}

TEST(Rng, StateIsFourDecimalWords) {
  Rng rng(0);
  // The splitmix64 expansion of seed 0, untouched by any draw yet.
  EXPECT_EQ(rng.save_state(),
            "16294208416658607535 7960286522194355700 487617019471545679 "
            "17909611376780542444");
}

}  // namespace
}  // namespace caya
