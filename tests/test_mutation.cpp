#include "geneva/mutation.h"

#include <gtest/gtest.h>

#include "geneva/parser.h"

namespace caya {
namespace {

// Property suite over many seeds: the genetic operators must always produce
// strategies that stay within bounds, print to parseable DSL, and behave
// deterministically.
class MutationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationProperty, RandomStrategyIsWellFormed) {
  GeneConfig config;
  Rng rng(GetParam());
  const Strategy s = random_strategy(config, rng);
  EXPECT_EQ(s.outbound.size(), 1u);
  EXPECT_TRUE(s.inbound.empty());
  // Printable and re-parseable.
  const Strategy reparsed = parse_strategy(s.to_string());
  EXPECT_EQ(reparsed.to_string(), s.to_string());
}

TEST_P(MutationProperty, MutationPreservesWellFormedness) {
  GeneConfig config;
  Rng rng(GetParam());
  Strategy s = random_strategy(config, rng);
  for (int i = 0; i < 30; ++i) {
    mutate(s, config, rng);
    if (!s.outbound.empty()) {
      EXPECT_LE(action_size(s.outbound[0].tree), kMaxTreeSize);
    }
    const Strategy reparsed = parse_strategy(s.to_string());
    EXPECT_EQ(reparsed.to_string(), s.to_string());
  }
}

TEST_P(MutationProperty, CrossoverPreservesWellFormedness) {
  GeneConfig config;
  Rng rng(GetParam());
  Strategy a = random_strategy(config, rng);
  Strategy b = random_strategy(config, rng);
  for (int i = 0; i < 10; ++i) {
    crossover(a, b, rng);
    EXPECT_NO_THROW((void)parse_strategy(a.to_string()));
    EXPECT_NO_THROW((void)parse_strategy(b.to_string()));
  }
}

TEST_P(MutationProperty, RandomStrategiesApplyWithoutThrowing) {
  GeneConfig config;
  Rng rng(GetParam());
  Packet sa = make_tcp_packet(Ipv4Address::parse("93.184.216.34"), 80,
                              Ipv4Address::parse("10.0.0.2"), 40000,
                              tcpflag::kSyn | tcpflag::kAck, 50000, 10001);
  sa.tcp.set_option(TcpOption::kWindowScale, {7});
  for (int i = 0; i < 20; ++i) {
    const Strategy s = random_strategy(config, rng);
    EXPECT_NO_THROW({
      std::vector<Packet> out;
      s.apply_outbound_into(sa, rng, out);
      for (const auto& pkt : out) (void)pkt.serialize();
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(Mutation, RespectsAllowedTriggers) {
  GeneConfig config;
  config.allowed_triggers = {{lookup_field(Proto::kTcp, "flags"), "SA"}};
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Strategy s = random_strategy(config, rng);
    for (const auto& rule : s.outbound) {
      EXPECT_EQ(rule.trigger.to_string(), "[TCP:flags:SA]");
    }
  }
}

TEST(Mutation, SameSeedSameStrategy) {
  GeneConfig config;
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(random_strategy(config, a).to_string(),
              random_strategy(config, b).to_string());
  }
}

TEST(Mutation, RandomFieldValuesAreValidForField) {
  Rng rng(3);
  Packet pkt = make_tcp_packet(Ipv4Address::parse("1.2.3.4"), 80,
                               Ipv4Address::parse("5.6.7.8"), 443,
                               tcpflag::kSyn | tcpflag::kAck, 1, 2);
  for (int i = 0; i < 200; ++i) {
    const auto& [proto, name] =
        kTamperFields[rng.index(kTamperFields.size())];
    const Field& field = lookup_field(proto, name);
    const std::string value = random_field_value(field, rng);
    EXPECT_NO_THROW(field.replace(pkt, field.parse(value)))
        << name << "=" << value;
  }
}

TEST(Mutation, EmptyStrategyRegenerates) {
  GeneConfig config;
  Rng rng(4);
  Strategy s;  // no rules at all
  mutate(s, config, rng);
  EXPECT_FALSE(s.outbound.empty());
}

}  // namespace
}  // namespace caya
