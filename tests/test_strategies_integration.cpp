// Integration tests: published strategies run end-to-end against the
// simulated censors and land in the paper's Table 2 bands. Trials are kept
// modest so the suite stays fast; the bench binaries measure precisely.
#include <gtest/gtest.h>

#include "eval/rates.h"
#include "eval/strategies.h"

namespace caya {
namespace {

double rate(Country country, AppProtocol proto,
            const std::optional<Strategy>& strategy, std::uint64_t seed,
            std::size_t trials = 60) {
  RateOptions options;
  options.trials = trials;
  options.base_seed = seed;
  return measure_rate(country, proto, strategy, options).rate();
}

struct Cell {
  int strategy_id;
  AppProtocol proto;
  double reported;
};

class ChinaTable2Cell : public ::testing::TestWithParam<Cell> {};

TEST_P(ChinaTable2Cell, WithinBandOfPaper) {
  const auto& [id, proto, reported] = GetParam();
  const double measured =
      rate(Country::kChina, proto, parsed_strategy(id), 7000 + 97 * id);
  // Band: within 15 percentage points of the paper's value (60 trials).
  EXPECT_NEAR(measured, reported, 0.15)
      << "strategy " << id << " on " << to_string(proto);
}

INSTANTIATE_TEST_SUITE_P(
    HeadlineCells, ChinaTable2Cell,
    ::testing::Values(
        // The most mechanism-revealing cells of Table 2.
        Cell{1, AppProtocol::kHttp, 0.54},
        Cell{1, AppProtocol::kDnsOverTcp, 0.89},
        Cell{1, AppProtocol::kHttps, 0.14},
        Cell{2, AppProtocol::kHttps, 0.55},
        Cell{3, AppProtocol::kFtp, 0.65},
        Cell{4, AppProtocol::kFtp, 0.33},
        Cell{5, AppProtocol::kFtp, 0.97},
        Cell{5, AppProtocol::kHttp, 0.04},
        Cell{6, AppProtocol::kHttp, 0.52},
        Cell{7, AppProtocol::kFtp, 0.85},
        Cell{7, AppProtocol::kHttps, 0.04},
        Cell{8, AppProtocol::kSmtp, 1.00},
        Cell{8, AppProtocol::kHttp, 0.02}));

TEST(Integration, ChinaBaselinesMostlyCensored) {
  EXPECT_LT(rate(Country::kChina, AppProtocol::kHttp, std::nullopt, 100),
            0.15);
  EXPECT_LT(rate(Country::kChina, AppProtocol::kFtp, std::nullopt, 200),
            0.15);
  EXPECT_LT(rate(Country::kChina, AppProtocol::kHttps, std::nullopt, 300),
            0.15);
  EXPECT_LT(rate(Country::kChina, AppProtocol::kDnsOverTcp, std::nullopt,
                 400),
            0.15);
  // SMTP's baseline leak is much larger (26% in the paper).
  const double smtp =
      rate(Country::kChina, AppProtocol::kSmtp, std::nullopt, 500);
  EXPECT_GT(smtp, 0.1);
  EXPECT_LT(smtp, 0.45);
}

TEST(Integration, WindowReductionPerfectOutsideChina) {
  EXPECT_DOUBLE_EQ(
      rate(Country::kIndia, AppProtocol::kHttp, parsed_strategy(8), 600, 30),
      1.0);
  EXPECT_DOUBLE_EQ(
      rate(Country::kIran, AppProtocol::kHttp, parsed_strategy(8), 700, 30),
      1.0);
  EXPECT_DOUBLE_EQ(
      rate(Country::kIran, AppProtocol::kHttps, parsed_strategy(8), 800, 30),
      1.0);
  EXPECT_DOUBLE_EQ(rate(Country::kKazakhstan, AppProtocol::kHttp,
                        parsed_strategy(8), 900, 30),
                   1.0);
}

TEST(Integration, KazakhstanTrioPerfect) {
  for (const int id : {9, 10, 11}) {
    EXPECT_DOUBLE_EQ(rate(Country::kKazakhstan, AppProtocol::kHttp,
                          parsed_strategy(id), 1000u + 10 * id, 30),
                     1.0)
        << "strategy " << id;
  }
}

TEST(Integration, KazakhStrategiesDoNotHelpAgainstChina) {
  // §5: strategies that work in one country do not necessarily work in
  // another (deployment consideration of §8).
  EXPECT_LT(rate(Country::kChina, AppProtocol::kHttp, parsed_strategy(10),
                 1100),
            0.15);
  EXPECT_LT(rate(Country::kChina, AppProtocol::kHttp, parsed_strategy(11),
                 1200),
            0.15);
}

TEST(Integration, HostingOffPort80DefeatsIndiaAndIran) {
  // "We find that both countries only censor on each protocol's default
  // ports; hosting a web server on any other port defeats censorship."
  for (const Country country : {Country::kIndia, Country::kIran}) {
    Environment::Config config;
    config.country = country;
    config.protocol = AppProtocol::kHttp;
    config.server_port = 8080;
    config.seed = 42;
    RateCounter counter;
    for (int i = 0; i < 20; ++i) {
      config.seed = 42 + static_cast<std::uint64_t>(i);
      counter.record(run_trial(config, {}).success);
    }
    EXPECT_DOUBLE_EQ(counter.rate(), 1.0) << to_string(country);
  }
}

TEST(Integration, ResidualCensorshipAcrossConnections) {
  // China HTTP: ~90 s of teardown against follow-up connections after a
  // censorship event; a connection after expiry succeeds (with a benign
  // request).
  Environment env({.country = Country::kChina,
                   .protocol = AppProtocol::kHttp,
                   .seed = 31337});
  // First connection: the forbidden request gets censored.
  TrialResult first = env.run_connection({});
  // Try a few seeds if the baseline miss let it through.
  ASSERT_FALSE(first.success);

  // Second connection, right away: killed by residual censorship right
  // after the handshake, even though the request would have been the same
  // forbidden one (it never gets out).
  const TrialResult second = env.run_connection({});
  EXPECT_FALSE(second.success);
  EXPECT_GT(second.censor_events, 0u);
  EXPECT_TRUE(env.censors()
                  .china()
                  ->box(AppProtocol::kHttp)
                  .residual_active(eval_server_addr(), env.server_port(),
                                   env.loop().now()));

  // After the 90 s window the residual entry expires.
  env.loop().run_until(env.loop().now() + duration::sec(120));
  EXPECT_FALSE(env.censors()
                   .china()
                   ->box(AppProtocol::kHttp)
                   .residual_active(eval_server_addr(), env.server_port(),
                                    env.loop().now()));
}

TEST(Integration, NoResidualCensorshipForOtherProtocols) {
  // "we do not observe this behavior ... for SMTP, DNS-over-TCP, or FTP;
  // the user is free to make a second follow-up request immediately."
  for (const AppProtocol proto :
       {AppProtocol::kFtp, AppProtocol::kSmtp, AppProtocol::kDnsOverTcp,
        AppProtocol::kHttps}) {
    Environment env({.country = Country::kChina,
                     .protocol = proto,
                     .seed = 1234});
    (void)env.run_connection({});
    EXPECT_FALSE(env.censors().china()->box(proto).residual_active(
        eval_server_addr(), env.server_port(), env.loop().now()))
        << to_string(proto);
  }
}

TEST(Integration, StrategiesDoNotBreakBenignConnections) {
  // Running a strategy server-side must not harm clients that were never
  // going to be censored (deployability, §8): an India-bound benign
  // request under Strategy 8 still succeeds.
  Environment::Config config;
  config.country = Country::kIndia;
  config.protocol = AppProtocol::kHttp;
  RateCounter counter;
  for (int i = 0; i < 20; ++i) {
    config.seed = 2000 + static_cast<std::uint64_t>(i);
    Environment env(config);
    ConnectionOptions options;
    options.server_strategy = parsed_strategy(8);
    counter.record(env.run_connection(options).success);
  }
  EXPECT_DOUBLE_EQ(counter.rate(), 1.0);
}

}  // namespace
}  // namespace caya
