// Trial-substrate recycling guarantees: Environment::reset(seed) must be
// byte-identical to fresh construction (for every censor, after arbitrary
// prior traffic, and with fault schedules in play), the EnvironmentPool must
// stop constructing substrates once warm, and pooled/batched execution must
// never change an observable result.
#include "eval/env_pool.h"

#include <gtest/gtest.h>

#include "eval/parallel.h"
#include "eval/rates.h"
#include "eval/strategies.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "netsim/pcap.h"

namespace caya {
namespace {

/// Restores the process-global pool gate when a test exits on any path.
class PoolGate {
 public:
  explicit PoolGate(bool enabled) : was_(EnvironmentPool::enabled()) {
    EnvironmentPool::set_enabled(enabled);
  }
  ~PoolGate() { EnvironmentPool::set_enabled(was_); }

 private:
  bool was_;
};

ConnectionOptions traced_options(int strategy_id) {
  ConnectionOptions options;
  if (strategy_id > 0) options.server_strategy = parsed_strategy(strategy_id);
  options.record_trace = true;
  return options;
}

void expect_identical(const TrialResult& a, const TrialResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.client_reset, b.client_reset) << label;
  EXPECT_EQ(a.timed_out, b.timed_out) << label;
  EXPECT_EQ(a.censor_events, b.censor_events) << label;
  EXPECT_EQ(a.trace.events().size(), b.trace.events().size()) << label;
  EXPECT_EQ(to_pcap(a.trace), to_pcap(b.trace)) << label;
}

/// The contract under test: dirty an environment with `dirty_trials`
/// connections, reset it to `seed`, and demand the next connection is
/// byte-identical to one on a freshly constructed Environment(seed).
void check_reset_equivalence(Environment::Config config, int strategy_id,
                             std::uint64_t first_seed, std::uint64_t seed,
                             std::size_t dirty_trials,
                             const std::string& label) {
  const ConnectionOptions options = traced_options(strategy_id);

  config.seed = first_seed;
  Environment recycled(config);
  for (std::size_t i = 0; i < dirty_trials; ++i) {
    (void)recycled.run_connection(options);
  }
  recycled.reset(seed);
  const TrialResult after_reset = recycled.run_connection(options);

  config.seed = seed;
  Environment fresh(config);
  const TrialResult constructed = fresh.run_connection(options);

  expect_identical(after_reset, constructed, label);
}

TEST(SubstrateReset, MatchesFreshConstructionAcrossAllCensors) {
  // Randomized seeds (from a fixed meta-seed, so the test is reproducible)
  // across every censor implementation. Strategy 0 = no strategy; also run
  // each country's published evasion to exercise the interesting paths.
  Rng meta(20260808);
  const struct {
    Country country;
    int strategy_id;
  } cases[] = {
      {Country::kChina, 0},        {Country::kChina, 1},
      {Country::kChina, 6},        {Country::kIndia, 0},
      {Country::kIndia, 8},        {Country::kIran, 0},
      {Country::kIran, 8},         {Country::kKazakhstan, 9},
      {Country::kTurkmenistan, 0}, {Country::kTurkmenistan, 8},
  };
  for (const auto& c : cases) {
    const std::uint64_t first = 1 + meta.uniform(0, 100000);
    const std::uint64_t next = 1 + meta.uniform(0, 100000);
    const std::size_t dirty = static_cast<std::size_t>(meta.uniform(0, 3));
    Environment::Config config;
    config.country = c.country;
    config.protocol = AppProtocol::kHttp;
    check_reset_equivalence(
        config, c.strategy_id, first, next, dirty,
        std::string(to_string(c.country)) + "/strategy " +
            std::to_string(c.strategy_id) + " seeds " +
            std::to_string(first) + "->" + std::to_string(next));
  }
}

TEST(SubstrateReset, MatchesFreshConstructionSingleBoxAndRegimes) {
  Environment::Config config;
  config.country = Country::kChina;
  config.china_architecture = ChinaCensor::Architecture::kSingleBox;
  check_reset_equivalence(config, 1, 11, 99, 2, "china single-box");

  Environment::Config drift;
  drift.country = Country::kChina;
  drift.gfw_regime = GfwRegime::kEraHttpsResync;
  check_reset_equivalence(drift, 6, 7, 131, 1, "china https-resync era");
}

TEST(SubstrateReset, MatchesFreshConstructionWithCarrier) {
  for (const CarrierNetwork carrier :
       {CarrierNetwork::kTMobile, CarrierNetwork::kAtt}) {
    Environment::Config config;
    config.country = Country::kChina;
    config.carrier = carrier;
    check_reset_equivalence(config, 1, 3, 77, 2,
                            std::string(to_string(carrier)));
  }
}

TEST(SubstrateReset, MatchesFreshConstructionUnderImpairmentsAndFaults) {
  // Lossy/bursty exercise the link-model lane RNGs (including the lazily
  // seeded engines); flaky-censor exercises FaultSchedule cursor rewind.
  for (const ImpairmentProfile profile :
       {ImpairmentProfile::kLossy, ImpairmentProfile::kBursty,
        ImpairmentProfile::kFlakyCensor}) {
    Environment::Config config;
    config.country = Country::kChina;
    apply_profile(profile, config);
    check_reset_equivalence(config, 1, 5, 123, 2,
                            std::string(to_string(profile)));
  }
}

TEST(SubstrateReset, RepeatedResetIsStable) {
  // reset(s); run; reset(s); run must reproduce the same connection — the
  // pool hands one substrate out many times in a row.
  Environment::Config config;
  config.country = Country::kKazakhstan;
  config.seed = 17;
  Environment env(config);
  const ConnectionOptions options = traced_options(9);
  env.reset(42);
  const TrialResult first = env.run_connection(options);
  env.reset(1234);
  (void)env.run_connection(options);
  env.reset(42);
  const TrialResult again = env.run_connection(options);
  expect_identical(first, again, "repeated reset");
}

TEST(EnvPool, DigestIgnoresSeedOnly) {
  Environment::Config a;
  a.country = Country::kIran;
  a.seed = 1;
  Environment::Config b = a;
  b.seed = 999;
  EXPECT_EQ(env_config_digest(a), env_config_digest(b));

  Environment::Config c = a;
  c.protocol = AppProtocol::kFtp;
  EXPECT_NE(env_config_digest(a), env_config_digest(c));
  Environment::Config d = a;
  apply_profile(ImpairmentProfile::kLossy, d);
  EXPECT_NE(env_config_digest(a), env_config_digest(d));
  Environment::Config e = a;
  e.gfw_regime = GfwRegime::kEraHttpsResync;
  EXPECT_NE(env_config_digest(a), env_config_digest(e));
}

TEST(EnvPool, ZeroConstructionsAfterWarmupInThousandTrialRate) {
  PoolGate gate(true);
  RateOptions options;
  options.trials = 30;
  options.jobs = 1;
  // Warm the (thread-local) shelf for this substrate shape.
  (void)measure_rate(Country::kChina, AppProtocol::kHttp, parsed_strategy(6),
                     options);

  EnvironmentPool::reset_stats();
  options.trials = 1000;
  const RateCounter rate = measure_rate(Country::kChina, AppProtocol::kHttp,
                                        parsed_strategy(6), options);
  EXPECT_EQ(rate.trials(), 1000u);
  EXPECT_EQ(EnvironmentPool::constructed(), 0u)
      << "a warm pool must recycle substrates, not rebuild them";
  EXPECT_GE(EnvironmentPool::reused(), 1000u);
}

TEST(EnvPool, PooledAndFreshTrialsAreByteIdentical) {
  const ConnectionOptions options = traced_options(6);
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    Environment::Config config;
    config.country = Country::kChina;
    config.seed = seed;
    TrialResult pooled;
    TrialResult pooled_warm;
    TrialResult fresh;
    {
      PoolGate gate(true);
      pooled = run_trial(config, options);
      pooled_warm = run_trial(config, options);  // guaranteed shelf hit
    }
    {
      PoolGate gate(false);
      fresh = run_trial(config, options);
    }
    expect_identical(pooled, fresh, "pooled vs fresh seed " +
                                        std::to_string(seed));
    expect_identical(pooled_warm, fresh, "warm-hit vs fresh seed " +
                                             std::to_string(seed));
  }
}

TEST(EnvPool, MeasureRateInvariantToPoolAndJobs) {
  RateOptions options;
  options.trials = 80;
  std::vector<std::size_t> successes;
  for (const bool pooled : {true, false}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      PoolGate gate(pooled);
      options.jobs = jobs;
      successes.push_back(measure_rate(Country::kChina, AppProtocol::kHttp,
                                       parsed_strategy(1), options)
                              .successes());
    }
  }
  for (std::size_t i = 1; i < successes.size(); ++i) {
    EXPECT_EQ(successes[0], successes[i]) << "combination " << i;
  }
}

TEST(EnvPool, MapBatchedMatchesMapAtAnyJobs) {
  // Pure-computation equivalence: map_batched must agree with a serial loop
  // for every (jobs, grouping) — the reduce is in canonical index order.
  constexpr std::size_t kN = 97;
  const auto fn = [](std::size_t i) {
    return static_cast<std::uint64_t>(i * 2654435761u % 1009);
  };
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < kN; ++i) expected.push_back(fn(i));
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3},
                                 std::size_t{8}}) {
    const ParallelEvaluator evaluator(jobs);
    const auto batched = evaluator.map_batched(
        kN, [](std::size_t i) { return i % 5; }, fn);
    EXPECT_EQ(batched, expected) << "jobs " << jobs;
    const auto one_group = evaluator.map_batched(
        kN, [](std::size_t) { return 7u; }, fn);
    EXPECT_EQ(one_group, expected) << "single group, jobs " << jobs;
  }
}

TEST(EnvPool, OracleEqualWithAndWithoutPooling) {
  // The fuzz oracle recycles CensorSets through the same reset contract;
  // its verdicts must not depend on the pool gate.
  Rng rng(7);
  const HostileStream stream = generate_hostile_stream(Country::kIran, rng);
  OracleOutcome pooled;
  OracleOutcome fresh;
  {
    PoolGate gate(true);
    (void)run_oracle(Country::kIran, 42, stream.records);  // warm
    pooled = run_oracle(Country::kIran, 42, stream.records);
  }
  {
    PoolGate gate(false);
    fresh = run_oracle(Country::kIran, 42, stream.records);
  }
  EXPECT_EQ(pooled.records, fresh.records);
  EXPECT_EQ(pooled.censor_events, fresh.censor_events);
  EXPECT_EQ(pooled.injected, fresh.injected);
  EXPECT_EQ(pooled.fail_closed, fresh.fail_closed);
  EXPECT_EQ(pooled.crashed, fresh.crashed);
  EXPECT_EQ(pooled.decode.counts, fresh.decode.counts);
}

}  // namespace
}  // namespace caya
