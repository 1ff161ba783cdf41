// Trial-substrate recycling guarantees: Environment::reset(seed) must be
// byte-identical to fresh construction (for every censor, after arbitrary
// prior traffic, and with fault schedules in play), the EnvironmentPool must
// stop constructing substrates once warm, and pooled/batched execution must
// never change an observable result.
#include "eval/env_pool.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/parallel.h"
#include "eval/rates.h"
#include "eval/strategies.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "netsim/pcap.h"

namespace caya {
namespace {

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
  // Changing any one shape field alone moves the digest, to a value no other
  // single-field change reaches; changing the seed alone does not.
  Environment::Config base;
  base.country = Country::kIran;
  base.seed = 1;
  const std::uint64_t digest = env_config_digest(base);
  Environment::Config reseeded = base;
  reseeded.seed = 999;
  EXPECT_EQ(env_config_digest(reseeded), digest);

  using Edit = std::function<void(Environment::Config&)>;
  std::vector<std::pair<std::string, Edit>> edits = {
      {"country", [](auto& c) { c.country = Country::kChina; }},
      {"protocol", [](auto& c) { c.protocol = AppProtocol::kFtp; }},
      {"server_port", [](auto& c) { c.server_port = 8080; }},
      {"china_architecture",
       [](auto& c) {
         c.china_architecture = ChinaCensor::Architecture::kSingleBox;
       }},
      {"gfw_regime",
       [](auto& c) { c.gfw_regime = GfwRegime::kEraHttpsResync; }},
      {"carrier", [](auto& c) { c.carrier = CarrierNetwork::kTMobile; }},
      {"net.trace_stages", [](auto& c) { c.net.trace_stages = true; }},
      {"censor fault",
       [](auto& c) {
         c.censor_faults.add({.at = duration::ms(40),
                              .kind = FaultKind::kStall,
                              .duration = duration::ms(5)});
       }},
  };
  const std::vector<std::pair<std::string, std::function<void(Impairments&)>>>
      lane_edits = {
          {"loss", [](auto& l) { l.loss = 0.1; }},
          {"burst.p_good_to_bad", [](auto& l) { l.burst.p_good_to_bad = 0.1; }},
          {"burst.p_bad_to_good", [](auto& l) { l.burst.p_bad_to_good = 0.5; }},
          {"burst.loss_good", [](auto& l) { l.burst.loss_good = 0.01; }},
          {"burst.loss_bad", [](auto& l) { l.burst.loss_bad = 0.5; }},
          {"duplicate", [](auto& l) { l.duplicate = 0.1; }},
          {"corrupt", [](auto& l) { l.corrupt = 0.1; }},
          {"reorder", [](auto& l) { l.reorder = 0.1; }},
          {"jitter_min", [](auto& l) { l.jitter_min = duration::ms(1); }},
          {"jitter_max", [](auto& l) { l.jitter_max = duration::ms(3); }},
          {"flap",
           [](auto& l) {
             l.flaps.push_back({.at = duration::ms(20),
                                .duration = duration::ms(10)});
           }},
      };
  const std::pair<const char*, Impairments LinkModel::Config::*> lanes[] = {
      {"client_censor_up", &LinkModel::Config::client_censor_up},
      {"client_censor_down", &LinkModel::Config::client_censor_down},
      {"censor_server_up", &LinkModel::Config::censor_server_up},
      {"censor_server_down", &LinkModel::Config::censor_server_down},
  };
  for (const auto& [lane_name, lane] : lanes) {
    for (const auto& [field, edit] : lane_edits) {
      edits.emplace_back(std::string(lane_name) + "." + field,
                         [lane, edit](auto& c) { edit(c.net.link.*lane); });
    }
  }
  ASSERT_EQ(edits.size(), 8u + 4u * 11u);

  std::set<std::uint64_t> seen = {digest};
  for (const auto& [field, edit] : edits) {
    Environment::Config changed = base;
    edit(changed);
    const std::uint64_t moved = env_config_digest(changed);
    EXPECT_NE(moved, digest) << field;
    EXPECT_TRUE(seen.insert(moved).second) << field;
    changed.seed = 999;
    EXPECT_EQ(env_config_digest(changed), moved) << field;
  }
}

TEST(EnvPool, ZeroConstructionsAfterWarmupInThousandTrialRate) {
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
    const TrialResult pooled = run_trial(config, options);
    const TrialResult pooled_warm =
        run_trial(config, options);  // guaranteed shelf hit
    const TrialResult fresh = Environment(config).run_connection(options);
    expect_identical(pooled, fresh, "pooled vs fresh seed " +
                                        std::to_string(seed));
    expect_identical(pooled_warm, fresh, "warm-hit vs fresh seed " +
                                             std::to_string(seed));
  }
}

TEST(EnvPool, MeasureRateInvariantToPoolAndJobs) {
  RateOptions options;
  options.trials = 80;
  // Reference: every trial on a directly constructed Environment.
  ConnectionOptions conn;
  conn.server_strategy = parsed_strategy(1);
  std::size_t fresh_successes = 0;
  for (std::size_t i = 0; i < options.trials; ++i) {
    Environment::Config config;  // China/HTTP
    apply_profile(ImpairmentProfile::kClean, config);
    config.seed = options.base_seed + i;
    if (Environment(config).run_connection(conn).success) ++fresh_successes;
  }
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    options.jobs = jobs;
    EXPECT_EQ(measure_rate(Country::kChina, AppProtocol::kHttp,
                           parsed_strategy(1), options)
                  .successes(),
              fresh_successes)
        << "jobs " << jobs;
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

TEST(EnvPool, ShelvedEnvironmentMayOutliveItsThreadsPools) {
  // A thread's thread-locals die in reverse order of construction. This
  // thread builds its environment pool before its first trial builds the
  // rep pool and buffer arena, so at exit the shelved environment is
  // destroyed after both and must free its payloads and reassembler
  // buffers itself.
  std::thread([] {
    EnvironmentPool& pool = EnvironmentPool::local();
    Environment::Config config;  // China/HTTP
    config.seed = 3;
    EnvironmentPool::Lease lease = pool.acquire(config);
    EXPECT_FALSE(lease->run_connection(traced_options(0)).timed_out);
    lease.keep();
  }).join();
}

TEST(EnvPool, OracleEqualWithAndWithoutPooling) {
  // The fuzz oracle recycles CensorSets through the same reset contract;
  // its verdicts must match a fresh thread's, whose recycled-set cache is
  // still empty, so its oracle run builds the CensorSet from scratch.
  Rng rng(7);
  const HostileStream stream = generate_hostile_stream(Country::kIran, rng);
  (void)run_oracle(Country::kIran, 42, stream.records);  // warm
  const OracleOutcome pooled = run_oracle(Country::kIran, 42, stream.records);
  OracleOutcome fresh;
  std::thread([&] {
    fresh = run_oracle(Country::kIran, 42, stream.records);
  }).join();
  EXPECT_EQ(pooled.records, fresh.records);
  EXPECT_EQ(pooled.censor_events, fresh.censor_events);
  EXPECT_EQ(pooled.injected, fresh.injected);
  EXPECT_EQ(pooled.fail_closed, fresh.fail_closed);
  EXPECT_EQ(pooled.crashed, fresh.crashed);
  EXPECT_EQ(pooled.decode.counts, fresh.decode.counts);
}

}  // namespace
}  // namespace caya
