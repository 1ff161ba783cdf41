// The deterministic parallel evaluation engine: thread pool semantics,
// buffer-arena reuse, canonical-order reduction, fitness memoization, and —
// the load-bearing property — that any --jobs value reproduces the serial
// output bit-for-bit (GA histories, success rates, sweep tables, pcaps).
#include "eval/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "eval/trial.h"
#include "geneva/fitness_cache.h"
#include "geneva/ga.h"
#include "netsim/pcap.h"
#include "packet/packet.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace caya {
namespace {

// ---- Thread pool / parallel_for_indexed -----------------------------------

TEST(ThreadPool, HardwareJobsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_jobs(), 1u);
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for_indexed(8, kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SingleJobRunsInlineOnCaller) {
  bool saw_worker = false;
  parallel_for_indexed(1, 16, [&](std::size_t) {
    saw_worker = saw_worker || ThreadPool::on_worker_thread();
  });
  EXPECT_FALSE(saw_worker);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ParallelFor, NestedParallelismFallsBackInline) {
  // A fitness function may itself shard its trials; on a pool worker the
  // inner loop must run inline instead of deadlocking the pool.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 8;
  std::atomic<std::size_t> total{0};
  parallel_for_indexed(4, kOuter, [&](std::size_t) {
    parallel_for_indexed(4, kInner, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(parallel_for_indexed(4, 100,
                                    [](std::size_t i) {
                                      if (i == 37) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
               std::runtime_error);
}

// ---- Buffer arena ----------------------------------------------------------

TEST(BufferArena, ReusesReleasedCapacity) {
  BufferArena arena;
  Bytes first = arena.acquire();
  first.reserve(512);
  arena.release(std::move(first));
  const Bytes second = arena.acquire();
  EXPECT_GE(second.capacity(), 512u);
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(arena.stats().acquires, 2u);
  EXPECT_EQ(arena.stats().fresh, 1u);
  EXPECT_EQ(arena.stats().reuses, 1u);
  EXPECT_EQ(arena.stats().releases, 1u);
}

TEST(BufferArena, ScopedLeaseReturnsToThreadArena) {
  const BufferArena::Stats before = BufferArena::local().stats();
  {
    BufferArena::Scoped scratch;
    scratch->push_back(0xab);
    EXPECT_EQ((*scratch)[0], 0xab);
  }
  const BufferArena::Stats after = BufferArena::local().stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);
  EXPECT_EQ(after.releases, before.releases + 1);
}

TEST(BufferArena, SteadyStatePacketValidationAllocatesNothing) {
  Packet pkt = make_tcp_packet(Ipv4Address::parse("10.0.0.1"), 1234,
                               Ipv4Address::parse("10.0.0.2"), 80,
                               tcpflag::kPsh | tcpflag::kAck, 100, 200,
                               Bytes{'h', 'i'});
  pkt = Packet::parse(pkt.serialize());  // pins the on-wire checksums
  (void)pkt.tcp_checksum_valid();        // warm this thread's free list
  const BufferArena::Stats before = BufferArena::local().stats();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(pkt.tcp_checksum_valid());
  }
  const BufferArena::Stats after = BufferArena::local().stats();
  EXPECT_EQ(after.fresh, before.fresh) << "validation allocated a buffer";
}

// ---- Canonical-order reduction ---------------------------------------------

TEST(ParallelEvaluator, MapReturnsResultsInIndexOrder) {
  const ParallelEvaluator evaluator(8);
  EXPECT_EQ(evaluator.jobs(), 8u);
  const std::vector<std::size_t> out = evaluator.map_batched(
      200, [](std::size_t) { return 0; }, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 200u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelEvaluator, ZeroJobsMeansHardwareConcurrency) {
  EXPECT_EQ(ParallelEvaluator(0).jobs(), ThreadPool::hardware_jobs());
}

// ---- Determinism: jobs=8 reproduces jobs=1 ---------------------------------

RateOptions rate_options(std::size_t jobs) {
  RateOptions options;
  options.trials = 40;
  options.base_seed = 4242;
  options.jobs = jobs;
  return options;
}

TEST(ParallelDeterminism, MeasureRateMatchesSerial) {
  const std::optional<Strategy> strategy = parsed_strategy(1);
  const RateCounter serial = measure_rate(Country::kChina, AppProtocol::kHttp,
                                          strategy, rate_options(1));
  const RateCounter parallel = measure_rate(Country::kChina, AppProtocol::kHttp,
                                            strategy, rate_options(8));
  EXPECT_EQ(serial.trials(), parallel.trials());
  EXPECT_EQ(serial.successes(), parallel.successes());
}

TEST(ParallelDeterminism, SweepTableIsByteIdentical) {
  const std::vector<std::pair<std::string, std::optional<Strategy>>>
      strategies = {{"no evasion", std::nullopt},
                    {"published 1", parsed_strategy(1)}};
  const std::vector<double> values = {0.0, 0.1};
  auto render = [&](std::size_t jobs) {
    RateOptions options;
    options.trials = 10;
    options.base_seed = 99;
    options.jobs = jobs;
    return render_sweep(
        measure_impairment_sweep(Country::kChina, AppProtocol::kHttp,
                                 strategies, SweepAxis::kLoss, values,
                                 options),
        SweepAxis::kLoss);
  };
  EXPECT_EQ(render(1), render(8));
}

TEST(ParallelDeterminism, GaHistoryIsIdenticalFieldByField) {
  auto evolve = [](std::size_t jobs) {
    GaConfig config;
    config.population_size = 16;
    config.generations = 4;
    config.convergence_patience = 10;
    config.jobs = jobs;
    GeneticAlgorithm ga(
        GeneConfig{}, config,
        make_supervised_fitness(Country::kChina, AppProtocol::kHttp,
                                /*trials=*/4, /*base_seed=*/17,
                                /*quarantine=*/nullptr),
        Rng(17));
    ga.set_fitness_cache(std::make_shared<FitnessCache>("test-env"));
    (void)ga.run();
    return ga.history();
  };
  const std::vector<GenerationStats> serial = evolve(1);
  const std::vector<GenerationStats> parallel = evolve(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].generation, parallel[i].generation);
    EXPECT_EQ(serial[i].best_fitness, parallel[i].best_fitness);
    EXPECT_EQ(serial[i].mean_fitness, parallel[i].mean_fitness);
    EXPECT_EQ(serial[i].best_strategy, parallel[i].best_strategy);
    EXPECT_EQ(serial[i].cache_hits, parallel[i].cache_hits);
    EXPECT_EQ(serial[i].evaluations, parallel[i].evaluations);
  }
}

TEST(ParallelDeterminism, TracePcapIsByteIdentical) {
  // Mirrors `caya run --pcap`: trials sharded across the pool, only trial 0
  // records the trace the pcap is written from.
  auto capture = [](std::size_t jobs) {
    const ParallelEvaluator evaluator(jobs);
    const std::vector<Trace> traces = evaluator.map_batched(
        8, [](std::size_t) { return 0; },
        [](std::size_t i) {
          Environment::Config config;
          config.protocol = AppProtocol::kHttp;
          config.seed = 7000 + i;
          ConnectionOptions options;
          options.server_strategy = parsed_strategy(1);
          options.record_trace = i == 0;
          return run_trial(config, options).trace;
        });
    return to_pcap(traces[0]);
  };
  EXPECT_EQ(capture(1), capture(8));
}

// ---- Fitness memoization ----------------------------------------------------

TEST(FitnessCache, LookupAfterStoreReturnsRawFitness) {
  FitnessCache cache("digest-a");
  EXPECT_FALSE(cache.lookup("strategy-x").has_value());
  cache.store("strategy-x", 73.5);
  const auto hit = cache.lookup("strategy-x");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 73.5);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FitnessCache, DigestNamespacesKeys) {
  FitnessCache a("digest-a");
  FitnessCache b("digest-b");
  a.store("strategy-x", 1.0);
  b.store("strategy-x", 2.0);
  EXPECT_EQ(*a.lookup("strategy-x"), 1.0);
  EXPECT_EQ(*b.lookup("strategy-x"), 2.0);
}

TEST(FitnessCache, CachedStrategySkipsTrialExecution) {
  // Two same-seed runs sharing one cache: the second run re-encounters every
  // genome the first one scored, so it must execute zero fresh batches and
  // still reproduce the exact history.
  std::atomic<std::size_t> calls{0};
  auto counting_fitness = [&](const Strategy& s) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(s.to_string().size() % 7) * 10.0;
  };
  auto cache = std::make_shared<FitnessCache>("shared-env");
  auto evolve = [&] {
    GaConfig config;
    config.population_size = 12;
    config.generations = 3;
    config.convergence_patience = 10;
    GeneticAlgorithm ga(GeneConfig{}, config, counting_fitness, Rng(23));
    ga.set_fitness_cache(cache);
    (void)ga.run();
    return ga.history();
  };

  const std::vector<GenerationStats> first = evolve();
  const std::size_t calls_after_first = calls.load();
  EXPECT_GT(calls_after_first, 0u);

  const std::vector<GenerationStats> second = evolve();
  EXPECT_EQ(calls.load(), calls_after_first)
      << "second run executed fresh trial batches";

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].best_fitness, second[i].best_fitness);
    EXPECT_EQ(first[i].mean_fitness, second[i].mean_fitness);
    EXPECT_EQ(first[i].best_strategy, second[i].best_strategy);
    EXPECT_EQ(second[i].evaluations, 0u);
  }
}

TEST(GeneticAlgorithm, GenerationZeroAccountsEveryIndividual) {
  GaConfig config;
  config.population_size = 14;
  config.generations = 2;
  config.convergence_patience = 10;
  auto constant = [](const Strategy&) { return 5.0; };
  GeneticAlgorithm ga(GeneConfig{}, config, constant, Rng(31));
  ga.set_fitness_cache(std::make_shared<FitnessCache>());
  (void)ga.run();
  ASSERT_FALSE(ga.history().empty());
  const GenerationStats& gen0 = ga.history().front();
  EXPECT_EQ(gen0.cache_hits + gen0.evaluations, config.population_size);
}

}  // namespace
}  // namespace caya
