// Crash-safe checkpoint/resume and supervised execution:
//   * snapshot container round-trips (escaping, hexfloat exactness),
//   * corruption fuzz — truncations and bit flips are detected, never
//     silently loaded, and rotation falls back to the last good file,
//   * GA kill-and-resume equivalence: checkpoint at generation k, restore
//     into a fresh GA, finish — the final GaHistory is byte-identical to
//     the uninterrupted run's, serially and across --jobs values,
//   * supervised trial batches: injected soft faults recover via retries,
//     hard faults are counted per class, poisoned batches quarantine, and
//     sweeps with failing cells still complete with coverage counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "eval/trial.h"
#include "geneva/fitness_cache.h"
#include "geneva/ga.h"
#include "geneva/mutation.h"
#include "util/snapshot.h"

namespace caya {
namespace {

// ---- Snapshot container ----------------------------------------------------

TEST(Snapshot, RoundTripsRecordsAndScalars) {
  SnapshotWriter w;
  w.put("name", "campaign");
  w.put_u64("generation", 18446744073709551615ull);
  w.put_double("fitness", 97.3);
  w.record("ind", {"a", "b", "c"});
  w.record("ind", {"d"});
  const std::string bytes = w.encode("test-kind");

  const SnapshotReader r = SnapshotReader::parse(bytes);
  EXPECT_EQ(r.kind(), "test-kind");
  EXPECT_EQ(r.version(), 2u);
  EXPECT_EQ(r.get("name"), "campaign");
  EXPECT_EQ(r.get_u64("generation"), 18446744073709551615ull);
  EXPECT_EQ(r.get_double("fitness"), 97.3);
  const auto inds = r.all("ind");
  ASSERT_EQ(inds.size(), 2u);
  EXPECT_EQ(inds[0]->fields, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(inds[1]->fields, (std::vector<std::string>{"d"}));
}

TEST(Snapshot, EscapesHostileFieldBytes) {
  // Tabs, newlines, backslashes and field-separator lookalikes must all
  // round-trip: strategy DSL and Rng state are arbitrary strings.
  const std::vector<std::string> hostile = {
      "tab\there", "newline\nhere", "back\\slash", "\\t not a tab",
      "\n\t\\\n\t", "", "trailing\\", "unit\x1fsep"};
  SnapshotWriter w;
  for (const std::string& field : hostile) w.put("field", field);
  w.record("all", {hostile[0], hostile[1], hostile[2], hostile[3],
                   hostile[4], hostile[5], hostile[6], hostile[7]});
  const SnapshotReader r = SnapshotReader::parse(w.encode("esc"));
  const auto singles = r.all("field");
  ASSERT_EQ(singles.size(), hostile.size());
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(singles[i]->fields.at(0), hostile[i]) << i;
  }
  EXPECT_EQ(r.all("all").at(0)->fields, hostile);
}

TEST(Snapshot, DoublesRoundTripBitExactly) {
  const std::vector<double> values = {0.0,
                                      -0.0,
                                      1.0 / 3.0,
                                      97.30000000000001,
                                      -1e-300,
                                      1e300,
                                      5e-324,  // min subnormal
                                      123456789.123456789};
  for (const double v : values) {
    const std::string text = SnapshotWriter::format_double(v);
    const double back = SnapshotReader::parse_double(text);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << text;
  }
}

TEST(Snapshot, RejectsWrongKindAccessAndMissingKeys) {
  SnapshotWriter w;
  w.put("only", "value");
  const SnapshotReader r = SnapshotReader::parse(w.encode("k"));
  EXPECT_THROW((void)r.get("absent"), SnapshotError);
  EXPECT_THROW((void)SnapshotReader::parse_u64("not-a-number"),
               SnapshotError);
  EXPECT_THROW((void)SnapshotReader::parse_double("xyzzy"), SnapshotError);
}

// ---- Corruption fuzz -------------------------------------------------------

std::string sample_snapshot() {
  SnapshotWriter w;
  w.put_u64("gen_next", 7);
  w.put_double("best", 84.5);
  w.put("rng", "123 456 789");
  for (int i = 0; i < 20; ++i) {
    w.record("ind", {SnapshotWriter::format_double(i * 1.5),
                     "[TCP:flags:SA]-drop-| \\/"});
  }
  return w.encode("ga-checkpoint");
}

TEST(SnapshotFuzz, EveryTruncationIsDetected) {
  const std::string good = sample_snapshot();
  ASSERT_NO_THROW((void)SnapshotReader::parse(good));
  // Every proper prefix — byte-level torn writes — must be rejected.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)SnapshotReader::parse(good.substr(0, len)),
                 SnapshotError)
        << "prefix of length " << len << " parsed";
  }
}

TEST(SnapshotFuzz, BitFlipsAreDetected) {
  const std::string good = sample_snapshot();
  // Deterministic sampling: flip one bit at every 7th byte offset, each at
  // a rotating bit position.
  for (std::size_t pos = 0; pos < good.size(); pos += 7) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << (pos % 8)));
    if (bad == good) continue;
    EXPECT_THROW((void)SnapshotReader::parse(bad), SnapshotError)
        << "flip at byte " << pos << " parsed";
  }
}

TEST(SnapshotFuzz, AppendedGarbageIsDetected) {
  const std::string good = sample_snapshot();
  EXPECT_THROW((void)SnapshotReader::parse(good + "trailing\n"),
               SnapshotError);
  EXPECT_THROW((void)SnapshotReader::parse(good + "\n"), SnapshotError);
}

// ---- Crash-only file IO ----------------------------------------------------

class CheckpointDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("caya-ckpt-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  static void spill(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointDir, MissingFilesReturnNullopt) {
  EXPECT_EQ(load_checkpoint(path("absent.ckpt")), std::nullopt);
}

TEST_F(CheckpointDir, RotationKeepsLastGoodAndFallsBack) {
  const std::string ckpt = path("c.ckpt");
  SnapshotWriter w1;
  w1.put_u64("gen", 1);
  write_checkpoint(ckpt, w1.encode("k"));
  SnapshotWriter w2;
  w2.put_u64("gen", 2);
  write_checkpoint(ckpt, w2.encode("k"));

  // Newest wins while both are valid.
  auto loaded = load_checkpoint(ckpt);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->fell_back);
  EXPECT_EQ(SnapshotReader::parse(loaded->bytes).get_u64("gen"), 2u);
  // The rotated file holds the previous generation.
  EXPECT_EQ(SnapshotReader::parse(slurp(ckpt + ".1")).get_u64("gen"), 1u);

  // Corrupt the newest (simulated torn write): loader falls back to .1 —
  // never more than one checkpoint interval lost.
  const std::string torn = slurp(ckpt).substr(0, 25);
  spill(ckpt, torn);
  loaded = load_checkpoint(ckpt);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->fell_back);
  EXPECT_EQ(SnapshotReader::parse(loaded->bytes).get_u64("gen"), 1u);

  // Corrupt both: loading must throw, not silently hand back garbage.
  spill(ckpt + ".1", "caya-snapshot 1 k\nbroken\n");
  EXPECT_THROW((void)load_checkpoint(ckpt), SnapshotError);
}

// ---- GA kill-and-resume equivalence ----------------------------------------

// Cheap, pure, deterministic fitness: evolution runs in milliseconds and
// every (strategy -> score) mapping is exact, so history comparisons are
// exact too.
FitnessFn synthetic_fitness() {
  return [](const Strategy& s) {
    return static_cast<double>(fnv1a64(s.to_string()) % 1000) / 10.0;
  };
}

GaConfig small_config(std::size_t jobs) {
  GaConfig config;
  config.population_size = 14;
  config.generations = 8;
  config.convergence_patience = 100;  // run all generations
  config.jobs = jobs;
  return config;
}

void expect_same_history(const std::vector<GenerationStats>& a,
                         const std::vector<GenerationStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].generation, b[i].generation) << i;
    EXPECT_EQ(a[i].best_fitness, b[i].best_fitness) << i;
    EXPECT_EQ(a[i].mean_fitness, b[i].mean_fitness) << i;
    EXPECT_EQ(a[i].best_strategy, b[i].best_strategy) << i;
    EXPECT_EQ(a[i].cache_hits, b[i].cache_hits) << i;
    EXPECT_EQ(a[i].evaluations, b[i].evaluations) << i;
  }
}

std::vector<GenerationStats> uninterrupted_history(std::size_t jobs) {
  GeneticAlgorithm ga(GeneConfig{}, small_config(jobs), synthetic_fitness(),
                      Rng(99));
  ga.set_fitness_cache(std::make_shared<FitnessCache>("env"));
  (void)ga.run();
  return ga.history();
}

void check_kill_and_resume(std::size_t save_jobs, std::size_t resume_jobs,
                           std::size_t checkpoint_gen) {
  const std::vector<GenerationStats> reference = uninterrupted_history(1);

  // Phase 1: run with a checkpoint hook, "killed" right after generation
  // `checkpoint_gen` by capturing the snapshot and walking away. The
  // snapshot taken mid-run is what a SIGKILL would leave on disk.
  std::string snapshot_bytes;
  {
    GeneticAlgorithm ga(GeneConfig{}, small_config(save_jobs),
                        synthetic_fitness(), Rng(99));
    ga.set_fitness_cache(std::make_shared<FitnessCache>("env"));
    ga.set_checkpoint_hook(
        [&](const GeneticAlgorithm& g, std::size_t gen) {
          if (gen == checkpoint_gen) {
            SnapshotWriter w;
            g.save_checkpoint(w);
            snapshot_bytes = w.encode(GeneticAlgorithm::snapshot_kind());
          }
        });
    (void)ga.run();
    // This full run must itself match the reference (jobs-invariance).
    expect_same_history(ga.history(), reference);
  }
  ASSERT_FALSE(snapshot_bytes.empty());

  // Phase 2: a fresh process restores the snapshot and finishes the run.
  GeneticAlgorithm resumed(GeneConfig{}, small_config(resume_jobs),
                           synthetic_fitness(), Rng(99));
  resumed.set_fitness_cache(std::make_shared<FitnessCache>("env"));
  resumed.restore_checkpoint(SnapshotReader::parse(snapshot_bytes));
  ASSERT_EQ(resumed.history().size(), checkpoint_gen + 1);
  (void)resumed.run();
  expect_same_history(resumed.history(), reference);
}

TEST(GaCheckpoint, ResumeReproducesHistorySerial) {
  check_kill_and_resume(1, 1, 2);
}

TEST(GaCheckpoint, ResumeReproducesHistoryAcrossJobs) {
  check_kill_and_resume(4, 1, 3);
  check_kill_and_resume(1, 4, 2);
  check_kill_and_resume(4, 4, 5);
}

TEST(GaCheckpoint, ResumeAtEveryGeneration) {
  for (std::size_t gen = 0; gen + 1 < 8; ++gen) {
    check_kill_and_resume(1, 1, gen);
  }
}

TEST(GaCheckpoint, CheckpointAfterConvergedRunResumesAsNoOp) {
  // Constant fitness converges at `patience` generations. A checkpoint
  // taken after the run (the CLI writes one) must resume as a completed
  // campaign, not re-record the converged generation.
  GaConfig config = small_config(1);
  config.convergence_patience = 2;
  GeneticAlgorithm ga(GeneConfig{}, config,
                      [](const Strategy&) { return 1.0; }, Rng(99));
  (void)ga.run();
  ASSERT_LT(ga.history().size(), config.generations);  // really converged

  SnapshotWriter w;
  ga.save_checkpoint(w);
  GeneticAlgorithm resumed(GeneConfig{}, config,
                           [](const Strategy&) { return 1.0; }, Rng(99));
  resumed.restore_checkpoint(
      SnapshotReader::parse(w.encode(GeneticAlgorithm::snapshot_kind())));
  (void)resumed.run();
  expect_same_history(resumed.history(), ga.history());
}

TEST(GaCheckpoint, RestoreRefusesDifferentConfig) {
  GeneticAlgorithm ga(GeneConfig{}, small_config(1), synthetic_fitness(),
                      Rng(99));
  (void)ga.run();
  SnapshotWriter w;
  ga.save_checkpoint(w);
  const SnapshotReader reader =
      SnapshotReader::parse(w.encode(GeneticAlgorithm::snapshot_kind()));

  GaConfig other_config = small_config(1);
  other_config.complexity_weight = 1.0;  // changes evolution results
  GeneticAlgorithm other(GeneConfig{}, other_config, synthetic_fitness(),
                         Rng(99));
  EXPECT_THROW(other.restore_checkpoint(reader), SnapshotError);

  // jobs is excluded from the digest: sharding never changes results.
  GaConfig jobs_config = small_config(6);
  GeneticAlgorithm sharded(GeneConfig{}, jobs_config, synthetic_fitness(),
                           Rng(99));
  EXPECT_NO_THROW(sharded.restore_checkpoint(reader));
}

TEST(GaCheckpoint, CacheContentsSurviveTheRoundTrip) {
  auto cache = std::make_shared<FitnessCache>("env");
  GeneticAlgorithm ga(GeneConfig{}, small_config(1), synthetic_fitness(),
                      Rng(99));
  ga.set_fitness_cache(cache);
  (void)ga.run();
  ASSERT_GT(cache->size(), 0u);

  SnapshotWriter w;
  ga.save_checkpoint(w);
  auto restored_cache = std::make_shared<FitnessCache>("env");
  GeneticAlgorithm restored(GeneConfig{}, small_config(1),
                            synthetic_fitness(), Rng(99));
  restored.set_fitness_cache(restored_cache);
  restored.restore_checkpoint(
      SnapshotReader::parse(w.encode(GeneticAlgorithm::snapshot_kind())));
  EXPECT_EQ(restored_cache->size(), cache->size());
  EXPECT_EQ(restored_cache->export_entries(), cache->export_entries());
}

// ---- Supervised execution --------------------------------------------------

TEST(Supervision, ErrorKindStringsAndRetryability) {
  EXPECT_EQ(to_string(TrialErrorKind::kNone), "none");
  EXPECT_EQ(to_string(TrialErrorKind::kTimeout), "timeout");
  EXPECT_EQ(to_string(TrialErrorKind::kInvariantViolation),
            "invariant-violation");
  EXPECT_EQ(to_string(TrialErrorKind::kCodecError), "codec-error");
  EXPECT_EQ(to_string(TrialErrorKind::kInjectedFault), "injected-fault");
  EXPECT_FALSE(is_retryable(TrialErrorKind::kNone));
  EXPECT_FALSE(is_retryable(TrialErrorKind::kTimeout));
  EXPECT_FALSE(is_retryable(TrialErrorKind::kInvariantViolation));
  EXPECT_TRUE(is_retryable(TrialErrorKind::kCodecError));
  EXPECT_TRUE(is_retryable(TrialErrorKind::kInjectedFault));
}

TEST(Supervision, SoftFaultsRecoverViaRetry) {
  RateOptions options;
  options.trials = 12;
  options.base_seed = 500;
  options.supervision.inject_soft_fault_every = 3;  // trials 2, 5, 8, 11
  const RateReport report = measure_rate_supervised(
      Country::kChina, AppProtocol::kHttp, std::nullopt, options);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.retries, 4u);  // one extra attempt per faulted trial
  EXPECT_EQ(report.rate.trials(), 12u);  // nothing lost
  EXPECT_FALSE(report.quarantined);
}

TEST(Supervision, HardFaultsAreCountedNotFatal) {
  RateOptions options;
  options.trials = 12;
  options.base_seed = 500;
  options.supervision.inject_hard_fault_every = 4;  // trials 3, 7, 11
  const RateReport report = measure_rate_supervised(
      Country::kChina, AppProtocol::kHttp, std::nullopt, options);
  EXPECT_EQ(report.errors, 3u);
  EXPECT_EQ(report.error_counts[static_cast<std::size_t>(
                TrialErrorKind::kInjectedFault)],
            3u);
  EXPECT_EQ(report.retries, 6u);  // each hard fault burns the retry budget
  EXPECT_EQ(report.rate.trials(), 9u);  // completed trials still measured
  EXPECT_EQ(report.attempted(), 12u);
  EXPECT_FALSE(report.quarantined);  // never 8 consecutive
}

TEST(Supervision, CleanBatchMatchesUnsupervisedRate) {
  RateOptions options;
  options.trials = 30;
  options.base_seed = 77;
  const RateCounter plain = measure_rate(Country::kChina, AppProtocol::kHttp,
                                         std::nullopt, options);
  const RateReport supervised = measure_rate_supervised(
      Country::kChina, AppProtocol::kHttp, std::nullopt, options);
  EXPECT_EQ(supervised.rate.successes(), plain.successes());
  EXPECT_EQ(supervised.rate.trials(), plain.trials());
  EXPECT_EQ(supervised.errors, 0u);
  EXPECT_EQ(supervised.retries, 0u);
}

TEST(Supervision, ReportIsJobsInvariant) {
  RateOptions serial;
  serial.trials = 16;
  serial.base_seed = 300;
  serial.supervision.inject_hard_fault_every = 5;
  RateOptions sharded = serial;
  sharded.jobs = 4;
  const RateReport a = measure_rate_supervised(
      Country::kChina, AppProtocol::kHttp, std::nullopt, serial);
  const RateReport b = measure_rate_supervised(
      Country::kChina, AppProtocol::kHttp, std::nullopt, sharded);
  EXPECT_EQ(a.rate.successes(), b.rate.successes());
  EXPECT_EQ(a.rate.trials(), b.rate.trials());
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.quarantined, b.quarantined);
}

TEST(Supervision, ConsecutiveErrorsTriggerQuarantine) {
  RateOptions options;
  options.trials = 10;  // more than kQuarantineAfter in a row
  options.base_seed = 500;
  options.supervision.inject_hard_fault_every = 1;  // every trial errors
  const RateReport report = measure_rate_supervised(
      Country::kChina, AppProtocol::kHttp, std::nullopt, options);
  EXPECT_TRUE(report.quarantined);
  EXPECT_EQ(report.errors, 10u);
  EXPECT_EQ(report.rate.trials(), 0u);
}

TEST(Supervision, QuarantinedFitnessIsSentinelNotAbort) {
  auto quarantine = std::make_shared<Quarantine>();
  SupervisionPolicy policy;
  policy.inject_hard_fault_every = 1;
  // kQuarantineAfter trials, every one errored.
  FitnessFn fitness = make_supervised_fitness(Country::kChina,
                                              AppProtocol::kHttp,
                                              kQuarantineAfter, 100,
                                              quarantine, policy);
  const Strategy strategy = parsed_strategy(1);
  EXPECT_EQ(fitness(strategy), kQuarantinedFitness);
  EXPECT_EQ(quarantine->size(), 1u);
  EXPECT_TRUE(quarantine->contains(strategy.to_string()));
  // Later evaluations short-circuit on the registry.
  EXPECT_EQ(fitness(strategy), kQuarantinedFitness);
}

TEST(Supervision, QuarantineProbesOnConfiguredCadence) {
  Quarantine quarantine(/*probe_interval=*/3);
  quarantine.add("s", "injected-fault");
  // Denials 1 and 2 are refused; denial 3 is the probe admission.
  EXPECT_FALSE(quarantine.should_probe("s"));
  EXPECT_FALSE(quarantine.should_probe("s"));
  EXPECT_TRUE(quarantine.should_probe("s"));
  EXPECT_FALSE(quarantine.should_probe("s"));
  const auto statuses = quarantine.statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].reason, "injected-fault");
  EXPECT_EQ(statuses[0].probes, 1u);
}

TEST(Supervision, QuarantineReleaseRestoresStrategy) {
  Quarantine quarantine(/*probe_interval=*/2);
  quarantine.add("s", "timeout");
  EXPECT_EQ(quarantine.size(), 1u);
  quarantine.release("s");
  EXPECT_EQ(quarantine.size(), 0u);
  EXPECT_EQ(quarantine.released(), 1u);
  EXPECT_FALSE(quarantine.contains("s"));
}

TEST(Supervision, DefaultQuarantineNeverProbes) {
  // probe_interval 0 is the legacy permanent-banishment mode the GA's
  // checkpoint pins rely on.
  Quarantine quarantine;
  quarantine.add("s");
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(quarantine.should_probe("s"));
}

TEST(Supervision, ProbingFitnessReleasesRecoveredStrategy) {
  // The fault schedule errors every trial only on the first evaluation
  // window; a released strategy re-measures clean. We emulate recovery by
  // flipping the policy between calls via a fresh fitness function sharing
  // the quarantine registry.
  auto quarantine = std::make_shared<Quarantine>(/*probe_interval=*/1);
  SupervisionPolicy faulty;
  faulty.inject_hard_fault_every = 1;
  FitnessFn sick = make_supervised_fitness(Country::kChina, AppProtocol::kHttp,
                                           kQuarantineAfter, 100, quarantine,
                                           faulty);
  const Strategy strategy = parsed_strategy(1);
  EXPECT_EQ(sick(strategy), kQuarantinedFitness);
  ASSERT_EQ(quarantine->size(), 1u);

  // The substrate healed: the next admission is a probe, the clean batch
  // passes, and the strategy leaves quarantine.
  FitnessFn healthy = make_supervised_fitness(
      Country::kChina, AppProtocol::kHttp, 6, 100, quarantine);
  EXPECT_NE(healthy(strategy), kQuarantinedFitness);
  EXPECT_EQ(quarantine->size(), 0u);
  EXPECT_EQ(quarantine->released(), 1u);
}

TEST(Supervision, SupervisedFitnessMatchesPlainOnHealthySubstrate) {
  auto quarantine = std::make_shared<Quarantine>();
  FitnessFn supervised = make_supervised_fitness(
      Country::kChina, AppProtocol::kHttp, 15, 100, quarantine);
  RateOptions options;
  options.trials = 15;
  options.base_seed = 100;
  const Strategy strategy = parsed_strategy(1);
  const RateCounter plain =
      measure_rate(Country::kChina, AppProtocol::kHttp, strategy, options);
  EXPECT_EQ(supervised(strategy), plain.rate() * 100.0);
  EXPECT_EQ(quarantine->size(), 0u);
}

TEST(Supervision, SweepWithInjectedFailuresCompletesWithCoverage) {
  RateOptions options;
  options.trials = 8;
  options.base_seed = 42;
  options.supervision.inject_hard_fault_every = 4;
  const std::vector<std::pair<std::string, std::optional<Strategy>>>
      strategies = {{"no evasion", std::nullopt}};
  const std::vector<double> values = {0.0, 0.05};
  const std::vector<SweepCurve> curves =
      measure_impairment_sweep(Country::kChina, AppProtocol::kHttp,
                               strategies, SweepAxis::kLoss, values, options);
  ASSERT_EQ(curves.size(), 1u);
  ASSERT_EQ(curves[0].points.size(), 2u);
  for (const SweepPoint& point : curves[0].points) {
    EXPECT_EQ(point.errors, 2u);  // trials 3 and 7 of 8
    EXPECT_EQ(point.rate.trials() + point.errors, 8u);
  }
  // The rendered table carries a coverage footer iff cells lost trials.
  const std::string with_errors = render_sweep(curves, SweepAxis::kLoss);
  EXPECT_NE(with_errors.find("# errors"), std::string::npos);
  EXPECT_NE(with_errors.find("6/8"), std::string::npos);

  RateOptions clean = options;
  clean.supervision = SupervisionPolicy{};
  const std::string without_errors = render_sweep(
      measure_impairment_sweep(Country::kChina, AppProtocol::kHttp,
                               strategies, SweepAxis::kLoss, values, clean),
      SweepAxis::kLoss);
  EXPECT_EQ(without_errors.find("# errors"), std::string::npos);
}

}  // namespace
}  // namespace caya
