// caya — command-line front end to the library.
//
//   caya list
//       List the paper's eleven published strategies.
//   caya parse "<dsl>"
//       Validate a strategy and print its canonical form.
//   caya run [options]
//       Run trials of a strategy against a simulated censor.
//         --country china|india|iran|kazakhstan|turkmenistan
//                                                 (default china)
//         --protocol dns|ftp|http|https|smtp      (default http)
//         --strategy "<dsl>" | --published N      (default: no evasion)
//         --client-side                           (deploy at the client)
//         --trials N                              (default 100)
//         --seed N                                (default 1)
//         --os <substring of OS name>             (default Ubuntu 18.04.1)
//         --waterfall                             (print one packet diagram)
//         --stages                                (print censor pipeline
//                                                  stage events, trial 0)
//         --pcap FILE                             (write censor-view pcap)
//         --profile clean|lossy|bursty|flaky-censor  (path/censor condition)
//         --jobs N                                (parallel trials; default:
//                                                  hardware concurrency)
//   caya rates [options]
//       Success rate of one strategy across every protocol (a Table 2 row).
//         --country C  [--strategy DSL | --published N]  --trials N
//         --seed N  --profile P  --jobs N
//   caya sweep [options]
//       Success-rate-vs-impairment curves for a set of strategies.
//         --country C --protocol P --axis loss|burst|reorder
//         --published N (repeatable)  --trials N  --seed N  --jobs N
//   caya evolve [options]
//       ... --robust averages fitness across all impairment profiles;
//       --jobs N evaluates the population in parallel (deterministic: any
//       jobs value reproduces the --jobs 1 output byte-identically).
//
// Examples:
//   caya run --country china --protocol http --published 1 --trials 500
//   caya run --country china --published 6 --profile bursty
//   caya sweep --axis loss --published 1 --published 6 --trials 50
//   caya run --country kazakhstan --strategy
//       "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/"
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "eval/parallel.h"
#include "eval/rates.h"
#include "eval/replay.h"
#include "eval/strategies.h"
#include "eval/waterfall.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "geneva/fitness_cache.h"
#include "geneva/ga.h"
#include "geneva/library.h"
#include "geneva/parser.h"
#include "netsim/pcap.h"
#include "serve/orchestrator.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"

namespace caya {
namespace {

/// A user-facing CLI failure: main() renders it as one structured line
/// ("caya: error: ...") on stderr and exits 2 — never a bare throw or a
/// std::terminate.
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& message) { throw CliError(message); }

/// One subcommand's options, read flag by flag. Every read is checked: a
/// flag missing its value, a malformed number and an unknown option each
/// fail() with one structured line, never usage noise or a silent 0.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  [[nodiscard]] bool done() const noexcept { return next_ >= argc_; }

  /// Advances to the next flag.
  const std::string& flag() {
    flag_ = argv_[next_++];
    return flag_;
  }

  /// The current flag's value.
  std::string value() {
    if (done()) fail(flag_ + " needs a value");
    return argv_[next_++];
  }

  /// The current flag's value as a whole decimal number in T's range.
  template <typename T = std::uint64_t>
  T number() {
    const std::string text = value();
    T parsed{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
    if (ec != std::errc{} || ptr != end) {
      fail("invalid value \"" + text + "\" for " + flag_ + " (expected " +
           (std::is_signed_v<T> ? "an integer" : "a non-negative integer") +
           ")");
    }
    return parsed;
  }

  [[noreturn]] void unknown() const {
    fail("unknown option \"" + flag_ + "\"");
  }

 private:
  int argc_;
  char** argv_;
  int next_ = 0;
  std::string flag_;
};

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: caya list | caya parse \"<dsl>\" | caya run [options] |\n"
      "       caya library FILE | caya evolve [options] |\n"
      "       caya rates [options] | caya sweep [options] |\n"
      "       caya serve [options] | caya replay FILE --country C\n"
      "       caya fuzz [options]\n"
      "run options   : --country C --protocol P\n"
      "                [--strategy DSL | --published N | --from FILE --name "
      "N]\n"
      "                [--client-side] [--trials N] [--seed N] [--os NAME]\n"
      "                [--waterfall] [--stages] [--pcap FILE] [--jobs N]\n"
      "                [--profile clean|lossy|bursty|flaky-censor]\n"
      "evolve options: --country C --protocol P [--population N] [--gens N]"
      "\n                [--seed N] [--save FILE --name NAME] [--robust]\n"
      "                [--jobs N] [--checkpoint-dir D] [--checkpoint-every N]\n"
      "                [--resume] [--history-out FILE]\n"
      "rates options : --country C [--strategy DSL | --published N]\n"
      "                [--trials N] [--seed N] [--profile P] [--jobs N]\n"
      "sweep options : --country C --protocol P [--axis loss|burst|reorder]\n"
      "                [--published N]... [--trials N] [--seed N] [--jobs N]\n"
      "                [--checkpoint-dir D] [--checkpoint-every N] [--resume]\n"
      "                [--table-out FILE] [--inject-soft-fault-every N]\n"
      "                [--inject-hard-fault-every N]\n"
      "replay options: --country C [--lenient]   (skip damaged pcap tail)\n"
      "fuzz options  : --censor C|all [--iters N] [--seed N] [--jobs N]\n"
      "                [--corpus-dir D] [--repro FILE]\n"
      "caya fuzz runs the structure-aware adversarial fuzzer: each\n"
      "iteration feeds a mutated hostile stream, interleaved with an\n"
      "innocuous control flow, to a fresh censor set and asserts no crash\n"
      "and no fail-closed verdict. Findings are dumped to --corpus-dir as\n"
      "crash-<country>-seed<S>-iter<I>.pcap; --repro FILE replays one.\n"
      "Exit codes: 0 clean, 4 findings.\n"
      "serve options : --country C --protocol P\n"
      "                [--library FILE | --published N]...   (failover chain)\n"
      "                [--flows N] [--regime-flip-at K]\n"
      "                [--regime-before era-2019|era-https-resync]\n"
      "                [--regime-after era-2019|era-https-resync]\n"
      "                [--seed N] [--breaker-seed N] [--jobs N] [--chunk N]\n"
      "                [--checkpoint-dir D] [--checkpoint-every N] [--resume]\n"
      "                [--report-out FILE] [--update-library]\n"
      "caya serve fronts an ordered failover chain of strategies with\n"
      "per-strategy health monitors and circuit breakers, streaming N flows\n"
      "through whichever tier is healthy; --regime-flip-at K changes the\n"
      "GFW's parameter era mid-run at flow K. The final tier is always\n"
      "passthrough (graceful degradation). --update-library writes live\n"
      "success rates back into --library FILE.\n"
      "--checkpoint-dir D writes a crash-safe snapshot every\n"
      "--checkpoint-every N units of progress (evolve: generations; sweep:\n"
      "cells); --resume continues from the newest valid snapshot and\n"
      "reproduces the uninterrupted run's output byte-identically.\n"
      "--jobs N shards independent trials over N worker threads (default:\n"
      "hardware concurrency; 1 = serial). Output is byte-identical for any\n"
      "jobs value under the same seed.\n");
  std::exit(code);
}

Country parse_country(const std::string& name) {
  if (name == "china") return Country::kChina;
  if (name == "india") return Country::kIndia;
  if (name == "iran") return Country::kIran;
  if (name == "kazakhstan") return Country::kKazakhstan;
  if (name == "turkmenistan") return Country::kTurkmenistan;
  fail("unknown country \"" + name +
       "\" (available: china india iran kazakhstan turkmenistan)");
}

AppProtocol parse_protocol(const std::string& name) {
  if (name == "dns") return AppProtocol::kDnsOverTcp;
  if (name == "ftp") return AppProtocol::kFtp;
  if (name == "http") return AppProtocol::kHttp;
  if (name == "https") return AppProtocol::kHttps;
  if (name == "smtp") return AppProtocol::kSmtp;
  fail("unknown protocol \"" + name +
       "\" (available: dns ftp http https smtp)");
}

ImpairmentProfile parse_profile_arg(const std::string& name) {
  if (const auto profile = parse_profile(name)) return *profile;
  std::string available;
  for (const ImpairmentProfile p : all_profiles()) {
    available += ' ';
    available += to_string(p);
  }
  fail("unknown profile \"" + name + "\" (available:" + available + ")");
}

OsProfile parse_os(const std::string& needle) {
  for (const auto& os : all_os_profiles()) {
    if (os.name.find(needle) != std::string::npos) return os;
  }
  std::string available;
  for (const auto& os : all_os_profiles()) {
    available += ' ';
    available += '"' + os.name + '"';
  }
  fail("no OS profile matches \"" + needle + "\" (available:" + available +
       ")");
}

Strategy parse_strategy_arg(const std::string& dsl) {
  try {
    return parse_strategy(dsl);
  } catch (const ParseError& e) {
    fail("bad strategy \"" + dsl + "\": " + e.what());
  }
}

Strategy published_strategy_arg(int id) {
  try {
    return parsed_strategy(id);
  } catch (const std::out_of_range& e) {
    fail(e.what());
  }
}

/// Opens `path` for writing or fails with a structured one-liner — output
/// problems (missing directory, permissions) surface before hours of trials
/// are spent, not after.
std::ofstream open_output(const std::string& path,
                          const std::string& what) {
  std::ofstream out(path);
  if (!out) fail("cannot write " + what + " file \"" + path + "\"");
  return out;
}

int cmd_list() {
  std::printf("%-3s %-34s %s\n", "id", "name", "dsl");
  for (const auto& s : published_strategies()) {
    std::printf("%-3d %-34s %s\n", s.id, s.name.c_str(), s.dsl.c_str());
  }
  return 0;
}

int cmd_parse(const std::string& dsl) {
  try {
    const Strategy s = parse_strategy(dsl);
    std::printf("ok: %s\n", s.to_string().c_str());
    std::printf("size: %zu nodes\n", s.size());
    return 0;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
}

int cmd_library(const std::string& path) {
  try {
    const StrategyLibrary library = StrategyLibrary::load(path);
    std::printf("%-20s %8s  %-30s %s\n", "name", "success", "notes", "dsl");
    for (const auto& entry : library.entries()) {
      std::printf("%-20s %7.0f%%  %-30s %s\n", entry.name.c_str(),
                  entry.success * 100, entry.notes.c_str(),
                  entry.dsl.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_evolve(int argc, char** argv) {
  Country country = Country::kChina;
  AppProtocol protocol = AppProtocol::kHttp;
  std::size_t population = 80;
  std::size_t generations = 20;
  std::uint64_t seed = 1;
  std::string save_path;
  std::string save_name = "evolved";
  bool robust = false;
  std::size_t jobs = ThreadPool::hardware_jobs();
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  std::string history_out;

  for (Args args(argc, argv); !args.done();) {
    const std::string& arg = args.flag();
    if (arg == "--country") {
      country = parse_country(args.value());
    } else if (arg == "--protocol") {
      protocol = parse_protocol(args.value());
    } else if (arg == "--population") {
      population = args.number();
    } else if (arg == "--gens") {
      generations = args.number();
    } else if (arg == "--seed") {
      seed = args.number();
    } else if (arg == "--save") {
      save_path = args.value();
    } else if (arg == "--name") {
      save_name = args.value();
    } else if (arg == "--robust") {
      robust = true;
    } else if (arg == "--jobs") {
      jobs = args.number();
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = args.value();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = args.number();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--history-out") {
      history_out = args.value();
    } else {
      args.unknown();
    }
  }
  if (checkpoint_every == 0) checkpoint_every = 1;
  if (resume && checkpoint_dir.empty()) {
    fail("--resume requires --checkpoint-dir");
  }

  GaConfig config;
  config.population_size = population;
  config.generations = generations;
  config.jobs = jobs;
  Logger logger(LogLevel::kInfo, [](LogLevel, std::string_view msg) {
    std::printf("  %.*s\n", static_cast<int>(msg.size()), msg.data());
  });
  const std::vector<ImpairmentProfile> fitness_profiles =
      robust ? all_profiles() : std::vector<ImpairmentProfile>{};
  // Supervised fitness: errored trials are retried/counted inside the
  // batch, and a strategy that poisons its batches is quarantined at
  // sentinel fitness instead of aborting the campaign. Scores on a healthy
  // substrate match the unsupervised fitness exactly, so the cache digest
  // is shared.
  // Quarantine is half-open: every 3rd sentinel-scored lookup of a poisoned
  // strategy re-evaluates it for real, so a strategy banished by transient
  // faults can earn its way back in (deterministic: the probe decision is a
  // pure function of the per-key denial counter).
  auto quarantine = std::make_shared<Quarantine>(/*probe_interval=*/3);
  FitnessFn fitness = make_supervised_fitness(
      country, protocol, 20, seed, quarantine, SupervisionPolicy{},
      fitness_profiles);
  GeneticAlgorithm ga(GeneConfig{}, config, std::move(fitness), Rng(seed),
                      logger);
  // Elites and re-discovered genomes skip their trial batches entirely.
  auto cache = std::make_shared<FitnessCache>(
      fitness_cache_digest(country, protocol, 20, seed, fitness_profiles));
  ga.set_fitness_cache(cache);

  std::string checkpoint_path;
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    if (ec) {
      fail("cannot create checkpoint dir \"" + checkpoint_dir +
           "\": " + ec.message());
    }
    checkpoint_path = checkpoint_dir + "/evolve.ckpt";
    if (resume) {
      if (const auto loaded = load_checkpoint(checkpoint_path)) {
        const SnapshotReader reader = SnapshotReader::parse(loaded->bytes);
        if (reader.kind() != GeneticAlgorithm::snapshot_kind()) {
          fail("\"" + loaded->path + "\" is a " + reader.kind() +
               " snapshot, not a GA checkpoint");
        }
        ga.restore_checkpoint(reader);
        std::printf("resumed   : %s%s (history through generation %zu)\n",
                    loaded->path.c_str(),
                    loaded->fell_back ? " [fell back to last-good]" : "",
                    ga.history().empty() ? 0
                                         : ga.history().back().generation);
      }
      // No checkpoint yet: fall through and start fresh (the first crash
      // of a campaign has nothing to resume from).
    }
    ga.set_checkpoint_hook([&](const GeneticAlgorithm& g, std::size_t gen) {
      if ((gen + 1) % checkpoint_every != 0) return;
      SnapshotWriter writer;
      g.save_checkpoint(writer);
      write_checkpoint(checkpoint_path,
                       writer.encode(GeneticAlgorithm::snapshot_kind()));
    });
  }
  // Validate output paths before any trials run: an unwritable file should
  // cost seconds, not a finished campaign. Opened after the resume checks,
  // so a refused checkpoint leaves no history.
  std::optional<std::ofstream> history_stream;
  if (!history_out.empty()) {
    history_stream = open_output(history_out, "history");
  }

  const Individual best = ga.run();

  // Final checkpoint so a later --resume replays the finished campaign
  // without re-running anything.
  if (!checkpoint_path.empty()) {
    SnapshotWriter writer;
    ga.save_checkpoint(writer);
    write_checkpoint(checkpoint_path,
                     writer.encode(GeneticAlgorithm::snapshot_kind()));
  }
  if (history_stream) {
    // Hexfloat fitness values: byte-exact, so a resumed run's history file
    // can be diffed against the uninterrupted run's.
    for (const GenerationStats& gen : ga.history()) {
      *history_stream << gen.generation << '\t'
                      << SnapshotWriter::format_double(gen.best_fitness)
                      << '\t'
                      << SnapshotWriter::format_double(gen.mean_fitness)
                      << '\t' << gen.best_strategy << '\t' << gen.cache_hits
                      << '\t' << gen.evaluations << '\n';
    }
  }

  RateOptions options;
  options.trials = 200;
  options.base_seed = seed + 777'777;
  options.jobs = jobs;
  const double confirmed =
      measure_rate(country, protocol, best.strategy, options).rate();
  std::printf("\nbest      : %s\n", best.strategy.to_string().c_str());
  std::printf("confirmed : %.0f%% over 200 fresh trials\n", confirmed * 100);
  std::size_t total_hits = 0;
  for (const GenerationStats& gen : ga.history()) {
    total_hits += gen.cache_hits;
  }
  std::printf("cache     : %zu trial batches skipped, %zu strategies scored\n",
              total_hits, cache->size());
  if (quarantine->size() > 0 || quarantine->released() > 0) {
    std::printf("quarantine: %zu strategies scored %g after repeated trial "
                "errors, %zu released after passing probes\n",
                quarantine->size(), kQuarantinedFitness,
                quarantine->released());
    for (const Quarantine::Status& status : quarantine->statuses()) {
      std::printf("  %-12s denied %-4zu probes %-3zu %s\n",
                  status.reason.empty() ? "(unknown)" : status.reason.c_str(),
                  status.denied, status.probes, status.key.c_str());
    }
  }
  if (robust) {
    for (const ImpairmentProfile profile : all_profiles()) {
      RateOptions per_profile = options;
      per_profile.trials = 100;
      per_profile.profile = profile;
      const double rate =
          measure_rate(country, protocol, best.strategy, per_profile).rate();
      std::printf("  %-12.*s: %.0f%%\n",
                  static_cast<int>(to_string(profile).size()),
                  to_string(profile).data(), rate * 100);
    }
  }

  if (!save_path.empty()) {
    StrategyLibrary library;
    try {
      library = StrategyLibrary::load(save_path);
    } catch (const std::exception&) {
      // New file.
    }
    library.add({.name = save_name,
                 .success = confirmed,
                 .notes = "GA vs " + std::string(to_string(country)) + "/" +
                          std::string(to_string(protocol)),
                 .dsl = best.strategy.to_string()});
    library.save(save_path);
    std::printf("saved to  : %s (as \"%s\")\n", save_path.c_str(),
                save_name.c_str());
  }
  return 0;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 1) usage(2);
  const std::string path = argv[0];
  Country country = Country::kChina;
  bool lenient = false;
  for (Args args(argc - 1, argv + 1); !args.done();) {
    const std::string& arg = args.flag();
    if (arg == "--country") {
      country = parse_country(args.value());
    } else if (arg == "--lenient") {
      lenient = true;
    } else {
      args.unknown();
    }
  }
  // Load/parse failures propagate to main(): one structured
  // "caya: error: ..." line (with the offset of the first bad record for a
  // damaged capture), exit 2. --lenient instead skips the bad tail.
  const ReplayResult result = replay_pcap_file(path, country, 1, lenient);
  std::printf("capture        : %s\n", path.c_str());
  std::printf("country        : %s\n",
              std::string(to_string(country)).c_str());
  std::printf("packets        : %zu (%zu unparseable)\n", result.packets,
              result.parse_failures);
  if (result.skipped_records > 0) {
    std::printf("skipped records: %zu (lenient)\n", result.skipped_records);
  }
  if (result.decode.failures() > 0) {
    std::printf("decode errors  : %s\n", result.decode.to_summary().c_str());
  }
  std::printf("censor events  : %zu\n", result.censor_events);
  std::printf("would inject   : %zu packets\n", result.injected_packets);
  for (const auto& ev : result.events) {
    std::printf("  pkt #%zu: %s\n", ev.packet_index,
                ev.description.c_str());
  }
  return result.censor_events > 0 ? 3 : 0;  // exit code: censored or not
}

void print_fuzz_report(const FuzzReport& report) {
  std::printf("censor         : %s\n",
              std::string(to_string(report.country)).c_str());
  std::printf("iterations     : %zu (seed %llu)\n", report.iters,
              static_cast<unsigned long long>(report.seed));
  std::printf("records fed    : %zu\n", report.records);
  std::printf("decode ok/fail : %llu/%llu\n",
              static_cast<unsigned long long>(report.decode.successes()),
              static_cast<unsigned long long>(report.decode.failures()));
  if (report.decode.failures() > 0) {
    std::printf("decode errors  : %s\n", report.decode.to_summary().c_str());
  }
  std::printf("censor events  : %zu (injected %zu)\n", report.censor_events,
              report.injected);
  std::printf("state shed     : %llu flows evicted, %llu segments dropped\n",
              static_cast<unsigned long long>(report.state.evicted_flows),
              static_cast<unsigned long long>(report.state.dropped_segments));
  for (std::size_t k = 0; k < kMutationKindCount; ++k) {
    std::printf("  %-20s: %llu\n",
                std::string(to_string(static_cast<MutationKind>(k))).c_str(),
                static_cast<unsigned long long>(report.kind_counts[k]));
  }
  std::printf("crashes        : %zu\n", report.crashes);
  std::printf("fail-closed    : %zu\n", report.fail_closed);
  for (const auto& finding : report.findings) {
    std::printf("  FINDING iter %zu kind %s%s%s%s%s\n", finding.iter,
                std::string(to_string(finding.kind)).c_str(),
                finding.crashed ? " CRASH: " : "",
                finding.crashed ? finding.crash_what.c_str() : "",
                finding.fail_closed ? " FAIL-CLOSED" : "",
                finding.corpus_path.empty()
                    ? ""
                    : (" -> " + finding.corpus_path).c_str());
  }
}

int cmd_fuzz(int argc, char** argv) {
  std::vector<Country> countries = all_countries();
  bool censor_given = false;
  FuzzConfig config;
  config.jobs = ThreadPool::hardware_jobs();
  std::string repro;
  for (Args args(argc, argv); !args.done();) {
    const std::string& arg = args.flag();
    if (arg == "--censor") {
      const std::string value = args.value();
      censor_given = true;
      if (value != "all") countries = {parse_country(value)};
    } else if (arg == "--iters") {
      config.iters = args.number();
    } else if (arg == "--seed") {
      config.seed = args.number();
    } else if (arg == "--jobs") {
      config.jobs = args.number();
    } else if (arg == "--corpus-dir") {
      config.corpus_dir = args.value();
    } else if (arg == "--repro") {
      repro = args.value();
    } else {
      args.unknown();
    }
  }

  if (!repro.empty()) {
    if (!censor_given || countries.size() != 1) {
      fail("--repro needs --censor <country> (the corpus entry's censor)");
    }
    const OracleOutcome outcome =
        replay_corpus_entry(repro, countries[0], config.seed);
    std::printf("corpus entry   : %s\n", repro.c_str());
    std::printf("records        : %zu\n", outcome.records);
    std::printf("decode ok/fail : %llu/%llu\n",
                static_cast<unsigned long long>(outcome.decode.successes()),
                static_cast<unsigned long long>(outcome.decode.failures()));
    std::printf("censor events  : %zu (injected %zu)\n",
                outcome.censor_events, outcome.injected);
    std::printf("crash          : %s%s\n", outcome.crashed ? "yes " : "no",
                outcome.crashed ? outcome.crash_what.c_str() : "");
    std::printf("fail-closed    : %s\n", outcome.fail_closed ? "yes" : "no");
    return outcome.clean() ? 0 : 4;
  }

  bool clean = true;
  for (std::size_t c = 0; c < countries.size(); ++c) {
    if (c > 0) std::printf("\n");
    config.country = countries[c];
    const FuzzReport report = run_fuzz(config);
    print_fuzz_report(report);
    clean = clean && report.clean();
  }
  return clean ? 0 : 4;
}

int cmd_sweep(int argc, char** argv) {
  Country country = Country::kChina;
  AppProtocol protocol = AppProtocol::kHttp;
  SweepAxis axis = SweepAxis::kLoss;
  std::vector<int> published;
  std::size_t trials = 50;
  std::uint64_t seed = 1;
  std::size_t jobs = ThreadPool::hardware_jobs();
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  std::string table_out;
  SupervisionPolicy supervision;

  for (Args args(argc, argv); !args.done();) {
    const std::string& arg = args.flag();
    if (arg == "--country") {
      country = parse_country(args.value());
    } else if (arg == "--protocol") {
      protocol = parse_protocol(args.value());
    } else if (arg == "--axis") {
      const std::string name = args.value();
      if (name == "loss") {
        axis = SweepAxis::kLoss;
      } else if (name == "burst") {
        axis = SweepAxis::kBurst;
      } else if (name == "reorder") {
        axis = SweepAxis::kReorder;
      } else {
        fail("unknown axis \"" + name + "\" (available: loss burst reorder)");
      }
    } else if (arg == "--published") {
      published.push_back(args.number<int>());
    } else if (arg == "--trials") {
      trials = args.number();
    } else if (arg == "--seed") {
      seed = args.number();
    } else if (arg == "--jobs") {
      jobs = args.number();
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = args.value();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = args.number();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--table-out") {
      table_out = args.value();
    } else if (arg == "--inject-soft-fault-every") {
      supervision.inject_soft_fault_every = args.number();
    } else if (arg == "--inject-hard-fault-every") {
      supervision.inject_hard_fault_every = args.number();
    } else {
      args.unknown();
    }
  }
  if (published.empty()) published = {1, 2, 6};
  if (checkpoint_every == 0) checkpoint_every = 1;
  if (resume && checkpoint_dir.empty()) {
    fail("--resume requires --checkpoint-dir");
  }

  std::vector<std::pair<std::string, std::optional<Strategy>>> strategies;
  strategies.emplace_back("no evasion", std::nullopt);
  for (const int id : published) {
    strategies.emplace_back("published " + std::to_string(id),
                            published_strategy_arg(id));
  }

  const std::vector<double> values =
      axis == SweepAxis::kReorder
          ? std::vector<double>{0.0, 0.05, 0.1, 0.25, 0.5}
          : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.1, 0.2};
  RateOptions options;
  options.trials = trials;
  options.base_seed = seed;
  options.jobs = jobs;
  options.supervision = supervision;

  // The sweep runs cell by cell in row-major order (strategy-major), so a
  // checkpoint after any cell captures a resumable partial table. The
  // config digest ties a snapshot to this exact sweep: resuming under a
  // different axis/seed/strategy set is refused, not silently diverged.
  const auto sweep_digest = [&]() {
    SnapshotWriter w;
    w.put("country", to_string(country));
    w.put("protocol", to_string(protocol));
    w.put("axis", to_string(axis));
    w.put_u64("trials", trials);
    w.put_u64("seed", seed);
    w.put_u64("soft", supervision.inject_soft_fault_every);
    w.put_u64("hard", supervision.inject_hard_fault_every);
    for (const auto& [name, strategy] : strategies) w.put("strategy", name);
    for (const double value : values) w.put_double("value", value);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(w.encode("sweep-config"))));
    return std::string(buf);
  }();

  std::vector<SweepCurve> curves(strategies.size());
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    curves[s].strategy_name = strategies[s].first;
  }
  const std::size_t total = strategies.size() * values.size();
  std::size_t done = 0;

  std::string checkpoint_path;
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    if (ec) {
      fail("cannot create checkpoint dir \"" + checkpoint_dir +
           "\": " + ec.message());
    }
    checkpoint_path = checkpoint_dir + "/sweep.ckpt";
  }
  if (resume && !checkpoint_path.empty()) {
    if (const auto loaded = load_checkpoint(checkpoint_path)) {
      const SnapshotReader reader = SnapshotReader::parse(loaded->bytes);
      if (reader.kind() != "sweep-checkpoint") {
        fail("\"" + loaded->path + "\" is a " + reader.kind() +
             " snapshot, not a sweep checkpoint");
      }
      if (reader.get("config") != sweep_digest) {
        fail("checkpoint \"" + loaded->path +
             "\" was taken under a different sweep configuration; resuming "
             "would silently diverge");
      }
      for (const SnapshotReader::Record* rec : reader.all("cell")) {
        // 7 fields: pre-quarantine-reason checkpoints, still resumable.
        if (rec->fields.size() != 7 && rec->fields.size() != 9) {
          fail("malformed sweep checkpoint cell");
        }
        const std::size_t index = SnapshotReader::parse_u64(rec->fields[0]);
        if (index != done || done >= total) {
          fail("sweep checkpoint cells are out of order");
        }
        SweepPoint point;
        point.value = SnapshotReader::parse_double(rec->fields[1]);
        const std::size_t successes =
            SnapshotReader::parse_u64(rec->fields[2]);
        const std::size_t cell_trials =
            SnapshotReader::parse_u64(rec->fields[3]);
        for (std::size_t t = 0; t < cell_trials; ++t) {
          point.rate.record(t < successes);
        }
        point.timeouts = SnapshotReader::parse_u64(rec->fields[4]);
        point.errors = SnapshotReader::parse_u64(rec->fields[5]);
        point.retries = SnapshotReader::parse_u64(rec->fields[6]);
        if (rec->fields.size() == 9) {
          point.quarantined = rec->fields[7] == "1";
          point.quarantine_reason = rec->fields[8];
        }
        curves[done / values.size()].points.push_back(point);
        ++done;
      }
      std::printf("resumed   : %s%s (%zu/%zu cells)\n", loaded->path.c_str(),
                  loaded->fell_back ? " [fell back to last-good]" : "", done,
                  total);
    }
  }
  // Opened after the resume checks, so a refused checkpoint leaves no table.
  std::optional<std::ofstream> table_stream;
  if (!table_out.empty()) {
    table_stream = open_output(table_out, "table");
  }

  const auto save_cells = [&]() {
    SnapshotWriter writer;
    writer.put("config", sweep_digest);
    std::size_t index = 0;
    for (const SweepCurve& curve : curves) {
      for (const SweepPoint& point : curve.points) {
        writer.record(
            "cell",
            {std::to_string(index),
             SnapshotWriter::format_double(point.value),
             std::to_string(point.rate.successes()),
             std::to_string(point.rate.trials()),
             std::to_string(point.timeouts), std::to_string(point.errors),
             std::to_string(point.retries),
             point.quarantined ? "1" : "0", point.quarantine_reason});
        ++index;
      }
    }
    write_checkpoint(checkpoint_path, writer.encode("sweep-checkpoint"));
  };

  for (std::size_t c = done; c < total; ++c) {
    const std::size_t s = c / values.size();
    const std::size_t v = c % values.size();
    curves[s].points.push_back(measure_sweep_cell(
        country, protocol, strategies[s].second, axis, values[v], options));
    ++done;
    if (!checkpoint_path.empty() &&
        (done % checkpoint_every == 0 || done == total)) {
      save_cells();
    }
  }

  std::printf("%s vs %s/%s, %zu trials per point\n\n",
              std::string(to_string(axis)).c_str(),
              std::string(to_string(country)).c_str(),
              std::string(to_string(protocol)).c_str(), trials);
  const std::string table = render_sweep(curves, axis);
  std::printf("%s", table.c_str());
  if (table_stream) *table_stream << table;
  return 0;
}

GfwRegime parse_regime_arg(const std::string& name) {
  if (const auto regime = parse_gfw_regime(name)) return *regime;
  fail("unknown GFW regime \"" + name +
       "\" (available: era-2019 era-https-resync)");
}

int cmd_serve(int argc, char** argv) {
  ServeConfig config;
  config.flows = 512;
  config.jobs = ThreadPool::hardware_jobs();
  std::string library_path;
  std::vector<int> published;
  bool breaker_seed_set = false;
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  std::string report_out;
  bool update_library = false;

  for (Args args(argc, argv); !args.done();) {
    const std::string& arg = args.flag();
    if (arg == "--country") {
      config.country = parse_country(args.value());
    } else if (arg == "--protocol") {
      config.protocol = parse_protocol(args.value());
    } else if (arg == "--library") {
      library_path = args.value();
    } else if (arg == "--published") {
      published.push_back(args.number<int>());
    } else if (arg == "--flows") {
      config.flows = args.number();
    } else if (arg == "--regime-flip-at") {
      config.regime_flip_at = args.number();
    } else if (arg == "--regime-before") {
      config.regime_before = parse_regime_arg(args.value());
    } else if (arg == "--regime-after") {
      config.regime_after = parse_regime_arg(args.value());
    } else if (arg == "--seed") {
      config.base_seed = args.number();
      if (!breaker_seed_set) config.breaker_seed = config.base_seed;
    } else if (arg == "--breaker-seed") {
      config.breaker_seed = args.number();
      breaker_seed_set = true;
    } else if (arg == "--jobs") {
      config.jobs = args.number();
    } else if (arg == "--chunk") {
      config.chunk = args.number();
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = args.value();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = args.number();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--report-out") {
      report_out = args.value();
    } else if (arg == "--update-library") {
      update_library = true;
    } else {
      args.unknown();
    }
  }
  if (checkpoint_every == 0) checkpoint_every = 1;
  if (resume && checkpoint_dir.empty()) {
    fail("--resume requires --checkpoint-dir");
  }
  if (!library_path.empty() && !published.empty()) {
    fail("--library and --published are mutually exclusive");
  }
  if (update_library && library_path.empty()) {
    fail("--update-library requires --library");
  }

  // The failover chain: a library file in entry order, an explicit
  // --published list, or the default RST-dependent-first demonstration
  // chain (published 7 collapses when the GFW stops resyncing on RSTs;
  // payload-based 6 and 2 survive).
  StrategyLibrary library;
  std::vector<ServeTier> tiers;
  if (!library_path.empty()) {
    try {
      library = StrategyLibrary::load(library_path);
    } catch (const std::exception& e) {
      fail(e.what());
    }
    tiers = tiers_from_library(library);
    if (tiers.empty()) fail("library \"" + library_path + "\" is empty");
  } else {
    if (published.empty()) published = {7, 6, 2};
    for (const int id : published) {
      tiers.push_back({"published " + std::to_string(id),
                       published_strategy_arg(id)});
    }
  }

  Orchestrator orch(config, std::move(tiers));

  std::string checkpoint_path;
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    if (ec) {
      fail("cannot create checkpoint dir \"" + checkpoint_dir +
           "\": " + ec.message());
    }
    checkpoint_path = checkpoint_dir + "/serve.ckpt";
    if (resume) {
      if (const auto loaded = load_checkpoint(checkpoint_path)) {
        const SnapshotReader reader = SnapshotReader::parse(loaded->bytes);
        if (reader.kind() != Orchestrator::snapshot_kind()) {
          fail("\"" + loaded->path + "\" is a " + reader.kind() +
               " snapshot, not a serve checkpoint");
        }
        orch.restore_checkpoint(reader);
        std::printf("resumed   : %s%s (%zu/%zu flows)\n",
                    loaded->path.c_str(),
                    loaded->fell_back ? " [fell back to last-good]" : "",
                    orch.report().flows, config.flows);
      }
    }
    orch.set_checkpoint_hook(
        [checkpoint_path, checkpoint_every, chunks_done = std::size_t{0}](
            const Orchestrator& o, std::size_t flows_done) mutable {
          if (++chunks_done % checkpoint_every != 0 &&
              flows_done != o.config().flows) {
            return;
          }
          SnapshotWriter writer;
          o.save_checkpoint(writer);
          write_checkpoint(checkpoint_path,
                           writer.encode(Orchestrator::snapshot_kind()));
        });
  }
  // Opened after the resume checks, so a refused checkpoint leaves no report.
  std::optional<std::ofstream> report_stream;
  if (!report_out.empty()) {
    report_stream = open_output(report_out, "report");
  }

  const ServeReport& report = orch.run();

  std::printf("country   : %s/%s, %zu flows\n",
              std::string(to_string(config.country)).c_str(),
              std::string(to_string(config.protocol)).c_str(), config.flows);
  if (config.regime_flip_at != ServeConfig::kNoRegimeFlip) {
    std::printf("regime    : %.*s -> %.*s at flow %zu\n",
                static_cast<int>(to_string(config.regime_before).size()),
                to_string(config.regime_before).data(),
                static_cast<int>(to_string(config.regime_after).size()),
                to_string(config.regime_after).data(), config.regime_flip_at);
  }

  // The deterministic report body: health events, scoreboard, summary.
  // Byte-identical across --jobs values and across kill-and-resume, so it
  // is what --report-out captures for diffing.
  std::string body;
  body += "health events:\n";
  for (const HealthEvent& event : report.events) {
    body += "  " + to_line(event) + "\n";
  }
  body += "\n" + render_scoreboard(orch);
  char line[160];
  std::snprintf(line, sizeof(line),
                "\nflows     : %zu total, %zu degraded (passthrough)\n",
                report.flows, report.degraded_flows);
  body += line;
  std::snprintf(line, sizeof(line),
                "speculation: %zu mispredictions, %zu trials re-evaluated\n",
                report.mispredictions, report.speculated_waste);
  body += line;
  std::printf("%s", body.c_str());
  if (report_stream) *report_stream << body;

  if (update_library) {
    bool refreshed = false;
    for (const TierStats& stats : report.tiers) {
      if (stats.degraded_tier || stats.served == 0) continue;
      refreshed |= library.update_success(stats.name, stats.rate());
    }
    if (refreshed) {
      try {
        library.save(library_path);
      } catch (const std::exception& e) {
        fail(e.what());
      }
      std::printf("library   : refreshed success rates in %s\n",
                  library_path.c_str());
    }
  }
  return 0;
}

int cmd_rates(int argc, char** argv) {
  Country country = Country::kChina;
  std::optional<Strategy> strategy;
  std::size_t trials = 100;
  std::uint64_t seed = 1;
  ImpairmentProfile profile = ImpairmentProfile::kClean;
  std::size_t jobs = ThreadPool::hardware_jobs();

  for (Args args(argc, argv); !args.done();) {
    const std::string& arg = args.flag();
    if (arg == "--country") {
      country = parse_country(args.value());
    } else if (arg == "--strategy") {
      strategy = parse_strategy_arg(args.value());
    } else if (arg == "--published") {
      strategy = published_strategy_arg(args.number<int>());
    } else if (arg == "--trials") {
      trials = args.number();
    } else if (arg == "--seed") {
      seed = args.number();
    } else if (arg == "--profile") {
      profile = parse_profile_arg(args.value());
    } else if (arg == "--jobs") {
      jobs = args.number();
    } else {
      args.unknown();
    }
  }

  std::printf("strategy  : %s\n",
              strategy ? strategy->to_string().c_str() : "(no evasion)");
  std::printf("country   : %s, %zu trials per protocol\n",
              std::string(to_string(country)).c_str(), trials);
  std::printf("%-8s %10s %8s %17s\n", "protocol", "success", "rate",
              "95% CI");
  std::uint64_t protocol_seed = seed;
  for (const AppProtocol protocol : all_protocols()) {
    RateOptions options;
    options.trials = trials;
    options.base_seed = protocol_seed;
    options.profile = profile;
    options.jobs = jobs;
    const RateCounter rate = measure_rate(country, protocol, strategy,
                                          options);
    const auto interval = rate.wilson();
    std::printf("%-8s %6zu/%-3zu %7.1f%% %7.1f%% - %5.1f%%\n",
                std::string(to_string(protocol)).c_str(), rate.successes(),
                rate.trials(), rate.rate() * 100, interval.lo * 100,
                interval.hi * 100);
    // Disjoint seed blocks per protocol, matching bench_table2's layout.
    protocol_seed += 1000;
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  Country country = Country::kChina;
  AppProtocol protocol = AppProtocol::kHttp;
  std::optional<Strategy> strategy;
  std::string from_path;
  std::string from_name;
  bool client_side = false;
  std::size_t trials = 100;
  std::uint64_t seed = 1;
  OsProfile os = OsProfile::linux_default();
  bool waterfall = false;
  bool stages = false;
  std::string pcap_path;
  ImpairmentProfile profile = ImpairmentProfile::kClean;
  std::size_t jobs = ThreadPool::hardware_jobs();

  for (Args args(argc, argv); !args.done();) {
    const std::string& arg = args.flag();
    if (arg == "--country") {
      country = parse_country(args.value());
    } else if (arg == "--protocol") {
      protocol = parse_protocol(args.value());
    } else if (arg == "--strategy") {
      strategy = parse_strategy_arg(args.value());
    } else if (arg == "--published") {
      strategy = published_strategy_arg(args.number<int>());
    } else if (arg == "--from") {
      from_path = args.value();
    } else if (arg == "--name") {
      from_name = args.value();
    } else if (arg == "--client-side") {
      client_side = true;
    } else if (arg == "--trials") {
      trials = args.number();
    } else if (arg == "--seed") {
      seed = args.number();
    } else if (arg == "--os") {
      os = parse_os(args.value());
    } else if (arg == "--waterfall") {
      waterfall = true;
    } else if (arg == "--stages") {
      stages = true;
    } else if (arg == "--pcap") {
      pcap_path = args.value();
    } else if (arg == "--profile") {
      profile = parse_profile_arg(args.value());
    } else if (arg == "--jobs") {
      jobs = args.number();
    } else {
      args.unknown();
    }
  }

  if (!from_path.empty()) {
    try {
      const StrategyLibrary library = StrategyLibrary::load(from_path);
      const LibraryEntry* entry = library.find(from_name);
      if (entry == nullptr) {
        std::fprintf(stderr, "no entry \"%s\" in %s\n", from_name.c_str(),
                     from_path.c_str());
        return 1;
      }
      strategy = parse_strategy(entry->dsl);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  // Trials are independent simulations seeded from seed + i, each on a
  // pooled substrate; shard them across the pool and reduce outcomes in
  // index order, so any --jobs value prints exactly the --jobs 1 report.
  // Only trial 0 records a trace (the one the waterfall/pcap outputs show),
  // so the capture is deterministic too.
  struct RunOutcome {
    bool success = false;
    bool timed_out = false;
  };
  const bool want_trace = waterfall || stages || !pcap_path.empty();
  Trace first_trace;
  const ParallelEvaluator evaluator(jobs);
  const std::vector<RunOutcome> outcomes = evaluator.map_batched(
      trials, [](std::size_t) { return 0; },
      [&](std::size_t i) {
        Environment::Config config;
        config.country = country;
        config.protocol = protocol;
        config.seed = seed + i;
        config.net.trace_stages = stages;
        apply_profile(profile, config);
        ConnectionOptions options;
        if (client_side) {
          options.client_strategy = strategy;
        } else {
          options.server_strategy = strategy;
        }
        options.client_os = os;
        options.record_trace = want_trace && i == 0;
        const TrialResult result = run_trial(config, options);
        if (options.record_trace) first_trace = result.trace;
        return RunOutcome{result.success, result.timed_out};
      });

  RateCounter counter;
  std::size_t timeouts = 0;
  const bool have_trace = want_trace && trials > 0;
  for (const RunOutcome& outcome : outcomes) {
    counter.record(outcome.success);
    if (outcome.timed_out) ++timeouts;
  }

  const auto interval = counter.wilson();
  std::printf("country   : %s\n", std::string(to_string(country)).c_str());
  std::printf("protocol  : %s\n", std::string(to_string(protocol)).c_str());
  std::printf("strategy  : %s%s\n",
              strategy ? strategy->to_string().c_str() : "(no evasion)",
              client_side ? "  [client-side]" : "");
  std::printf("client OS : %s\n", os.name.c_str());
  std::printf("profile   : %.*s\n", static_cast<int>(to_string(profile).size()),
              to_string(profile).data());
  std::printf("success   : %zu/%zu = %.1f%%  (95%% CI %.1f%%-%.1f%%)\n",
              counter.successes(), counter.trials(), counter.rate() * 100,
              interval.lo * 100, interval.hi * 100);
  if (timeouts > 0) {
    std::printf("timed out : %zu/%zu trials hit the deadline/event cap\n",
                timeouts, counter.trials());
  }

  if (waterfall && have_trace) {
    std::printf("\nfirst trial, endpoint view:\n%s",
                render_waterfall(first_trace).c_str());
  }
  if (stages && have_trace) {
    std::printf("\nfirst trial, censor pipeline stages:\n");
    for (const TraceEvent& ev : first_trace.events()) {
      if (ev.point != TracePoint::kCensorStage) continue;
      std::printf("  %8llu us  %s  (%s)\n",
                  static_cast<unsigned long long>(ev.at),
                  ev.packet.summary().c_str(), ev.note.c_str());
    }
  }
  if (!pcap_path.empty() && have_trace) {
    write_pcap_file(pcap_path, first_trace);
    std::printf("wrote censor-view pcap: %s\n", pcap_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace caya

int main(int argc, char** argv) {
  try {
    if (argc < 2) caya::usage(1);
    const std::string command = argv[1];
    if (command == "list") return caya::cmd_list();
    if (command == "parse") {
      if (argc < 3) caya::usage(2);
      return caya::cmd_parse(argv[2]);
    }
    if (command == "run") return caya::cmd_run(argc - 2, argv + 2);
    if (command == "library") {
      if (argc < 3) caya::usage(2);
      return caya::cmd_library(argv[2]);
    }
    if (command == "evolve") return caya::cmd_evolve(argc - 2, argv + 2);
    if (command == "rates") return caya::cmd_rates(argc - 2, argv + 2);
    if (command == "sweep") return caya::cmd_sweep(argc - 2, argv + 2);
    if (command == "serve") return caya::cmd_serve(argc - 2, argv + 2);
    if (command == "replay") {
      if (argc < 3) caya::usage(2);
      return caya::cmd_replay(argc - 2, argv + 2);
    }
    if (command == "fuzz") return caya::cmd_fuzz(argc - 2, argv + 2);
    caya::usage(1);
  } catch (const std::exception& e) {
    // One structured line, exit 2 — scripts driving long campaigns get a
    // parseable failure instead of a bare terminate.
    std::fprintf(stderr, "caya: error: %s\n", e.what());
    return 2;
  }
}
