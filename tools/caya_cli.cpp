// caya — command-line front end to the library. usage() lists every
// subcommand and flag.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
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

class Args;

/// One row of a subcommand's flag table: the flag and how to read it.
struct Flag {
  std::string_view name;
  std::function<void(Args&)> read;
};
using Flags = std::vector<Flag>;

/// A subcommand's arguments, read in order. Every read is checked: a flag
/// missing its value, a malformed number, an unknown option and a missing
/// operand each fail() with one structured line, never usage noise or a
/// silent 0.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Reads every remaining argument as a flag of `flags` or `shared`, in
  /// command-line order.
  void read(Flags flags, const Flags& shared = {}) {
    flags.insert(flags.end(), shared.begin(), shared.end());
    while (next_ < argc_) {
      flag_ = argv_[next_++];
      const auto row = std::find_if(
          flags.begin(), flags.end(),
          [this](const Flag& f) { return f.name == flag_; });
      if (row == flags.end()) fail("unknown option \"" + flag_ + "\"");
      row->read(*this);
    }
  }

  /// The next positional argument.
  std::string operand(const std::string& what) {
    if (next_ >= argc_) fail("missing " + what);
    return argv_[next_++];
  }

  /// The current flag's value.
  std::string value() {
    if (next_ >= argc_) fail(flag_ + " needs a value");
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

 private:
  int argc_;
  char** argv_;
  int next_ = 0;
  std::string flag_;
};

void usage() {
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
      "cells; serve: chunks); --resume continues from the newest valid\n"
      "snapshot and reproduces the uninterrupted run's output\n"
      "byte-identically.\n"
      "--jobs N shards independent trials over N worker threads (default:\n"
      "hardware concurrency; 1 = serial). Output is byte-identical for any\n"
      "jobs value under the same seed.\n");
}

/// The value among `values` whose lower-cased to_string() name is `name`;
/// otherwise fails, listing every name.
template <typename T>
T parse_choice(const std::string& name, const std::vector<T>& values,
               std::string_view what) {
  std::string available;
  for (const T value : values) {
    std::string known(to_string(value));
    for (char& c : known) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (known == name) return value;
    available += ' ' + known;
  }
  fail("unknown " + std::string(what) + " \"" + name +
       "\" (available:" + available + ")");
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

// ---- Flag rows --------------------------------------------------------------

template <typename T>
Flag number_flag(std::string_view name, T& target) {
  return {name, [&target](Args& args) { target = args.number<T>(); }};
}

Flag text_flag(std::string_view name, std::string& target) {
  return {name, [&target](Args& args) { target = args.value(); }};
}

Flag switch_flag(std::string_view name, bool& target) {
  return {name, [&target](Args&) { target = true; }};
}

template <typename T>
Flag choice_flag(std::string_view name, T& target,
                 std::type_identity_t<std::vector<T>> values,
                 std::string_view what) {
  return {name, [&target, values = std::move(values), what](Args& args) {
            target = parse_choice(args.value(), values, what);
          }};
}

Flag country_flag(Country& country) {
  return choice_flag("--country", country, all_countries(), "country");
}

Flag protocol_flag(AppProtocol& protocol) {
  return choice_flag("--protocol", protocol, all_protocols(), "protocol");
}

Flag profile_flag(ImpairmentProfile& profile) {
  return choice_flag("--profile", profile, all_profiles(), "profile");
}

Flag regime_flag(std::string_view name, GfwRegime& regime) {
  return choice_flag(name, regime,
                     {GfwRegime::kEra2019, GfwRegime::kEraHttpsResync},
                     "GFW regime");
}

/// --strategy DSL | --published N: the one strategy run and rates deploy.
Flags strategy_flags(std::optional<Strategy>& strategy) {
  return {{"--strategy",
           [&strategy](Args& args) {
             strategy = parse_strategy_arg(args.value());
           }},
          {"--published", [&strategy](Args& args) {
             strategy = published_strategy_arg(args.number<int>());
           }}};
}

/// Repeatable --published N: the strategy list sweep and serve take.
Flag published_list_flag(std::vector<int>& published) {
  return {"--published", [&published](Args& args) {
            published.push_back(args.number<int>());
          }};
}

/// --checkpoint-dir, --checkpoint-every and --resume for one job: where its
/// snapshot lives, resuming from the newest valid one, and when it is saved.
class Checkpoints {
 public:
  /// Given the snapshot and the file it came from, restores the job and
  /// returns its progress for the "resumed" line.
  using Restore =
      std::function<std::string(const SnapshotReader&, const std::string&)>;
  using Save = std::function<void(SnapshotWriter&)>;

  /// The snapshot is <dir>/<job>.ckpt, of `kind`; `what` names the job in
  /// the error for a snapshot of another kind.
  Checkpoints(std::string job, std::string_view kind, std::string what)
      : job_(std::move(job)), kind_(kind), what_(std::move(what)) {}
  // Its flag rows and the jobs' checkpoint hooks hold its address.
  Checkpoints(const Checkpoints&) = delete;
  Checkpoints& operator=(const Checkpoints&) = delete;

  Flags flags() {
    return {text_flag("--checkpoint-dir", dir_),
            number_flag("--checkpoint-every", every_),
            switch_flag("--resume", resume_)};
  }

  /// Checks the flags; call it right after they are read.
  void validate() {
    if (every_ == 0) every_ = 1;
    if (resume_ && dir_.empty()) fail("--resume requires --checkpoint-dir");
  }

  /// Creates the checkpoint directory and, under --resume, restores the
  /// newest valid snapshot. Only then opens the output file `out_path`
  /// (when given), so an unwritable path costs seconds rather than a
  /// finished campaign, and a refused checkpoint leaves no output.
  std::optional<std::ofstream> open(const Restore& restore,
                                    const std::string& out_path,
                                    const std::string& out_what) {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(dir_, ec);
      if (ec) {
        fail("cannot create checkpoint dir \"" + dir_ +
             "\": " + ec.message());
      }
      path_ = dir_ + "/" + job_ + ".ckpt";
    }
    // No checkpoint yet means a fresh start: the first crash of a campaign
    // has nothing to resume from.
    if (resume_) {
      if (const auto loaded = load_checkpoint(path_)) {
        const SnapshotReader reader = SnapshotReader::parse(loaded->bytes);
        if (reader.kind() != kind_) {
          fail("\"" + loaded->path + "\" is a " + reader.kind() +
               " snapshot, not a " + what_ + " checkpoint");
        }
        const std::string progress = restore(reader, loaded->path);
        std::printf("resumed   : %s%s (%s)\n", loaded->path.c_str(),
                    loaded->fell_back ? " [fell back to last-good]" : "",
                    progress.c_str());
      }
    }
    std::optional<std::ofstream> out;
    if (!out_path.empty()) {
      out.emplace(out_path);
      if (!*out) {
        fail("cannot write " + out_what + " file \"" + out_path + "\"");
      }
    }
    return out;
  }

  /// Whether `units` completed units end a --checkpoint-every interval.
  [[nodiscard]] bool due(std::size_t units) const {
    return units % every_ == 0;
  }

  /// Where the interval holding unit `done` ends, capped at `total`; all of
  /// `total` when not checkpointing.
  [[nodiscard]] std::size_t interval_end(std::size_t done,
                                         std::size_t total) const {
    return path_.empty() ? total
                         : std::min(total, (done / every_ + 1) * every_);
  }

  /// Writes the snapshot `build` fills; does nothing when not checkpointing.
  void save(const Save& build) const {
    if (path_.empty()) return;
    SnapshotWriter writer;
    build(writer);
    write_checkpoint(path_, writer.encode(kind_));
  }

 private:
  std::string job_;
  std::string_view kind_;
  std::string what_;
  std::string dir_;
  std::size_t every_ = 1;
  bool resume_ = false;
  std::string path_;
};

// ---- Subcommands ------------------------------------------------------------

int cmd_list(Args& args) {
  args.read({});
  std::printf("%-3s %-34s %s\n", "id", "name", "dsl");
  for (const auto& s : published_strategies()) {
    std::printf("%-3d %-34s %s\n", s.id, s.name.c_str(), s.dsl.c_str());
  }
  return 0;
}

int cmd_parse(Args& args) {
  const std::string dsl = args.operand("strategy DSL");
  args.read({});
  try {
    const Strategy s = parse_strategy(dsl);
    std::printf("ok: %s\n", s.to_string().c_str());
    std::printf("size: %zu nodes\n", s.size());
    return 0;
  } catch (const ParseError& e) {
    // Exit 1 is parse's answer ("not a strategy"), not a CLI failure.
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
}

int cmd_library(Args& args) {
  const std::string path = args.operand("library FILE");
  args.read({});
  const StrategyLibrary library = StrategyLibrary::load(path);
  std::printf("%-20s %8s  %-30s %s\n", "name", "success", "notes", "dsl");
  for (const auto& entry : library.entries()) {
    std::printf("%-20s %7.0f%%  %-30s %s\n", entry.name.c_str(),
                entry.success * 100, entry.notes.c_str(), entry.dsl.c_str());
  }
  return 0;
}

int cmd_evolve(Args& args) {
  Country country = Country::kChina;
  AppProtocol protocol = AppProtocol::kHttp;
  GaConfig config;
  config.population_size = 80;
  config.generations = 20;
  config.jobs = ThreadPool::hardware_jobs();
  std::uint64_t seed = 1;
  std::string save_path;
  std::string save_name = "evolved";
  bool robust = false;
  std::string history_out;
  Checkpoints checkpoints("evolve", GeneticAlgorithm::snapshot_kind(), "GA");
  args.read({country_flag(country), protocol_flag(protocol),
             number_flag("--population", config.population_size),
             number_flag("--gens", config.generations),
             number_flag("--seed", seed), text_flag("--save", save_path),
             text_flag("--name", save_name), switch_flag("--robust", robust),
             number_flag("--jobs", config.jobs),
             text_flag("--history-out", history_out)},
            checkpoints.flags());
  checkpoints.validate();

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
                      &std::cout);
  // Elites and re-discovered genomes skip their trial batches entirely.
  auto cache = std::make_shared<FitnessCache>(
      fitness_cache_digest(country, protocol, 20, seed, fitness_profiles));
  ga.set_fitness_cache(cache);

  std::optional<std::ofstream> history_stream = checkpoints.open(
      [&ga](const SnapshotReader& reader, const std::string&) {
        ga.restore_checkpoint(reader);
        return "history through generation " +
               std::to_string(ga.history().empty()
                                  ? 0
                                  : ga.history().back().generation);
      },
      history_out, "history");
  const auto save_ga = [&ga](SnapshotWriter& writer) {
    ga.save_checkpoint(writer);
  };
  ga.set_checkpoint_hook([&](const GeneticAlgorithm&, std::size_t gen) {
    if (checkpoints.due(gen + 1)) checkpoints.save(save_ga);
  });

  const Individual best = ga.run();

  // Final checkpoint so a later --resume replays the finished campaign
  // without re-running anything.
  checkpoints.save(save_ga);
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
  options.jobs = config.jobs;
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

int cmd_replay(Args& args) {
  const std::string path = args.operand("capture FILE");
  Country country = Country::kChina;
  bool lenient = false;
  args.read({country_flag(country), switch_flag("--lenient", lenient)});
  // Load/parse failures propagate to main(): one structured
  // "caya: error: ..." line (with the offset of the first bad record for a
  // damaged capture), exit 2. --lenient instead skips the bad tail.
  const ReplayResult result = replay_pcap_file(path, country, 1, lenient);
  std::printf("capture        : %s\n", path.c_str());
  std::printf("country        : %s\n",
              std::string(to_string(country)).c_str());
  std::printf("packets        : %zu (%zu unparseable)\n", result.packets,
              result.decode.failures());
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

int cmd_fuzz(Args& args) {
  std::vector<Country> countries = all_countries();
  bool censor_given = false;
  FuzzConfig config;
  config.jobs = ThreadPool::hardware_jobs();
  std::string repro;
  args.read({{"--censor",
              [&](Args& a) {
                const std::string value = a.value();
                censor_given = true;
                if (value != "all") {
                  countries = {
                      parse_choice(value, all_countries(), "country")};
                }
              }},
             number_flag("--iters", config.iters),
             number_flag("--seed", config.seed),
             number_flag("--jobs", config.jobs),
             text_flag("--corpus-dir", config.corpus_dir),
             text_flag("--repro", repro)});

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

int cmd_sweep(Args& args) {
  Country country = Country::kChina;
  AppProtocol protocol = AppProtocol::kHttp;
  SweepAxis axis = SweepAxis::kLoss;
  std::vector<int> published;
  RateOptions options;
  options.trials = 50;
  options.base_seed = 1;
  options.jobs = ThreadPool::hardware_jobs();
  SupervisionPolicy& supervision = options.supervision;
  std::string table_out;
  Checkpoints checkpoints("sweep", "sweep-checkpoint", "sweep");
  args.read({country_flag(country), protocol_flag(protocol),
             choice_flag("--axis", axis,
                         {SweepAxis::kLoss, SweepAxis::kBurst,
                          SweepAxis::kReorder},
                         "axis"),
             published_list_flag(published),
             number_flag("--trials", options.trials),
             number_flag("--seed", options.base_seed),
             number_flag("--jobs", options.jobs),
             text_flag("--table-out", table_out),
             number_flag("--inject-soft-fault-every",
                         supervision.inject_soft_fault_every),
             number_flag("--inject-hard-fault-every",
                         supervision.inject_hard_fault_every)},
            checkpoints.flags());
  checkpoints.validate();
  if (published.empty()) published = {1, 2, 6};

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

  // Cells run in row-major order (strategy-major), so a checkpoint after
  // any cell captures a resumable partial table. The config digest ties a
  // snapshot to this exact sweep: resuming under a different
  // axis/seed/strategy set is refused, not silently diverged.
  SnapshotWriter spec;
  spec.put("country", to_string(country));
  spec.put("protocol", to_string(protocol));
  spec.put("axis", to_string(axis));
  spec.put_u64("trials", options.trials);
  spec.put_u64("seed", options.base_seed);
  spec.put_u64("soft", supervision.inject_soft_fault_every);
  spec.put_u64("hard", supervision.inject_hard_fault_every);
  for (const auto& [name, strategy] : strategies) spec.put("strategy", name);
  for (const double value : values) spec.put_double("value", value);
  const std::string sweep_digest = spec.digest("sweep-config");

  std::vector<SweepCurve> curves(strategies.size());
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    curves[s].strategy_name = strategies[s].first;
  }
  const std::size_t total = strategies.size() * values.size();
  std::size_t done = 0;
  const auto add_cell = [&](SweepPoint point) {
    curves[done / values.size()].points.push_back(std::move(point));
    ++done;
  };

  std::optional<std::ofstream> table_stream = checkpoints.open(
      [&](const SnapshotReader& reader, const std::string& path) {
        if (reader.get("config") != sweep_digest) {
          fail("checkpoint \"" + path +
               "\" was taken under a different sweep configuration; "
               "resuming would silently diverge");
        }
        for (const SnapshotReader::Record* rec : reader.all("cell")) {
          if (rec->fields.size() != 9) {
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
          point.quarantined = rec->fields[7] == "1";
          point.quarantine_reason = rec->fields[8];
          add_cell(std::move(point));
        }
        return std::to_string(done) + "/" + std::to_string(total) + " cells";
      },
      table_out, "table");

  const auto save_cells = [&](SnapshotWriter& writer) {
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
  };

  // Each --checkpoint-every interval of cells is measured as one batch and
  // then saved; without checkpoints every cell is one batch.
  while (done < total) {
    const std::size_t end = checkpoints.interval_end(done, total);
    for (SweepPoint& point :
         measure_sweep_cells(country, protocol, strategies, axis, values,
                             options, done, end - done)) {
      add_cell(std::move(point));
    }
    checkpoints.save(save_cells);
  }

  std::printf("%s vs %s/%s, %zu trials per point\n\n",
              std::string(to_string(axis)).c_str(),
              std::string(to_string(country)).c_str(),
              std::string(to_string(protocol)).c_str(), options.trials);
  const std::string table = render_sweep(curves, axis);
  std::printf("%s", table.c_str());
  if (table_stream) *table_stream << table;
  return 0;
}

int cmd_serve(Args& args) {
  ServeConfig config;
  config.flows = 512;
  config.jobs = ThreadPool::hardware_jobs();
  std::string library_path;
  std::vector<int> published;
  bool breaker_seed_set = false;
  std::string report_out;
  bool update_library = false;
  Checkpoints checkpoints("serve", Orchestrator::snapshot_kind(), "serve");
  args.read({country_flag(config.country), protocol_flag(config.protocol),
             text_flag("--library", library_path),
             published_list_flag(published),
             number_flag("--flows", config.flows),
             number_flag("--regime-flip-at", config.regime_flip_at),
             regime_flag("--regime-before", config.regime_before),
             regime_flag("--regime-after", config.regime_after),
             {"--seed",
              [&](Args& a) {
                config.base_seed = a.number();
                if (!breaker_seed_set) config.breaker_seed = config.base_seed;
              }},
             {"--breaker-seed",
              [&](Args& a) {
                config.breaker_seed = a.number();
                breaker_seed_set = true;
              }},
             number_flag("--jobs", config.jobs),
             number_flag("--chunk", config.chunk),
             text_flag("--report-out", report_out),
             switch_flag("--update-library", update_library)},
            checkpoints.flags());
  checkpoints.validate();
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
    library = StrategyLibrary::load(library_path);
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
  std::optional<std::ofstream> report_stream = checkpoints.open(
      [&](const SnapshotReader& reader, const std::string&) {
        orch.restore_checkpoint(reader);
        return std::to_string(orch.report().flows) + "/" +
               std::to_string(config.flows) + " flows";
      },
      report_out, "report");
  orch.set_checkpoint_hook(
      [&checkpoints, chunks = std::size_t{0}](
          const Orchestrator& o, std::size_t flows_done) mutable {
        if (checkpoints.due(++chunks) || flows_done == o.config().flows) {
          checkpoints.save(
              [&o](SnapshotWriter& writer) { o.save_checkpoint(writer); });
        }
      });

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
      library.save(library_path);
      std::printf("library   : refreshed success rates in %s\n",
                  library_path.c_str());
    }
  }
  return 0;
}

int cmd_rates(Args& args) {
  Country country = Country::kChina;
  std::optional<Strategy> strategy;
  RateOptions options;
  options.trials = 100;
  options.base_seed = 1;
  options.jobs = ThreadPool::hardware_jobs();
  args.read({country_flag(country), number_flag("--trials", options.trials),
             number_flag("--seed", options.base_seed),
             profile_flag(options.profile),
             number_flag("--jobs", options.jobs)},
            strategy_flags(strategy));

  std::printf("strategy  : %s\n",
              strategy ? strategy->to_string().c_str() : "(no evasion)");
  std::printf("country   : %s, %zu trials per protocol\n",
              std::string(to_string(country)).c_str(), options.trials);
  std::printf("%-8s %10s %8s %17s\n", "protocol", "success", "rate",
              "95% CI");
  for (const AppProtocol protocol : all_protocols()) {
    const RateCounter rate = measure_rate(country, protocol, strategy,
                                          options);
    const auto interval = rate.wilson();
    std::printf("%-8s %6zu/%-3zu %7.1f%% %7.1f%% - %5.1f%%\n",
                std::string(to_string(protocol)).c_str(), rate.successes(),
                rate.trials(), rate.rate() * 100, interval.lo * 100,
                interval.hi * 100);
    // Disjoint seed blocks per protocol, matching bench_table2's layout.
    options.base_seed += 1000;
  }
  return 0;
}

int cmd_run(Args& args) {
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
  args.read({country_flag(country), protocol_flag(protocol),
             text_flag("--from", from_path), text_flag("--name", from_name),
             switch_flag("--client-side", client_side),
             number_flag("--trials", trials), number_flag("--seed", seed),
             {"--os", [&os](Args& a) { os = parse_os(a.value()); }},
             switch_flag("--waterfall", waterfall),
             switch_flag("--stages", stages), text_flag("--pcap", pcap_path),
             profile_flag(profile), number_flag("--jobs", jobs)},
            strategy_flags(strategy));

  if (!from_path.empty()) {
    const StrategyLibrary library = StrategyLibrary::load(from_path);
    const LibraryEntry* entry = library.find(from_name);
    if (entry == nullptr) {
      fail("no entry \"" + from_name + "\" in " + from_path);
    }
    strategy = parse_strategy_arg(entry->dsl);
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

int run_command(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  static constexpr std::pair<std::string_view, int (*)(Args&)> kCommands[] = {
      {"list", cmd_list},     {"parse", cmd_parse},   {"run", cmd_run},
      {"library", cmd_library}, {"evolve", cmd_evolve}, {"rates", cmd_rates},
      {"sweep", cmd_sweep},   {"serve", cmd_serve},   {"replay", cmd_replay},
      {"fuzz", cmd_fuzz}};
  Args args(argc - 2, argv + 2);
  std::string available;
  for (const auto& [name, command] : kCommands) {
    if (name == argv[1]) return command(args);
    available += ' ';
    available += name;
  }
  fail("unknown command \"" + std::string(argv[1]) + "\" (available:" +
       available + ")");
}

}  // namespace
}  // namespace caya

int main(int argc, char** argv) {
  try {
    return caya::run_command(argc, argv);
  } catch (const std::exception& e) {
    // One structured line, exit 2 — scripts driving long campaigns get a
    // parseable failure instead of a bare terminate.
    std::fprintf(stderr, "caya: error: %s\n", e.what());
    return 2;
  }
}
