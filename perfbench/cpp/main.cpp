// perfbench: the layered caya benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//   perfbench --list-metrics
//
// An untraced run (--trace 0) measures the end-to-end metrics; a traced run
// (--trace 1) of the same workload and seed measures the per-layer metrics
// and the cost of tracing. Either run checks the workload's outputs, prints
// a human-readable report, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed and no operation failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "catalog.h"
#include "eval/env_pool.h"
#include "layers.h"
#include "spans.h"
#include "stats.h"
#include "util/arena.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// setup() calls per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 21;
/// Warm-up before anything is timed: at least one round and this long.
constexpr double kWarmupSeconds = 1.0;
/// Timed rounds per run, whatever --seconds says.
constexpr std::size_t kMinRounds = 3;
/// Shares of --seconds the traced run spends on timed rounds and on the
/// per-layer probes.
constexpr double kTracedRoundShare = 0.45;
constexpr double kLayerShare = 0.45;
constexpr std::size_t kSpanCapacity = 100'000;
/// Latency samples kept per run (1 MiB); past it, a uniform reservoir.
constexpr std::size_t kLatencyCapacity = 1 << 18;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  bool list_metrics = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH]\n"
               "       perfbench --list-metrics\n"
               "workloads:",
               why.c_str());
  for (const std::string_view name : workload_names()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    usage(flag + " needs a whole number, got \"" + text + "\"");
  }
  return v;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      opt.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_number(arg, value);
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(parse_number(arg, value));
      if (opt.seconds < 1) usage("--seconds must be at least 1");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--spans-out") {
      opt.spans_out = value;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (!opt.list_metrics && !have_workload) usage("--workload is required");
  return opt;
}

/// The resident high-water mark of this program image (VmHWM). Not
/// getrusage's ru_maxrss: Linux carries that across execve, so a child of a
/// larger launcher would report the launcher's peak. 0 when unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double throughput(const RoundStats& r) {
  return r.seconds > 0 ? static_cast<double>(r.trials) / r.seconds : 0.0;
}

template <typename Fn>
std::vector<double> collect(const std::vector<RoundStats>& rounds, Fn&& fn) {
  std::vector<double> out;
  out.reserve(rounds.size());
  for (const RoundStats& r : rounds) out.push_back(fn(r));
  return out;
}

class Runner {
 public:
  Runner(const Options& opt, Workload& workload)
      : opt_(opt), workload_(workload) {}

  int run() {
    setup();
    warm_up();
    if (opt_.trace) {
      traced_rounds();
    } else {
      untraced_rounds();
    }
    check_outputs();
    MetricValues values;
    if (opt_.trace) {
      layer_metrics(values);
    } else {
      end_to_end_metrics(values);
    }
    return report(values);
  }

 private:
  void setup() {
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
      caya::EnvironmentPool::local().clear();  // every call starts cold
      const std::int64_t t0 = now_ns();
      workload_.setup();
      setup_s_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }

  void warm_up() {
    const std::int64_t start = now_ns();
    Latencies discard(0);
    do {
      (void)workload_.round(workload_.jobs(), nullptr, discard);
      ++warmup_rounds_;
    } while (static_cast<double>(now_ns() - start) * 1e-9 < kWarmupSeconds);
  }

  void one_round(SpanLog* spans, std::vector<RoundStats>& into) {
    const bool pooled = workload_.jobs() > 1;
    const std::uint64_t steals0 =
        pooled ? caya::ThreadPool::shared().steals() : 0;
    RoundStats r = workload_.round(workload_.jobs(), spans, op_us_);
    if (pooled) r.steals = caya::ThreadPool::shared().steals() - steals0;
    if (!untraced_.empty()) {
      // Every round of one seed reproduces the first round's outputs, and a
      // traced trial equals the timed trial at the same index. Only the
      // first round keeps its per-trial results, so memory does not grow
      // with the number of rounds.
      const RoundStats& first = untraced_.front();
      if (r.fingerprint != first.fingerprint) ++rounds_differ_;
      if (!r.results.empty() && r.results != first.results) {
        ++trials_differ_;
      }
      r.results = std::vector<TrialDigest>();
      r.fingerprint = std::string();
    }
    into.push_back(std::move(r));
  }

  void untraced_rounds() {
    const std::int64_t start = now_ns();
    while (untraced_.size() < kMinRounds ||
           static_cast<double>(now_ns() - start) * 1e-9 < opt_.seconds) {
      one_round(nullptr, untraced_);
    }
  }

  /// Untraced and traced rounds alternate, so both see the same machine;
  /// the first traced round runs untimed to build the probe's substrates.
  void traced_rounds() {
    Latencies discard(0);
    (void)workload_.round(workload_.jobs(), &spans_warmup_, discard);
    const std::int64_t start = now_ns();
    const double budget = opt_.seconds * kTracedRoundShare;
    while (untraced_.size() < 2 || traced_.size() < 2 ||
           static_cast<double>(now_ns() - start) * 1e-9 < budget) {
      one_round(nullptr, untraced_);
      one_round(&spans_, traced_);
    }
  }

  void check_outputs() {
    checker_.expect(rounds_differ_ == 0,
                    "every round reproduces the first round's outputs (" +
                        std::to_string(rounds_differ_) + " differ)");
    checker_.expect(trials_differ_ == 0,
                    "traced trials equal the timed trials at the same index (" +
                        std::to_string(trials_differ_) + " rounds differ)");
    const RoundStats& first = untraced_.front();

    // The workload's own checks, which run its jobs-1 reference pass: the
    // substrate and arena counters are read around it.
    const std::uint64_t constructed0 = caya::EnvironmentPool::constructed();
    const std::uint64_t reused0 = caya::EnvironmentPool::reused();
    const caya::BufferArena::Stats arena0 = caya::BufferArena::global_stats();
    const std::int64_t t0 = now_ns();
    reference_trials_ = workload_.check(first, checker_);
    reference_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
    const caya::BufferArena::Stats arena1 = caya::BufferArena::global_stats();
    constructions_ = caya::EnvironmentPool::constructed() - constructed0;
    reuses_ = caya::EnvironmentPool::reused() - reused0;
    arena_acquires_ = arena1.acquires - arena0.acquires;
    arena_reuses_ = arena1.reuses - arena0.reuses;
  }

  void end_to_end_metrics(MetricValues& values) {
    values["peak_rss_mb"] = peak_rss_mb();
    values["trials_per_s"] = median(collect(untraced_, throughput));
    values["op_us_p50"] = percentile(op_us_.samples(), 50.0);
    values["setup_s"] = median(setup_s_);
  }

  void layer_metrics(MetricValues& values) {
    measure_layers(workload_.layer_specs(), workload_.strategy_texts(),
                   opt_.seconds * kLayerShare, &spans_, checker_, values);
    const auto per_trial = [&](std::uint64_t count) {
      return reference_trials_ == 0
                 ? 0.0
                 : static_cast<double>(count) /
                       static_cast<double>(reference_trials_);
    };
    values["eval.constructions_per_trial"] = per_trial(constructions_);
    values["eval.reuses_per_trial"] = per_trial(reuses_);
    values["util.arena_reuse_frac"] =
        arena_acquires_ == 0 ? 0.0
                             : static_cast<double>(arena_reuses_) /
                                   static_cast<double>(arena_acquires_);
    values["util.pool_steals"] = median(collect(
        untraced_, [](const RoundStats& r) {
          return static_cast<double>(r.steals);
        }));
    values["trace.overhead_frac"] =
        1.0 - median(collect(traced_, throughput)) /
                  median(collect(untraced_, throughput));

    TraceContext context;
    context.untraced_round_s =
        median(collect(untraced_, [](const RoundStats& r) {
          return r.seconds;
        }));
    context.reference_round_s = reference_s_;
    workload_.trace_metrics(context, values, checker_);

    std::printf("self time by span (traced rounds and layer probes):\n");
    std::printf("  %-12s %10s %14s %14s\n", "span", "count", "total_ms",
                "self_ms");
    for (const SelfTime& s : self_times(spans_.snapshot())) {
      std::printf("  %-12s %10zu %14.3f %14.3f\n", s.name.c_str(), s.count,
                  s.total_ns / 1e6, s.self_ns / 1e6);
    }
    if (spans_.dropped() != 0) {
      std::printf("  (%zu spans past the in-memory cap were not kept; spans "
                  "that lost a child are left out above)\n",
                  spans_.dropped());
    }
    if (!opt_.spans_out.empty()) {
      checker_.expect(spans_.write_tsv(opt_.spans_out),
                      "spans written to " + opt_.spans_out);
    }
  }

  int report(MetricValues& values) {
    // Every metric of this run's kind, in catalog order; a metric the
    // workload never exercises reads 0.
    std::string metrics;
    std::string table;
    std::string not_exercised;
    for (const MetricInfo& m : catalog()) {
      if (m.end_to_end == opt_.trace) continue;
      double value = 0.0;
      if (const auto it = values.find(m.name); it != values.end()) {
        value = it->second;
        values.erase(it);
      } else {
        not_exercised.append(" ").append(m.name);
      }
      if (!std::isfinite(value)) {
        checker_.expect(false, std::string(m.name) + " is a finite number");
        value = 0.0;
      }
      const std::string name(m.name);
      const std::string unit(m.unit);
      char line[160];
      std::snprintf(line, sizeof(line), "  %-34s %20.6f %s%s\n", name.c_str(),
                    value, unit.c_str(), m.exact ? "  (exact)" : "");
      table += line;
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", value);
      if (!metrics.empty()) metrics += ", ";
      metrics += '"' + name + "\": {\"value\": " + num + ", \"unit\": \"" +
                 unit + "\"}";
    }
    for (const auto& entry : values) {
      checker_.expect(false, std::string("metric ").append(entry.first) +
                                 " is in the catalog");
    }

    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (const auto* rounds : {&untraced_, &traced_}) {
      for (const RoundStats& r : *rounds) {
        attempted += r.attempted;
        failed += r.failed;
      }
    }
    failed += checker_.failures();

    std::printf("workload  %s  seed %llu  jobs %zu  %s\n",
                opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed), workload_.jobs(),
                opt_.trace ? "traced" : "untraced");
    std::printf("rounds    %zu untraced, %zu traced, after %zu warm-up\n",
                untraced_.size(), traced_.size(), warmup_rounds_);
    std::printf("checks    %zu run, %zu failed\n", checker_.checks(),
                checker_.failures());
    std::printf("failed_frac %.6g (%zu of %zu operations)\n",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted),
                failed, attempted);
    if (!opt_.trace) {
      const Quartiles per_round = quartiles(collect(untraced_, throughput));
      std::printf("round trials/s quartiles %.6g %.6g %.6g (IQR %.2f%% of "
                  "the median)\n",
                  per_round.q1, per_round.q2, per_round.q3,
                  per_round.q2 == 0 ? 0.0
                                    : 100.0 * (per_round.q3 - per_round.q1) /
                                          per_round.q2);
      // The tail is reported, not gated: on a shared machine it swings
      // with every stall of another tenant.
      const std::vector<double> kept = op_us_.samples();
      const double tail = tail_percentile(kept.size());
      std::printf("op_us     %zu operations, %zu samples kept; p99 = %.3f us; "
                  "highest percentile with >=10 samples beyond it: p%g = "
                  "%.3f us\n",
                  op_us_.seen(), kept.size(), percentile(kept, 99.0), tail,
                  percentile(kept, tail));
      const double units_per_s = median(collect(
          untraced_, [](const RoundStats& r) {
            return r.seconds > 0 ? static_cast<double>(r.units) / r.seconds
                                 : 0.0;
          }));
      if (opt_.workload == "evolve_china_http") {
        std::printf("generations_per_s %.6g gen/s\n", units_per_s);
      } else if (opt_.workload == "serve_drift") {
        std::printf("flows_per_s %.6g flows/s\n", units_per_s);
      }
    }
    std::printf("%s", table.c_str());
    if (!not_exercised.empty()) {
      std::printf("not exercised by this workload (reported as 0):%s\n",
                  not_exercised.c_str());
    }
    const bool correct = checker_.failures() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.c_str());
    std::fflush(stdout);
    return correct && failed == 0 ? 0 : 1;
  }

  const Options& opt_;
  Workload& workload_;
  Checker checker_;
  std::vector<double> setup_s_;
  std::size_t warmup_rounds_ = 0;
  std::vector<RoundStats> untraced_;
  std::vector<RoundStats> traced_;
  std::size_t rounds_differ_ = 0;
  std::size_t trials_differ_ = 0;
  Latencies op_us_{kLatencyCapacity};
  SpanLog spans_{kSpanCapacity};
  SpanLog spans_warmup_{0};  // the untimed traced round keeps nothing
  std::size_t reference_trials_ = 0;
  double reference_s_ = 0.0;
  std::uint64_t constructions_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t arena_acquires_ = 0;
  std::uint64_t arena_reuses_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse_options(argc, argv);
  if (opt.list_metrics) {
    for (const MetricInfo& m : catalog()) {
      std::printf("%.*s\t%.*s\t%s\t%s\n", static_cast<int>(m.name.size()),
                  m.name.data(), static_cast<int>(m.unit.size()),
                  m.unit.data(), m.end_to_end ? "end_to_end" : "per_layer",
                  m.exact ? "exact" : "timed");
    }
    return 0;
  }
  const std::unique_ptr<Workload> workload =
      make_workload(opt.workload, opt.seed);
  if (!workload) usage("unknown workload \"" + opt.workload + "\"");
  return Runner(opt, *workload).run();
}
