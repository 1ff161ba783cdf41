#include "fuzz/fuzzer.h"

#include "eval/parallel.h"
#include "fuzz/corpus.h"
#include "util/rng.h"

namespace caya {

namespace {

struct IterationResult {
  MutationKind kind = MutationKind::kBitFlip;
  OracleOutcome outcome;
  std::vector<PcapRecord> hostile;  // kept only for findings (corpus dump)
};

}  // namespace

std::uint64_t fuzz_iteration_seed(std::uint64_t seed,
                                  std::size_t iter) noexcept {
  // Two splitmix64 steps decorrelate consecutive iteration indices into
  // independent seed points, so neighbouring streams are obviously unrelated.
  std::uint64_t index_state = static_cast<std::uint64_t>(iter) + 1;
  std::uint64_t seed_state = seed ^ splitmix64(index_state);
  return splitmix64(seed_state);
}

FuzzReport run_fuzz(const FuzzConfig& config) {
  FuzzReport report;
  report.country = config.country;
  report.seed = config.seed;
  report.iters = config.iters;

  const ParallelEvaluator evaluator(config.jobs);
  std::vector<IterationResult> results = evaluator.map_batched(
      config.iters, [](std::size_t) { return 0; },
      [&](std::size_t i) {
        const std::uint64_t iter_seed =
            fuzz_iteration_seed(config.seed, i);
        Rng rng(iter_seed);
        IterationResult result;
        HostileStream stream =
            generate_hostile_stream(config.country, rng);
        result.kind = stream.kind;
        result.outcome =
            run_oracle(config.country, iter_seed, stream.records);
        if (!result.outcome.clean()) {
          result.hostile = std::move(stream.records);
        }
        return result;
      });

  // Canonical-order reduction: same merge for any jobs value; corpus
  // entries are dumped here (serially, in index order), never from workers.
  for (std::size_t i = 0; i < results.size(); ++i) {
    IterationResult& result = results[i];
    ++report.kind_counts[static_cast<std::size_t>(result.kind)];
    report.records += result.outcome.records;
    report.censor_events += result.outcome.censor_events;
    report.injected += result.outcome.injected;
    report.decode.merge(result.outcome.decode);
    report.state.evicted_flows += result.outcome.state.evicted_flows;
    report.state.dropped_segments += result.outcome.state.dropped_segments;
    if (result.outcome.clean()) continue;

    FuzzFinding finding;
    finding.iter = i;
    finding.kind = result.kind;
    finding.crashed = result.outcome.crashed;
    finding.fail_closed = result.outcome.fail_closed;
    finding.crash_what = result.outcome.crash_what;
    if (result.outcome.crashed) ++report.crashes;
    if (result.outcome.fail_closed) ++report.fail_closed;
    if (!config.corpus_dir.empty()) {
      finding.corpus_path = dump_corpus_entry(
          config.corpus_dir, config.country, config.seed, i, result.hostile);
    }
    report.findings.push_back(std::move(finding));
  }
  return report;
}

}  // namespace caya
