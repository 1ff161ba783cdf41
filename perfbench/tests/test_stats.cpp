// Tests for the benchmark's own statistics and metric catalog.
//
//   perfbench_tests      # exits nonzero and names each failed expectation
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "catalog.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-9 * (1.0 + std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void test_median() {
  using perfbench::median;
  expect_near(median({}), 0.0, "median of nothing");
  expect_near(median({4.0}), 4.0, "median of one");
  expect_near(median({3, 1, 2}), 2.0, "odd median");
  expect_near(median({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5, "even median");
  expect_near(median({7, 7, 7, 7, 7, 1000}), 7.0, "median ignores outlier");
}

void test_percentile() {
  using perfbench::percentile;
  const std::vector<double> xs = {10, 20, 30, 40, 50};
  expect_near(percentile(xs, 0), 10, "p0 is the minimum");
  expect_near(percentile(xs, 100), 50, "p100 is the maximum");
  expect_near(percentile(xs, 25), 20, "p25 on a rank");
  expect_near(percentile(xs, 90), 46, "p90 interpolates");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect_near(percentile(hundred, 99), 99.01, "p99 of 1..100");
}

void test_quartiles() {
  // Reference values from Python: statistics.quantiles(data, n=4).
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const Case cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{5.5, 1.25}, 0.1875, 3.375, 6.5625},
      {{10, 20, 30, 40}, 12.5, 25.0, 37.5},
      {{7, 7, 7, 7, 7, 1000}, 7.0, 7.0, 255.25},
  };
  for (const Case& c : cases) {
    const perfbench::Quartiles q = perfbench::quartiles(c.data);
    const std::string name = "quartiles of " + std::to_string(c.data.size());
    expect_near(q.q1, c.q1, name + " q1");
    expect_near(q.q2, c.q2, name + " q2");
    expect_near(q.q3, c.q3, name + " q3");
  }
  expect_near(perfbench::iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
              (8.25 - 2.75) / 5.5, "iqr share");
}

void test_tail_rule() {
  // The highest percentile with at least ten samples beyond it.
  using perfbench::tail_percentile;
  expect_near(tail_percentile(0), 0, "no samples: no percentile");
  expect_near(tail_percentile(19), 0, "19 samples: 9 beyond the median");
  expect_near(tail_percentile(20), 50, "20 samples: the median");
  expect_near(tail_percentile(99), 50, "99 samples: 9.9 beyond p90");
  expect_near(tail_percentile(100), 90, "100 samples: p90");
  expect_near(tail_percentile(999), 90, "999 samples: 9.99 beyond p99");
  expect_near(tail_percentile(1000), 99, "1000 samples: p99");
  expect_near(tail_percentile(10'000), 99.9, "10k samples: p99.9");
  expect_near(tail_percentile(250'000), 99.99, "250k samples: p99.99");
}

void test_latencies() {
  perfbench::Latencies few(4);
  for (int i = 1; i <= 3; ++i) few.add(i);
  expect(few.seen() == 3 && few.samples() == std::vector<double>{1, 2, 3},
         "below capacity every sample is kept in order");

  // Past capacity: a fixed-size uniform sample, the same for equal input.
  perfbench::Latencies a(100);
  perfbench::Latencies b(100);
  for (int i = 0; i < 100'000; ++i) {
    a.add(i);
    b.add(i);
  }
  expect(a.seen() == 100'000, "every sample is counted");
  expect(a.samples().size() == 100, "memory stays at capacity");
  expect(a.samples() == b.samples(), "equal input keeps equal samples");
  const double mid = perfbench::median(a.samples());
  expect(mid > 30'000 && mid < 70'000, "the reservoir is spread uniformly");

  perfbench::Latencies none(0);
  none.add(1.0);
  expect(none.seen() == 1 && none.samples().empty(), "capacity 0 keeps none");
}

void test_self_time() {
  using perfbench::Span;
  // A root [0, 100) with two overlapping children [10, 40) and [30, 60)
  // and one child [90, 120) that runs past the root's end.
  const std::vector<Span> spans = {
      {"root", perfbench::SpanLog::kNone, 0, 0, 100},
      {"child", 0, 1, 10, 40},
      {"child", 0, 2, 30, 60},
      {"child", 0, 3, 90, 120},
  };
  for (const perfbench::SelfTime& s : perfbench::self_times(spans)) {
    if (s.name == "root") {
      expect_near(s.total_ns, 100, "root total");
      expect_near(s.self_ns, 100 - 50 - 10,
                  "root self time excludes its merged children");
    } else {
      expect(s.count == 3, "three child spans");
      expect_near(s.self_ns, 30 + 30 + 30, "leaf self time is its duration");
    }
  }

  // A parent that lost a child at the capacity is left out.
  perfbench::SpanLog log(2);
  const std::uint32_t root =
      log.add("root", perfbench::SpanLog::kNone, 0, 0, 100);
  log.add("child", root, 1, 10, 20);
  log.add("child", root, 2, 30, 40);
  expect(log.dropped() == 1, "the span past the capacity is dropped");
  const std::vector<perfbench::SelfTime> kept =
      perfbench::self_times(log.snapshot());
  expect(kept.size() == 1 && kept[0].name == "child",
         "a truncated parent is left out of self time");
}

void test_catalog() {
  // Every metric perfbench/README.md documents, with its unit; BENCHMARK.json
  // and the README are checked against the same catalog by
  // tests/test_catalog.py.
  std::set<std::string> names;
  for (const perfbench::MetricInfo& m : perfbench::catalog()) {
    expect(names.insert(std::string(m.name)).second,
           "metric listed once: " + std::string(m.name));
    expect(!m.unit.empty(), "metric has a unit: " + std::string(m.name));
  }
  const char* required[] = {
      "trials_per_s", "setup_s", "peak_rss_mb", "op_us_p50",
      "eval.reset_us", "eval.connection_us_p50", "eval.connection_us_p99",
      "eval.digest_ns", "eval.allocs_per_trial", "eval.reset_allocs",
      "eval.connection_allocs", "eval.alloc_bytes_per_trial",
      "eval.constructions_per_trial", "eval.reuses_per_trial",
      "eval.timeout_frac", "eval.retries_per_trial", "apps.dns.connection_us",
      "apps.ftp.connection_us", "apps.http.connection_us",
      "apps.https.connection_us", "apps.smtp.connection_us",
      "tcpstack.bare_exchange_us", "netsim.packets_per_trial",
      "netsim.delivered_per_trial", "netsim.dropped_per_trial",
      "netsim.sim_ms_per_trial", "netsim.ns_per_packet",
      "netsim.lost_per_trial", "netsim.reordered_per_trial",
      "netsim.duplicated_per_trial", "censor.china.dns.ns_per_pkt",
      "censor.china.ftp.ns_per_pkt", "censor.china.http.ns_per_pkt",
      "censor.china.https.ns_per_pkt", "censor.china.smtp.ns_per_pkt",
      "censor.india.ns_per_pkt", "censor.iran.ns_per_pkt",
      "censor.kazakhstan.ns_per_pkt", "censor.turkmenistan.ns_per_pkt",
      "censor.china.reset_us", "censor.india.reset_us", "censor.iran.reset_us",
      "censor.kazakhstan.reset_us", "censor.turkmenistan.reset_us",
      "censor.pkts_per_trial", "censor.events_per_trial", "censor.tcb_total",
      "censor.evicted_flows", "packet.serialize_ns", "packet.parse_ns",
      "packet.checksum_ns", "packet.allocs_per_op", "util.arena_reuse_frac",
      "util.rng_fork_ns", "util.pool_steals", "util.parallel_eff",
      "geneva.engine_ns_per_pkt", "geneva.amplification",
      "geneva.ga_self_frac", "geneva.fitness_ms_p50", "geneva.fitness_ms_p99",
      "geneva.cache_hit_frac", "geneva.evaluations", "geneva.parse_ns",
      "serve.chunk_ms_p50", "serve.chunk_ms_p99", "serve.waste_frac",
      "serve.mispredictions", "serve.overhead_frac", "trace.overhead_frac",
  };
  for (const char* name : required) {
    expect(names.count(name) == 1, std::string("catalog has ") + name);
  }
}

}  // namespace

int main() {
  test_median();
  test_percentile();
  test_quartiles();
  test_tail_rule();
  test_latencies();
  test_self_time();
  test_catalog();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
