#include "catalog.h"

namespace perfbench {

const std::vector<MetricInfo>& catalog() {
  constexpr bool kE2e = true;
  constexpr bool kLayer = false;
  constexpr bool kExact = true;
  constexpr bool kTimed = false;
  static const std::vector<MetricInfo> metrics = {
      // ---- end to end (untraced run) ----
      {"trials_per_s", "trials/s", kE2e, kTimed},
      {"op_us_p50", "us", kE2e, kTimed},
      {"setup_s", "s", kE2e, kTimed},
      {"peak_rss_mb", "MB", kE2e, kTimed},

      // ---- eval ----
      {"eval.reset_us", "us", kLayer, kTimed},
      {"eval.connection_us_p50", "us", kLayer, kTimed},
      {"eval.connection_us_p99", "us", kLayer, kTimed},
      {"eval.digest_ns", "ns", kLayer, kTimed},
      {"eval.allocs_per_trial", "count", kLayer, kExact},
      {"eval.reset_allocs", "count", kLayer, kExact},
      {"eval.connection_allocs", "count", kLayer, kExact},
      {"eval.alloc_bytes_per_trial", "B", kLayer, kExact},
      {"eval.constructions_per_trial", "count", kLayer, kExact},
      {"eval.reuses_per_trial", "count", kLayer, kExact},
      {"eval.timeout_frac", "ratio", kLayer, kExact},
      {"eval.retries_per_trial", "count", kLayer, kExact},

      // ---- apps ----
      {"apps.dns.connection_us", "us", kLayer, kTimed},
      {"apps.ftp.connection_us", "us", kLayer, kTimed},
      {"apps.http.connection_us", "us", kLayer, kTimed},
      {"apps.https.connection_us", "us", kLayer, kTimed},
      {"apps.smtp.connection_us", "us", kLayer, kTimed},

      // ---- tcpstack ----
      {"tcpstack.bare_exchange_us", "us", kLayer, kTimed},

      // ---- netsim ----
      {"netsim.packets_per_trial", "count", kLayer, kExact},
      {"netsim.delivered_per_trial", "count", kLayer, kExact},
      {"netsim.dropped_per_trial", "count", kLayer, kExact},
      {"netsim.sim_ms_per_trial", "ms", kLayer, kExact},
      {"netsim.ns_per_packet", "ns", kLayer, kTimed},
      {"netsim.lost_per_trial", "count", kLayer, kExact},
      {"netsim.reordered_per_trial", "count", kLayer, kExact},
      {"netsim.duplicated_per_trial", "count", kLayer, kExact},

      // ---- censor ----
      {"censor.china.dns.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.china.ftp.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.china.http.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.china.https.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.china.smtp.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.india.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.iran.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.kazakhstan.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.turkmenistan.ns_per_pkt", "ns", kLayer, kTimed},
      {"censor.china.reset_us", "us", kLayer, kTimed},
      {"censor.india.reset_us", "us", kLayer, kTimed},
      {"censor.iran.reset_us", "us", kLayer, kTimed},
      {"censor.kazakhstan.reset_us", "us", kLayer, kTimed},
      {"censor.turkmenistan.reset_us", "us", kLayer, kTimed},
      {"censor.pkts_per_trial", "count", kLayer, kExact},
      {"censor.events_per_trial", "count", kLayer, kExact},
      {"censor.tcb_total", "count", kLayer, kExact},
      {"censor.evicted_flows", "count", kLayer, kExact},

      // ---- packet ----
      {"packet.serialize_ns", "ns", kLayer, kTimed},
      {"packet.parse_ns", "ns", kLayer, kTimed},
      {"packet.checksum_ns", "ns", kLayer, kTimed},
      {"packet.allocs_per_op", "count", kLayer, kExact},

      // ---- util ----
      {"util.arena_reuse_frac", "ratio", kLayer, kExact},
      {"util.rng_fork_ns", "ns", kLayer, kTimed},
      {"util.pool_steals", "count", kLayer, kTimed},
      {"util.parallel_eff", "ratio", kLayer, kTimed},

      // ---- geneva ----
      {"geneva.engine_ns_per_pkt", "ns", kLayer, kTimed},
      {"geneva.amplification", "ratio", kLayer, kExact},
      {"geneva.ga_self_frac", "ratio", kLayer, kTimed},
      {"geneva.fitness_ms_p50", "ms", kLayer, kTimed},
      {"geneva.fitness_ms_p99", "ms", kLayer, kTimed},
      {"geneva.cache_hit_frac", "ratio", kLayer, kExact},
      {"geneva.evaluations", "count", kLayer, kExact},
      {"geneva.parse_ns", "ns", kLayer, kTimed},

      // ---- serve ----
      {"serve.chunk_ms_p50", "ms", kLayer, kTimed},
      {"serve.chunk_ms_p99", "ms", kLayer, kTimed},
      {"serve.waste_frac", "ratio", kLayer, kExact},
      {"serve.mispredictions", "count", kLayer, kExact},
      {"serve.overhead_frac", "ratio", kLayer, kTimed},

      // ---- the tracing itself ----
      {"trace.overhead_frac", "ratio", kLayer, kTimed},
  };
  return metrics;
}

}  // namespace perfbench
