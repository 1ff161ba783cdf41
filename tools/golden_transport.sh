#!/usr/bin/env bash
# Golden-equivalence harness for transport refactors.
#
# Runs `caya run` for the published strategy set across all five censors,
# md5s the full report output (waterfall + censor stages) and the censor-view
# pcap bytes, and also asserts --jobs invariance (--jobs 1 vs --jobs 4 must
# print byte-identical reports). It also md5s short `caya evolve` campaigns
# (report + per-generation history): evolution is the one workload that
# drives every tamper field and corrupt draw the GA can reach. It md5s the
# stdout and report of `caya serve` on a three-tier chain through a regime
# flip, the stdout of `caya fuzz` across every censor, and the stdout of
# one client-side `caya run`, one `caya rates` and one faulted `caya sweep`.
# Last, it md5s the stdout of the bench programs that regenerate the paper's
# tables and figures, at their built-in trial counts and seeds. A checked-in
# manifest captured on a known-good commit lets CI prove a packet-path change
# didn't alter wire behavior or a paper number.
#
# Usage:
#   tools/golden_transport.sh capture [manifest]   # write manifest
#   tools/golden_transport.sh check   [manifest]   # re-run, diff manifest
#
# Env: CAYA (default build/tools/caya), CAYA_GOLDEN_TRIALS (default 20).
# The bench programs are taken from the same build tree as CAYA.
set -euo pipefail

mode="${1:-check}"
manifest="${2:-$(dirname "$0")/golden_transport.md5}"
caya="${CAYA:-build/tools/caya}"
trials="${CAYA_GOLDEN_TRIALS:-20}"

if [[ "$mode" != "capture" && "$mode" != "check" ]]; then
  echo "usage: $0 capture|check [manifest]" >&2
  exit 2
fi
if [[ ! -x "$caya" ]]; then
  echo "error: caya binary not found at '$caya' (set CAYA=...)" >&2
  exit 2
fi
bench_dir="$(dirname "$(dirname "$caya")")/bench"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

countries=(china india iran kazakhstan turkmenistan)
# Duplicate, tamper-corrupt, and fragment coverage from Table 2; every action
# kind the transport moves.
published=(1 2 5 6 8)
# country:protocol pairs evolved under seeds 1 and 7.
evolved=(china:http china:dns china:ftp china:smtp china:https
         kazakhstan:http iran:https)
# Every bench program except bench_checkpoint, bench_hostile_ingress and
# bench_sec8_overhead, which print wall-clock timings.
benches=(bench_ablation_sweeps bench_clientside_baseline
         bench_fig1_waterfalls_china bench_fig2_waterfalls_kazakhstan
         bench_fig3_multibox bench_ga_discovery bench_robustness_sweeps
         bench_sec3_clientside_generalization bench_sec4_dns_retries
         bench_sec4_residual bench_sec5_kazakh_ablations
         bench_sec5_resync_model bench_sec7_client_compat
         bench_table1_vantage bench_table2_success_rates)

run_case() {
  local country="$1" id="$2" out="$3" pcap="$4" jobs="$5"
  "$caya" run --country "$country" --protocol http --published "$id" \
    --trials "$trials" --seed 42 --jobs "$jobs" \
    --waterfall --stages --pcap "$pcap" > "$out"
  # The report echoes the pcap path; normalize it so the md5 only covers
  # behavior, not the temp directory name.
  sed -i "s|$pcap|PCAP|" "$out"
}

generate() {
  local dir="$1"
  for country in "${countries[@]}"; do
    for id in "${published[@]}"; do
      local tag="${country}_pub${id}"
      run_case "$country" "$id" "$dir/$tag.txt" "$dir/$tag.pcap" 1
    done
  done
  # --jobs invariance: same report regardless of sharding.
  run_case china 1 "$dir/jobs1.txt" "$dir/jobs1.pcap" 1
  run_case china 1 "$dir/jobs4.txt" "$dir/jobs4.pcap" 4
  diff "$dir/jobs1.txt" "$dir/jobs4.txt"
  cmp "$dir/jobs1.pcap" "$dir/jobs4.pcap"
  for seed in 1 7; do
    for pair in "${evolved[@]}"; do
      local country="${pair%%:*}" protocol="${pair##*:}"
      local tag="evolve_${country}_${protocol}_seed${seed}"
      "$caya" evolve --country "$country" --protocol "$protocol" \
        --population 60 --gens 10 --seed "$seed" \
        --history-out "$dir/$tag.history" > "$dir/$tag.txt"
    done
  done
  # Serve drives every censor's flow table and the substrate pool through
  # health tracking, breaker trips and failover; fuzz feeds hostile streams
  # to every censor. Neither prints a timing or a path.
  "$caya" serve --country china --protocol http --published 7 \
    --published 6 --published 2 --flows 20000 --regime-flip-at 10000 \
    --seed 5 --jobs 2 --report-out "$dir/serve_drift_report.txt" \
    > "$dir/serve_drift.txt"
  "$caya" fuzz --censor all --iters 2000 --seed 1 --jobs 2 \
    > "$dir/fuzz_all.txt"
  # The success-rate commands not covered above: a client-side strategy on
  # an impaired link with a Windows client, every protocol under a profile,
  # and a sweep that loses trials to injected faults (the "# errors" footer).
  "$caya" run --country china --protocol http --client-side \
    --strategy "[TCP:flags:A]-duplicate(,tamper{TCP:flags:replace:R}(tamper{IP:ttl:replace:5},))-| \/" \
    --trials 20 --seed 42 --jobs 2 --profile lossy --os "Windows 10" \
    --waterfall --stages > "$dir/run_clientside.txt"
  "$caya" rates --country china --published 2 --trials 40 --seed 9 \
    --profile bursty --jobs 2 > "$dir/rates_bursty.txt"
  "$caya" sweep --country china --protocol http --axis burst --published 1 \
    --published 6 --trials 30 --seed 11 --jobs 2 \
    --inject-hard-fault-every 7 > "$dir/sweep_faults.txt"
  # The shrink/reseed variables would change what the benches print.
  for bench in "${benches[@]}"; do
    env -u CAYA_TRIALS -u CAYA_SEED "$bench_dir/$bench" > "$dir/$bench.txt"
  done
}

generate "$workdir"
(cd "$workdir" && md5sum $(ls *.txt *.pcap *.history | sort)) > "$workdir/manifest.md5"

case "$mode" in
  capture)
    cp "$workdir/manifest.md5" "$manifest"
    echo "captured $(wc -l < "$manifest") golden md5s -> $manifest"
    ;;
  check)
    if [[ ! -f "$manifest" ]]; then
      echo "error: no manifest at '$manifest' (run capture first)" >&2
      exit 2
    fi
    if ! diff -u "$manifest" "$workdir/manifest.md5"; then
      echo "FAIL: transport output diverged from golden manifest" >&2
      exit 1
    fi
    echo "OK: $(wc -l < "$manifest") outputs byte-identical to manifest"
    ;;
esac
