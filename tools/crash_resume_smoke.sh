#!/usr/bin/env bash
# Crash-resume smoke test for one checkpointing caya subcommand.
#
# Runs SUBCOMMAND once uninterrupted at --jobs 2, then again with a
# checkpoint after every unit of work, SIGKILLs that second run once its
# checkpoint is on disk, resumes it at --jobs 4 (sharding must not change
# results) and diffs the two OUT_FLAG files. The kill waits on the
# checkpoint file, not on a timer, so the outcome does not depend on the
# machine's speed. Fails if the run ends before the kill, if the resume does
# not load the checkpoint, or if the outputs differ.
#
# Usage:
#   tools/crash_resume_smoke.sh WORKDIR OUT_FLAG SUBCOMMAND [ARGS...]
#   e.g. tools/crash_resume_smoke.sh /tmp/sweep --table-out sweep \
#          --published 1 --trials 3000 --seed 11
#
# Leaves WORKDIR/ref (uninterrupted output), WORKDIR/resumed (output of the
# resumed run), WORKDIR/resume.log and WORKDIR/ckpt/.
#
# Env: CAYA (default build/tools/caya); KILL_AFTER, an extended regex the
# checkpoint must match before the kill (default: any checkpoint), to land
# the kill after a given event.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 WORKDIR OUT_FLAG SUBCOMMAND [ARGS...]" >&2
  exit 2
fi
workdir="$1"
out_flag="$2"
cmd="$3"
shift 3
caya="${CAYA:-build/tools/caya}"
kill_after="${KILL_AFTER:-^caya-snapshot}"

if [[ ! -x "$caya" ]]; then
  echo "error: caya binary not found at '$caya' (set CAYA=...)" >&2
  exit 2
fi

mkdir -p "$workdir"
rm -rf "$workdir/ckpt"
ckpt="$workdir/ckpt/$cmd.ckpt"

"$caya" "$cmd" "$@" --jobs 2 "$out_flag" "$workdir/ref" > /dev/null

"$caya" "$cmd" "$@" --jobs 2 --checkpoint-dir "$workdir/ckpt" \
  --checkpoint-every 1 "$out_flag" /dev/null > /dev/null &
pid=$!
# Checkpoints are written to a temporary file and renamed into place, so
# whatever grep reads is complete.
until [[ -e "$ckpt" ]] && grep -qE "$kill_after" "$ckpt"; do
  if ! kill -0 "$pid" 2> /dev/null; then
    echo "error: $cmd exited before the kill point" >&2
    exit 1
  fi
  sleep 0.01
done
kill -KILL "$pid" 2> /dev/null || true
status=0
wait "$pid" || status=$?
if [[ "$status" -ne 137 ]]; then
  echo "error: $cmd exited $status before the kill landed" >&2
  exit 1
fi

"$caya" "$cmd" "$@" --jobs 4 --checkpoint-dir "$workdir/ckpt" --resume \
  "$out_flag" "$workdir/resumed" > "$workdir/resume.log"
if ! grep "^resumed" "$workdir/resume.log"; then
  echo "error: the resumed $cmd run did not load its checkpoint" >&2
  exit 1
fi
diff "$workdir/ref" "$workdir/resumed"
echo "ok: $cmd resumed after SIGKILL and matched the uninterrupted run"
