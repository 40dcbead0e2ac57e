#!/usr/bin/env bash
# Runs every experiment bench (E1..E15) and emits ONE JSON line per bench
# binary on stdout, ready to append to a BENCH_*.json trajectory file:
#
#   {"bench":"e7_distance_query","threads":8,"shards":1,
#    "optimize":"all","updates":0,"incremental":1,
#    "context":{...},"benchmarks":[...]}
#
# `threads`, `shards`, and `optimize` record the evaluation thread
# count, relation-shard count, and plan-optimizer pass selection the
# bench binaries were run with. The benches default to num_threads=1 /
# num_shards=1 (E1..E8 are serial and unsharded; E9 sweeps thread
# counts, E10 sweeps (threads, shards), E11 sweeps threads on a skewed
# stage, and E12 sweeps the optimizer pass selection per series,
# carried in their *counters*), so the fields default to 1/1/all — set
# INFLOG_THREADS=N / INFLOG_SHARDS=S /
# INFLOG_OPTIMIZE=all|none|<comma list of pass tokens> only when
# actually running a build/flag combination that evaluates with those
# values. The valid pass tokens are whatever the library exports —
# asked of the build via `inflog_cli --list-optimize-passes` rather
# than hardcoded here, so new passes (magic, inline, ...) validate
# without touching this script.
#
# Usage:
#   bench/run_all.sh [--smoke] [BUILD_DIR] [EXTRA_BENCHMARK_ARGS...]
#
# --smoke runs every series for a single short repetition
# (--benchmark_min_time=0.01): a cheap CI-sized sweep whose only job is
# to prove each bench binary still builds, runs, and passes its built-in
# serial cross-checks. Timing numbers from a smoke run are NOT
# trajectory material.
#
# Examples:
#   bench/run_all.sh                           # default build dir ./build
#   bench/run_all.sh --smoke build             # CI smoke sweep
#   bench/run_all.sh build --benchmark_min_time=0.05   # quicker sweep
#   bench/run_all.sh build --benchmark_filter=JoinCore # one series
#
# (benchmark 1.7 parses --benchmark_min_time as a plain double; newer
# releases also accept a "0.05s" suffix.)
#
# Requires jq (used only to compact the benchmark JSON onto one line).

set -euo pipefail

smoke=0
if [ "${1:-}" = "--smoke" ]; then
  smoke=1
  shift
fi

build_dir="${1:-build}"
if [ $# -gt 0 ]; then shift; fi

if [ ! -d "$build_dir" ]; then
  echo "error: build dir '$build_dir' not found (run cmake first)" >&2
  exit 1
fi

threads="${INFLOG_THREADS:-1}"
case "$threads" in
  ''|*[!0-9]*)
    echo "error: INFLOG_THREADS must be a non-negative integer," \
      "got '$threads'" >&2
    exit 1
    ;;
esac

shards="${INFLOG_SHARDS:-1}"
case "$shards" in
  ''|*[!0-9]*)
    echo "error: INFLOG_SHARDS must be a non-negative integer," \
      "got '$shards'" >&2
    exit 1
    ;;
esac

# E13's update-stream configuration: `updates` records the stream length
# per iteration the run was driven with (0 = the bench's built-in
# default), `incremental` whether maintenance ran incrementally (1, the
# default) or every update was forced through the recompute oracle (0).
# Both are trajectory metadata only — the bench binaries read their own
# INFLOG_E13_* environment; these fields keep the sweep configuration
# visible next to threads/shards.
updates="${INFLOG_UPDATES:-0}"
case "$updates" in
  ''|*[!0-9]*)
    echo "error: INFLOG_UPDATES must be a non-negative integer," \
      "got '$updates'" >&2
    exit 1
    ;;
esac

incremental="${INFLOG_INCREMENTAL:-1}"
case "$incremental" in
  0|1) ;;
  *)
    echo "error: INFLOG_INCREMENTAL must be 0 or 1, got '$incremental'" >&2
    exit 1
    ;;
esac

# The serving configuration the run was driven with: `serve_threads`
# records the reader thread count (mirrors the CLI's --serve-threads;
# E14 sweeps 1..8 itself and carries the count in its counters) and
# `cache` whether the epoch-keyed query cache was on (1, the serving
# default) or off (0, --serve-cache=0). Trajectory metadata like
# updates/incremental above.
serve_threads="${INFLOG_SERVE_THREADS:-1}"
case "$serve_threads" in
  ''|0|*[!0-9]*)
    echo "error: INFLOG_SERVE_THREADS must be a positive integer," \
      "got '$serve_threads'" >&2
    exit 1
    ;;
esac

cache="${INFLOG_CACHE:-1}"
case "$cache" in
  0|1) ;;
  *)
    echo "error: INFLOG_CACHE must be 0 or 1, got '$cache'" >&2
    exit 1
    ;;
esac

# The optimizer pass selection ("all", "none", or a comma list of pass
# tokens — mirrors the library's --optimize flag). The token set comes
# from the built CLI so it tracks the library: `--list-optimize-passes`
# prints one token per line. Without a built CLI there is nothing to
# validate against, so the run fails.
optimize="${INFLOG_OPTIMIZE:-all}"
case "$optimize" in
  all|none) ;;
  *)
    if ! [ -x "$build_dir/inflog_cli" ] ||
        ! pass_tokens="$("$build_dir/inflog_cli" --list-optimize-passes)"; then
      echo "error: $build_dir/inflog_cli --list-optimize-passes" \
        "unavailable (build the project first)" >&2
      exit 1
    fi
    IFS=',' read -ra opt_parts <<<"$optimize"
    for part in "${opt_parts[@]}"; do
      if ! grep -Fxq -- "$part" <<<"$pass_tokens"; then
        echo "error: INFLOG_OPTIMIZE must be 'all', 'none' or a comma" \
          "list of: $(tr '\n' ' ' <<<"$pass_tokens")— got '$optimize'" >&2
        exit 1
      fi
    done
    ;;
esac

smoke_args=()
if [ "$smoke" -eq 1 ]; then
  smoke_args=(--benchmark_min_time=0.01)
fi

found=0
status=0
for bin in "$build_dir"/e[0-9]_* "$build_dir"/e[0-9][0-9]_*; do
  [ -x "$bin" ] || continue
  found=1
  name="$(basename "$bin")"
  if ! out="$("$bin" --benchmark_format=json ${smoke_args[@]+"${smoke_args[@]}"} "$@" 2>/dev/null)"; then
    echo "error: $name failed (bad flags or crashed)" >&2
    status=1
    continue
  fi
  if [ -z "$out" ]; then
    # A filter that matches nothing leaves the binary silent; keep one
    # line per bench anyway so trajectories stay aligned.
    printf \
      '{"bench":"%s","threads":%s,"shards":%s,"optimize":"%s","updates":%s,"incremental":%s,"serve_threads":%s,"cache":%s,"context":null,"benchmarks":[]}\n' \
      "$name" "$threads" "$shards" "$optimize" "$updates" \
      "$incremental" "$serve_threads" "$cache"
    continue
  fi
  jq -c --arg bench "$name" --argjson threads "$threads" \
    --argjson shards "$shards" --arg optimize "$optimize" \
    --argjson updates "$updates" --argjson incremental "$incremental" \
    --argjson serve_threads "$serve_threads" --argjson cache "$cache" \
    '{bench: $bench, threads: $threads, shards: $shards,
      optimize: $optimize, updates: $updates, incremental: $incremental,
      serve_threads: $serve_threads, cache: $cache,
      context: .context, benchmarks: .benchmarks}' <<<"$out"
done

if [ "$found" -eq 0 ]; then
  echo "error: no bench binaries in '$build_dir' (build the project first)" >&2
  exit 1
fi
exit "$status"
