#!/usr/bin/env bash
# Builds the benchmark (Release, into build-bench/) and runs it.
#
# One run; its result is the last line of stdout:
#   bash benchmark/run.sh --workload batch_tw --seed 1 --seconds 15 --trace 0
# A full set, every workload untraced and traced for BENCHMARK.json's
# run_seconds, one JSON per run in DIR (plus a Chrome trace per traced
# run), then a table of every metric:
#   bash benchmark/run.sh --seed=1 --out=DIR [--runs=N]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

# Build output goes to stderr: stdout carries only results.
generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" --target rlcut_bench rlcut_replica >&2

for arg in "$@"; do
  case "$arg" in
    --workload|--workload=*)
      exec "$build/rlcut_bench" "$@" --work_dir="$build" ;;
  esac
done

seed=1
out=""
runs=1
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed="${arg#*=}" ;;
    --out=*) out="${arg#*=}" ;;
    --runs=*) runs="${arg#*=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
if [ -z "$out" ]; then
  echo "usage: $0 --seed=S --out=DIR [--runs=N]" >&2
  exit 2
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
           "$root/BENCHMARK.json")"

status=0
for run in $(seq 1 "$runs"); do
  for workload in batch_tw replica_tw serve_diurnal ooc_powerlaw; do
    for trace in 0 1; do
      echo "run $run: $workload --trace=$trace" >&2
      "$build/rlcut_bench" --workload="$workload" --seed="$seed" \
          --seconds="$seconds" --trace="$trace" --work_dir="$build" \
          --out="$out/run$run" >/dev/null || status=1
    done
  done
done
python3 "$here/compare.py" --summary "$out"
exit "$status"
