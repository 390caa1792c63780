#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json untraced, then traced.
#
#   bench/perf/run.sh <out-dir> [seed] [seconds]
#
# Run it from the root of a dimmer checkout. Each run's metric table (name,
# value, unit) goes to stderr; <out-dir>/<workload>-trace<0|1>.json holds
# its result object. Exits non-zero at the first run that fails or reports
# a wrong output.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 ]]; then
  echo "usage: bench/perf/run.sh <out-dir> [seed] [seconds]" >&2
  exit 2
fi
out=$1
seed=${2:-1}
seconds=${3:-24}

# The harness takes every setting from its arguments.
while read -r v; do unset "$v"; done < <(compgen -e | grep '^DIMMER_' || true)

mkdir -p "$out"
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
  for trace in 0 1; do
    echo "== $w trace $trace" >&2
    python3 bench/perf/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" > "$out/$w-trace$trace.json"
  done
done
