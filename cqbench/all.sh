#!/usr/bin/env bash
# Runs every workload, untraced then traced, with one seed:
#
#   bash cqbench/all.sh [seed] [seconds]
#
# Each run prints its metrics with their units on stderr and its result
# line on stdout. Exits non-zero if any run fails or reports a wrong answer.
set -uo pipefail
seed=${1:-1}
seconds=${2:-20}
status=0
for workload in analytic hot-cache cold-fleet; do
  for trace in 0 1; do
    echo "== $workload trace=$trace seed=$seed" >&2
    bash cqbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
  done
done
exit $status
