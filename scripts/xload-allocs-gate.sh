#!/usr/bin/env bash
# Gates the end-to-end allocation count: runs cmd/xload for 2 s on every
# workload listed in xload-allocs.ceiling (tracing off) and fails if any
# workload's allocs_per_pub exceeds its ceiling there. allocs_per_pub is
# deterministic to within 1% between a 2 s and a 10 s run, so 2 s are
# enough. Run it from the repository root:
#
#   bash scripts/xload-allocs-gate.sh
#
# A ceiling is the value measured when it was set plus 5%; lower it when a
# change lowers the count (EXPERIMENTS.md records the measurements).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
status=0
while read -r workload ceiling; do
	case "$workload" in '' | \#*) continue ;; esac
	out=$(bash cmd/xload/run.sh --workload "$workload" --seconds 2 --trace 0 </dev/null)
	got=$(printf '%s' "$out" | sed -n 's/.*"allocs_per_pub":{"value":\([0-9.eE+-]*\).*/\1/p')
	failed=$(printf '%s' "$out" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	if [ -z "$got" ] || [ "$failed" != 0 ]; then
		echo "$workload: run failed: $out"
		status=1
	elif awk -v g="$got" -v c="$ceiling" 'BEGIN { exit !(g <= c) }'; then
		echo "$workload: allocs_per_pub $got <= $ceiling"
	else
		echo "$workload: allocs_per_pub $got exceeds the ceiling $ceiling"
		status=1
	fi
done <"$here/xload-allocs.ceiling"
exit "$status"
