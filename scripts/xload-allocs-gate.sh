#!/usr/bin/env bash
# Gates the end-to-end allocation count, the matching table's heap and the
# bytes on the links: runs cmd/xload for 2 s on every workload listed in
# xload-allocs.ceiling (tracing off) and fails if any workload's
# allocs_per_pub, table_heap_mb or link_bytes_per_pub exceeds its ceiling
# there. Each is deterministic to within about 1% between a 2 s and a 10 s
# run, so 2 s are enough. Run it from the repository root:
#
#   bash scripts/xload-allocs-gate.sh
#
# A ceiling is the value measured when it was set plus 5%; lower it when a
# change lowers the value (EXPERIMENTS.md records the measurements).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
status=0

# check NAME VALUE CEILING prints the verdict for one metric and fails the
# gate when VALUE exceeds CEILING.
check() {
	if awk -v g="$2" -v c="$3" 'BEGIN { exit !(g <= c) }'; then
		echo "$workload: $1 $2 <= $3"
	else
		echo "$workload: $1 $2 exceeds the ceiling $3"
		status=1
	fi
}

while read -r workload allocs_ceiling heap_ceiling bytes_ceiling; do
	case "$workload" in '' | \#*) continue ;; esac
	out=$(bash cmd/xload/run.sh --workload "$workload" --seconds 2 --trace 0 </dev/null)
	allocs=$(printf '%s' "$out" | sed -n 's/.*"allocs_per_pub":{"value":\([0-9.eE+-]*\).*/\1/p')
	heap=$(printf '%s' "$out" | sed -n 's/.*"table_heap_mb":{"value":\([0-9.eE+-]*\).*/\1/p')
	bytes=$(printf '%s' "$out" | sed -n 's/.*"link_bytes_per_pub":{"value":\([0-9.eE+-]*\).*/\1/p')
	failed=$(printf '%s' "$out" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	if [ -z "$allocs" ] || [ -z "$heap" ] || [ -z "$bytes" ] || [ "$failed" != 0 ]; then
		echo "$workload: run failed: $out"
		status=1
		continue
	fi
	check allocs_per_pub "$allocs" "$allocs_ceiling"
	check table_heap_mb "$heap" "$heap_ceiling"
	check link_bytes_per_pub "$bytes" "$bytes_ceiling"
done <"$here/xload-allocs.ceiling"
exit "$status"
