#!/usr/bin/env bash
# CI gate on the repository benchmark (perfbench/NOTES.md). Runs every
# workload for one second and fails unless each run reports
# "correct": true with no failed operation. The two Table-1 workloads run
# traced, which also checks their rows against perfbench/testdata, and
# must do exactly the work recorded in .github/perfbench-counts.json:
# every counter listed there must equal the live value. The bound is on
# work, not time, so it holds on any host. A change that alters the work
# on purpose edits the counts file and says why in CHANGES.md.
#
# Run it from the repository root (needs jq):
#
#   bash .github/perfbench-gate.sh
set -euo pipefail

counts=.github/perfbench-counts.json

# gate WORKLOAD TRACE runs one workload and checks its result line.
gate() {
	local result
	result=$(bash perfbench/run.sh --workload "$1" --seed 1 --seconds 1 --trace "$2" | tail -n 1) || true
	if ! jq -e '.correct == true and .failed == 0' <<<"$result" >/dev/null; then
		echo "perfbench-gate: $1: want correct:true and failed:0, got: ${result:0:300}" >&2
		return 1
	fi
	[[ $1 == table1-* ]] || { echo "perfbench-gate: $1: correct, 0 failed"; return 0; }
	local diff
	diff=$(jq -r -n --arg w "$1" --argjson got "$result" --slurpfile want "$counts" '
		($want[0][$w] // error("no counts for \($w)")) | to_entries[]
		| select(.value != $got.metrics[.key].value)
		| "\(.key): want \(.value), got \($got.metrics[.key].value // "missing")"')
	if [[ -n $diff ]]; then
		echo "perfbench-gate: $1: work counts differ from $counts:" >&2
		echo "$diff" >&2
		return 1
	fi
	echo "perfbench-gate: $1: correct, 0 failed, $(jq --arg w "$1" '.[$w] | length' "$counts") counts exact"
}

gate table1-behav 1
gate table1-spice 1
gate serve-mixed 0
