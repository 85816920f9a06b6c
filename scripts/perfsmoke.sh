#!/usr/bin/env bash
# perfsmoke: correctness smoke for the repository benchmark (perfbench).
#
# Runs each of the three perfbench workloads for 2 s, untraced, and fails
# unless its result line (the last line of standard output) reports
# "correct": true. Every workload checks the answers it can check: oracle
# answers on paper-query, lossless and lossy twins on session-lossy, the
# in-process twin on remote-wire. Timing figures are not gated here; the
# BENCH_*.json files record them with their method and machine.
#
# Usage: scripts/perfsmoke.sh   (from anywhere; runs at the repository root)
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0
for w in paper-query session-lossy remote-wire; do
	last=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
	if printf '%s\n' "$last" | grep -Eq '"correct": *true'; then
		echo "ok   $w"
	else
		echo "FAIL $w: $last" >&2
		fail=1
	fi
done
exit "$fail"
