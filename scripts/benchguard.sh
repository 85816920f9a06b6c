#!/usr/bin/env bash
# benchguard: benchmark-regression smoke with a machine-portable baseline.
#
# Absolute ns/op numbers do not transfer between machines, so the
# committed baseline (scripts/benchguard.baseline) stores each guarded
# benchmark's ns/op as a RATIO to BenchmarkCalibration — a frozen,
# allocation-free float64 reduction in internal/geom whose instruction
# mix matches the query hot path. On any machine the guard re-measures
# the calibration yardstick and the guarded benchmarks in the same run,
# recomputes the ratios, and fails if a benchmark has slowed by more
# than the tolerance relative to its committed ratio. The yardstick is
# read before and after the guarded set and the smaller reading is used,
# since one reading can drift by tens of percent within minutes.
#
# This catches real hot-path regressions (one benchmark slows while the
# yardstick does not) and is insensitive to the runner's clock speed. A
# uniform slowdown of ALL floating-point code (including the yardstick)
# is invisible by construction — the BENCH_PR*.json trajectory files are
# the authority for absolute throughput.
#
# Usage:
#   scripts/benchguard.sh          # check against the committed baseline
#   scripts/benchguard.sh update   # re-measure and rewrite the baseline
#
# Environment:
#   BENCHGUARD_TOLERANCE  allowed slowdown factor (default 1.5 = +50%,
#                         deliberately generous: shared CI runners jitter
#                         20-30% between benchmarks in the same job; the
#                         guard is for 2x-class regressions, not drift)
#   BENCHGUARD_COUNT      -count per benchmark (default 5; min is kept)
set -euo pipefail
cd "$(dirname "$0")/.."

TOL="${BENCHGUARD_TOLERANCE:-1.5}"
COUNT="${BENCHGUARD_COUNT:-5}"
BASELINE=scripts/benchguard.baseline
MODE="${1:-check}"

# min_nsop <bench regex> <benchtime> <pkg> — run the benchmark COUNT
# times and print "<name> <min ns/op>" per benchmark (min across runs is
# the most noise-robust statistic for a guard: noise only ever inflates).
min_nsop() {
	go test -run '^$' -bench "$1" -benchtime "$2" -count "$COUNT" "$3" |
		awk '$2 ~ /^[0-9]+$/ && $4 == "ns/op" {
			name = $1
			sub(/-[0-9]+$/, "", name)
			if (!(name in best) || $3 + 0 < best[name]) best[name] = $3 + 0
		}
		END { for (name in best) printf "%s %.1f\n", name, best[name] }'
}

# calib_nsop prints the yardstick's min ns/op alone.
calib_nsop() {
	min_nsop '^BenchmarkCalibration$' '10000x' ./internal/geom | awk '{ print $2 }'
}

measured=$(mktemp)
trap 'rm -f "$measured"' EXIT
# The yardstick drifts with the machine's load over the minutes the
# guarded set takes, so it is read before and after it and the smaller
# (less disturbed) reading divides every row.
calib_before=$(calib_nsop)
{
	min_nsop '^BenchmarkQuery(WindowBased|DoubleNN|HybridNN|Approximate|DoubleANN|TopK10|RoundTrip|Chain3|Unordered)$' '512x' .
	min_nsop '^BenchmarkQueryBatch$' '200x' .
	min_nsop '^BenchmarkSessionSteps$' '1x' ./internal/session
	min_nsop '^BenchmarkJoin(TopK10|RoundTrip)?$' '2000x' ./internal/core
	min_nsop '^Benchmark(FaultLostBurst|MemoFault)$' '20000x' ./internal/broadcast
	min_nsop '^BenchmarkNext(Node|Object)Arrival$' '200000x' .
	min_nsop '^BenchmarkChildArrival$' '200000x' .
	min_nsop '^BenchmarkArrivalQueue$' '200000x' ./internal/client
	min_nsop '^BenchmarkMinMaxDistBelow$' '200000x' ./internal/geom
	min_nsop '^BenchmarkRectScreen$' '20000x' ./internal/geom
	min_nsop '^BenchmarkNew$' '20x' .
	min_nsop '^BenchmarkRTreeBuild(STR|Hilbert)$' '20x' .
	min_nsop '^BenchmarkBroadcastProgramBuild$' '2000x' .
	min_nsop '^BenchmarkBuildIndexDistributed$' '20x' .
	min_nsop '^BenchmarkWireEncodeCycleIndex$' '100x' .
	min_nsop '^BenchmarkFrameCodec$' '200000x' ./internal/netfeed
	min_nsop '^Benchmark(TransmitSlot|WakeReplay)$' '2000x' ./internal/netfeed
} >"$measured"
calib_after=$(calib_nsop)

if [ -z "$calib_before" ] || [ -z "$calib_after" ]; then
	echo "benchguard: calibration benchmark produced no ns/op" >&2
	exit 1
fi
calib=$(awk -v a="$calib_before" -v b="$calib_after" 'BEGIN { print (a + 0 < b + 0) ? a : b }')
echo "benchguard: calibration ${calib_before} ns/op before, ${calib_after} ns/op after; dividing by ${calib}"

if [ "$MODE" = update ]; then
	{
		echo "# benchguard baseline: <benchmark> <ns/op ratio to BenchmarkCalibration>"
		echo "# Regenerate with scripts/benchguard.sh update after intentional perf changes."
		awk -v c="$calib" '{ printf "%s %.6g\n", $1, $2 / c }' "$measured" | sort
	} >"$BASELINE"
	echo "benchguard: baseline updated (calibration ${calib} ns/op)"
	cat "$BASELINE"
	exit 0
fi

if [ ! -f "$BASELINE" ]; then
	echo "benchguard: missing $BASELINE (run scripts/benchguard.sh update)" >&2
	exit 1
fi

fail=0
while read -r name base_ratio; do
	case "$name" in \#*) continue ;; esac
	now=$(awk -v n="$name" '$1 == n { print $2 }' "$measured")
	if [ -z "$now" ]; then
		echo "FAIL $name: in baseline but not measured (renamed or deleted?)" >&2
		fail=1
		continue
	fi
	ratio=$(awk -v a="$now" -v c="$calib" 'BEGIN { printf "%.6g", a / c }')
	ok=$(awk -v r="$ratio" -v b="$base_ratio" -v t="$TOL" 'BEGIN { print (r <= b * t) ? 1 : 0 }')
	verdict=ok
	if [ "$ok" != 1 ]; then
		verdict=FAIL
		fail=1
	fi
	printf '%-4s %-42s ratio %10s  baseline %10s  (x%s allowed)\n' \
		"$verdict" "$name" "$ratio" "$base_ratio" "$TOL"
done <"$BASELINE"

if [ "$fail" != 0 ]; then
	echo "benchguard: regression past tolerance; if intentional, rerun scripts/benchguard.sh update and commit the baseline" >&2
	exit 1
fi
echo "benchguard: all guarded benchmarks within x$TOL of baseline (calibration ${calib} ns/op)"
