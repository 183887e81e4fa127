#!/bin/sh
# Runs the lookup-path microbenchmarks (plus the agent read-path bench)
# with -benchmem and renders the results as JSON, one object per
# benchmark: {"name", "runs", "ns_per_op", "bytes_per_op", "allocs_per_op",
# and any b.ReportMetric extras keyed by unit}.
#
# Usage: scripts/bench_json.sh [output.json] [benchtime] [obs_output.json] [loadgen_output.json] [batch_output.json]
#   output.json      defaults to BENCH_lookup.json in the repo root
#                    (committed as the tracked perf baseline).
#   benchtime        defaults to 0.2s; scripts/check.sh passes a short
#                    budget for its smoke run.
#   obs_output.json  defaults to BENCH_obs.json: the obs-overhead report —
#                    instrumented vs. no-op agent insert+lookup plus the
#                    obs record-path microbenches, with the computed
#                    insert overhead percentage (budget: ≤5%).
#   loadgen_output.json  defaults to BENCH_loadgen.json: the open-loop
#                    load-driver verdict — offered vs achieved rate and
#                    per-class p50/p99/p999 setup latency + violation and
#                    loss rates against the declared SLO budgets. The
#                    script fails if the smoke SLO breaches.
#   batch_output.json  defaults to BENCH_batch.json: the batched wire-path
#                    report — per-op vs vectored batch ingest over TCP
#                    loopback (with the computed ingest_speedup; floor:
#                    10x committed, 5x CI smoke) and the agent-core batch
#                    insert (steady-state 0 allocs/op).
#
# BATCH_ONLY=1 runs just the batch section (the `make bench-batch` entry
# point), skipping the lookup/obs/loadgen artifacts.
#
# Stdlib awk only; no jq, no module downloads.
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_lookup.json}"
benchtime="${2:-0.2s}"
obs_out="${3:-BENCH_obs.json}"
loadgen_out="${4:-BENCH_loadgen.json}"
batch_out="${5:-BENCH_batch.json}"

raw="$(mktemp)"
raw_obs="$(mktemp)"
raw_batch="$(mktemp)"
trap 'rm -f "$raw" "$raw_obs" "$raw_batch"' EXIT

# to_json renders `go test -bench` output as a JSON benchmark array.
to_json() {
	awk '
/^Benchmark/ {
	if (n++) printf ",\n"
	printf "  {\"name\": \"%s\", \"runs\": %s", $1, $2
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		key = unit
		if (unit == "ns/op") key = "ns_per_op"
		else if (unit == "B/op") key = "bytes_per_op"
		else if (unit == "allocs/op") key = "allocs_per_op"
		else { gsub(/[^A-Za-z0-9]/, "_", key) }
		printf ", \"%s\": %s", key, $i
	}
	printf "}"
}
END { printf "\n" }
' "$1"
}

# --- batch wire path: per-op vs vectored ingest ------------------------------
run_batch() {
	go test -run '^$' -bench 'BenchmarkWireInsertPerOp|BenchmarkWireInsertBatch64' \
		-benchmem -benchtime "$benchtime" ./internal/ofwire | tee -a "$raw_batch"
	go test -run '^$' -bench 'BenchmarkAgentInsertPerOp$|BenchmarkAgentInsertBatch$' \
		-benchmem -benchtime "$benchtime" ./internal/core | tee -a "$raw_batch"

	to_json "$raw_batch" > "$batch_out.tmp"

	# Ingest speedup: per-op wire ns/op over batched ns/op. Both benches do
	# the same work per iteration (64 inserts + 64 deletes over TCP
	# loopback), so the ratio is the end-to-end amortization factor.
	speedup="$(awk '
	$1 ~ /^BenchmarkWireInsertPerOp/   { perop = $3 }
	$1 ~ /^BenchmarkWireInsertBatch64/ { batch = $3 }
	END {
		if (perop > 0 && batch > 0) printf "%.2f", perop / batch
		else printf "null"
	}
	' "$raw_batch")"

	{
		echo "{"
		echo "\"benchtime\": \"$benchtime\","
		echo "\"ingest_speedup\": $speedup,"
		echo "\"ingest_speedup_floor\": 10,"
		echo "\"benchmarks\": ["
		cat "$batch_out.tmp"
		echo "]"
		echo "}"
	} > "$batch_out"
	rm -f "$batch_out.tmp"

	echo "wrote $batch_out (batched ingest speedup: ${speedup}x)"
}

if [ "${BATCH_ONLY:-0}" = "1" ]; then
	run_batch
	exit 0
fi

# Table-level lookup + reset benches live in internal/tcam; the agent
# read-path bench lives in the root package.
go test -run '^$' -bench 'BenchmarkTableLookup|BenchmarkTableReset' \
	-benchmem -benchtime "$benchtime" ./internal/tcam | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkAgentLookupParallel|BenchmarkLookup$' \
	-benchmem -benchtime "$benchtime" . | tee -a "$raw"

to_json "$raw" > "$out.tmp"

{
	echo "{"
	echo "\"benchtime\": \"$benchtime\","
	echo "\"benchmarks\": ["
	cat "$out.tmp"
	echo "]"
	echo "}"
} > "$out"
rm -f "$out.tmp"

echo "wrote $out"

# --- obs overhead: instrumented vs no-op agent insert+lookup -----------------
# The agent pair benches live in the root package; the record-path
# microbenches (0 allocs/op) in internal/obs.
go test -run '^$' -bench 'BenchmarkAgentInsert/|BenchmarkAgentLookup/' \
	-benchmem -benchtime "$benchtime" . | tee -a "$raw_obs"
go test -run '^$' -bench 'BenchmarkHistogramRecord|BenchmarkCounterAddParallel|BenchmarkTracerRecord' \
	-benchmem -benchtime "$benchtime" ./internal/obs | tee -a "$raw_obs"

to_json "$raw_obs" > "$obs_out.tmp"

# Insert overhead percentage: (obs - noop) / noop * 100, from the agent pair.
overhead="$(awk '
$1 ~ /^BenchmarkAgentInsert\/noop/ { noop = $3 }
$1 ~ /^BenchmarkAgentInsert\/obs/  { obs = $3 }
END {
	if (noop > 0 && obs > 0) printf "%.2f", (obs - noop) / noop * 100
	else printf "null"
}
' "$raw_obs")"

{
	echo "{"
	echo "\"benchtime\": \"$benchtime\","
	echo "\"insert_overhead_percent\": $overhead,"
	echo "\"overhead_budget_percent\": 5,"
	echo "\"benchmarks\": ["
	cat "$obs_out.tmp"
	echo "]"
	echo "}"
} > "$obs_out"
rm -f "$obs_out.tmp"

echo "wrote $obs_out (insert overhead: ${overhead}%)"

# --- loadgen verdict: open-loop SLO smoke against live in-process agents ----
# The verdict JSON is the benchmark artifact: schedule digest, offered vs
# achieved rate, per-class latency quantiles and violation/loss rates
# against the declared budgets. Deterministic seed, so the offered
# schedule is identical run to run; a breach exits nonzero and fails the
# script.
go run ./cmd/hermes-loadgen -flows 4000 -rate 20000 -switches 2 -hold 20ms \
	-classes 3,1 -seed 42 -workers 16 -p99-budget 30s -max-loss-rate 0 \
	-out "$loadgen_out" >/dev/null

echo "wrote $loadgen_out"

run_batch
