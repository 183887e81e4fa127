#!/usr/bin/env bash
# Builds the Hermes benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload guaranteed-steady --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and written span traces stay under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

# The commit goes into the env block; a checkout without .git reports
# "unknown" unless PERFBENCH_COMMIT is set.
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=unknown
	if [ -d "$root/.git" ]; then
		PERFBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
	fi
	export PERFBENCH_COMMIT
fi

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
