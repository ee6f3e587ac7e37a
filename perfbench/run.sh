#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given flags:
#
#	bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, snapshots,
# trace files) stays under .bench_build/ at the repository root. The build
# needs the cirank module one directory up; without it the script fails
# before printing a result.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out=$root/.bench_build
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no cirank module at $root; nothing to build" >&2
	exit 2
fi
(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
