#!/usr/bin/env bash
# Builds the benchmark and the commit's reghd-serve from source, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload engine-stream --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Every build product, Go cache and scratch file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/reghd-serve" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/reghd-serve not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/reghd-serve" ./cmd/reghd-serve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --serve-bin "$out/reghd-serve" --work "$out" "$@"
