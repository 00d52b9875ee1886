#!/usr/bin/env bash
# Builds the choreod benchmark from this checkout's sources and runs it.
#
#   bash choreobench/run.sh --workload registry-read --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout: the Go build cache and the go command's
# home, the binary, the store data and the trace output.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gohome"
(
	export HOME="$out/gohome" XDG_CONFIG_HOME="$out/gohome/.config"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gohome/go"
	export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	cd "$root/choreobench"
	go build -o "$out/choreobench" .
)
cd "$root"
exec "$out/choreobench" -work "$out" "$@"
