#!/bin/sh
# End-to-end benchmark entry point. Run from the repository root:
#
#	sh perfbench/run.sh --workload route-hot --seed 1 --seconds 15 --trace 0
#
# It builds riskrouted and the harness from this checkout into .bench_build/
# and then runs the harness with the given arguments. Every toolchain cache
# and config file is kept under .bench_build/, so nothing outside the
# checkout is read or written beyond the Go toolchain itself.
set -eu
root=$(pwd)
out="$root/.bench_build"

# Without the program's sources there is nothing to measure: fail before any
# go command runs.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/riskrouted" ]; then
	echo "run.sh: no riskroute sources in $root (go.mod, cmd/riskrouted)" >&2
	exit 1
fi

# Go telemetry is switched off in the private config dir: otherwise the go
# command forks a detached upload/crash-monitor child that outlives this
# script.
mkdir -p "$out/home/.config/go/telemetry"
printf 'off 2000-01-01' >"$out/home/.config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/riskrouted" ./cmd/riskrouted
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/riskrouted" -out "$out" "$@"
