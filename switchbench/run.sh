#!/usr/bin/env bash
# Builds the switch benchmark from the sources of the checkout it sits in
# and runs it. Everything the build writes stays under .bench_build/ at
# the checkout root; no network access is needed.
#
#   bash switchbench/run.sh --workload churn|switch --seed N --seconds S --trace 0|1
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/switchbench" && go build -buildvcs=false -o "$build/switchbench" .)

# Provenance: the commit, when the checkout is a git work tree.
sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
SWITCHBENCH_GIT_SHA="$sha" exec "$build/switchbench" "$@"
