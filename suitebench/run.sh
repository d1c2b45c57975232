#!/usr/bin/env bash
# Builds the suite benchmark from the surrounding checkout and runs it.
# Usage (from the repository root):
#   bash suitebench/run.sh --workload craft-iter --seed 1 --seconds 25 --trace 0
# Build products, the Go build cache and run scratch all live under
# .bench_build/ at the root, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/experiment" || ! -f "$root/testdata/specs/fig4.json" ]]; then
	echo "suitebench: run from the root of a full checkout (go.mod, internal/, testdata/specs/ not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/suitebench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/suitebench/suitebench" .)
exec "$out/suitebench/suitebench" "$@"
