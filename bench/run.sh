#!/usr/bin/env bash
# Build file and entry point of the performance ledger (see README.md).
# Builds the bench binary from source into .bench_build/ of the checkout it
# is run from, keeping the go build cache there too so nothing is written
# outside the checkout, then hands every argument to the binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/quasar-ledger ./bench
exec .bench_build/quasar-ledger "$@"
