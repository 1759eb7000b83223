#!/usr/bin/env bash
# bench.sh — run the repository's performance benchmarks and record them
# as a committed BENCH_<stamp>.json so the perf trajectory is tracked
# across PRs.
#
# Usage:
#   scripts/bench.sh                 # full run (~1s per benchmark)
#   BENCHTIME=1x scripts/bench.sh    # smoke run (CI)
#   BENCH='Ablation' scripts/bench.sh  # filter by benchmark name
#   scripts/bench.sh fleet           # macro load run -> FLEET_<stamp>.json
#
# The fleet mode runs the macro load harness (cmd/ei-fleet) against an
# in-process daemon with the SLO check on, and records the committed
# FLEET_<stamp>.json trajectory file next to the BENCH series.
# FLEET_DEVICES / FLEET_OPS override the fleet size.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "fleet" ]; then
  exec go run ./cmd/ei-fleet \
    -devices "${FLEET_DEVICES:-12}" -ops "${FLEET_OPS:-2}" \
    -check -out FLEET_STAMP.json
fi

benchtime=${BENCHTIME:-1s}
pattern=${BENCH:-.}
# Root ablation/table benchmarks plus the kernel microbenchmarks (simd
# panels, parallel conv), the classify pipeline (single vs
# batched), the storage engine (upload persistence + cold signal reads)
# and the streaming plane (per-window rolling classification).
pkgs=(. ./internal/fft ./internal/nn ./internal/dsp ./internal/quant ./internal/simd ./internal/core ./internal/store ./internal/stream)

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" "${pkgs[@]}" | tee "$tmp"
go run ./cmd/ei-bench -bench-json "BENCH_STAMP.json" < "$tmp"
