#!/usr/bin/env bash
# The bench smoke gates CI runs, in one place (CI invokes this script;
# run it locally from the repo root to reproduce the exact CI check).
#
# Each subcommand exits non-zero when one of its gates fails (a scalar
# parity replay, the churn refresh cost, salted relief, the cost
# policies' traffic bounds, the soak's invariants), and writes the
# seed-deterministic part of its result (no wall-clock or machine
# readings) as a JSON artifact under $OUT_DIR.  Speed is not gated
# here: rates are the spine benchmark's (benchmarks/spine/).  The script ends by byte-diffing those
# artifacts against the committed benchmarks/baselines/: a changed path
# length, load, congestion or fault count fails the run.
#
# Re-baseline after an intentional change of a result:
#   benchmarks/ci_smoke.sh benchmarks/baselines
#
# Usage: benchmarks/ci_smoke.sh [OUT_DIR]   (default: bench-artifacts)
set -euo pipefail

OUT_DIR="${1:-bench-artifacts}"
export PYTHONPATH="${PYTHONPATH:-src}"

run() {
  echo
  echo "== $*"
  "$@"
}

run python -m repro.cli bench-throughput --n 1024 \
  --json-out "$OUT_DIR/BENCH_throughput.json"

# The refresh gate is absolute: microseconds per patched membership op
# (30-75 us at n=1024 on the 2-vCPU box), not a ratio to the full
# compile, which a faster compile would read as a regression.
run python -m repro.cli bench-churn \
  --n 1024 --lookups 20000 --churn-ops 64 --mass-n 512 \
  --max-refresh-us 250 \
  --json-out "$OUT_DIR/BENCH_churn.json"

run python -m repro.cli bench-congestion \
  --n 1024 --lookups 20000 --scalar-sample 400 \
  --json-out "$OUT_DIR/BENCH_congestion.json"

run python -m repro.cli bench-faults \
  --n 1024 --pairs 20000 --scalar-sample 200 \
  --json-out "$OUT_DIR/BENCH_faults.json"

run python -m repro.cli bench-caching \
  --n 1024 --requests 50000 --hotspot-requests 200000 \
  --json-out "$OUT_DIR/BENCH_caching.json"

# Table 1 shoot-out across all seven baseline overlays, each replayed
# against its scalar lookup_path loop.
run python -m repro.cli bench-baselines \
  --n 1024 --lookups 20000 --scalar-sample 200 \
  --json-out "$OUT_DIR/BENCH_baselines.json"

# Cost-aware covering-edge routing smoke: the three selection policies
# over a synthetic ISP map.  The ≥30% cross-ISP reduction and ≤1.5x
# stretch acceptance is measured at n=16384 (docs/BENCHMARKS.md
# "The subcommands") but holds with wide margin at smoke size too.
run python -m repro.cli bench-cost \
  --n 1024 --pairs 20000 --scalar-sample 100 --core-n 512 \
  --core-pairs 10000 \
  --json-out "$OUT_DIR/BENCH_cost.json"

# Day-in-the-life soak smoke: every subsystem composed on one live
# network with all between-phase invariants on.
run python -m repro.cli soak \
  --n 1024 --lookups 10000 --chunk 4096 --seed 0 \
  --json-out "$OUT_DIR/BENCH_soak.json"

echo
echo "== diff -ru benchmarks/baselines $OUT_DIR"
diff -ru benchmarks/baselines "$OUT_DIR"
echo "all bench smokes passed; artifacts in $OUT_DIR/ equal the baselines"
