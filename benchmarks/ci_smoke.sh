#!/usr/bin/env bash
# The bench smoke gates CI runs, in one place (CI invokes this script;
# run it locally from the repo root to reproduce the exact CI check).
#
# Each subcommand exits non-zero when its parity check fails or its
# in-process speedup floor is missed, and writes the seed-deterministic
# part of its result (no wall-clock or machine readings) as a JSON
# artifact under $OUT_DIR.  The script ends by byte-diffing those
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
  --n 1024 --lookups 20000 --scalar-sample 400 --min-speedup 5 \
  --json-out "$OUT_DIR/BENCH_congestion.json"

run python -m repro.cli bench-faults \
  --n 1024 --pairs 20000 --scalar-sample 200 --min-speedup 5 \
  --json-out "$OUT_DIR/BENCH_faults.json"

run python -m repro.cli bench-caching \
  --n 1024 --requests 50000 --scalar-sample 400 \
  --hotspot-requests 200000 --min-speedup 5 \
  --json-out "$OUT_DIR/BENCH_caching.json"

# Table 1 shoot-out across all seven baseline overlays.  The ≥5x
# acceptance floor is measured at n=16384 (docs/BENCHMARKS.md); at the
# smoke size the scalar loops are comparatively faster, so the smoke
# gates the conservative 3x floor per topology.
run python -m repro.cli bench-baselines \
  --n 1024 --lookups 20000 --scalar-sample 200 --min-speedup 3 \
  --json-out "$OUT_DIR/BENCH_baselines.json"

# Multicore sharded backend smoke: the merged congestion summary + hop
# histogram must be bit-identical to the single-process engine — gated
# on every machine.  The throughput gain is informational here
# (--min-speedup 0): CI runners routinely expose fewer CPUs than the
# worker count, and the 2x/4-worker acceptance is measured at n=2^18
# (docs/BENCHMARKS.md), not at smoke size.
run python -m repro.cli bench-shard \
  --n 1024 --lookups 20000 --workers 2 --chunk 4096 --min-speedup 0 \
  --json-out "$OUT_DIR/BENCH_shard.json"

# Cost-aware covering-edge routing smoke: the three selection policies
# over a synthetic ISP map.  The ≥30% cross-ISP reduction and ≤1.5x
# stretch acceptance is measured at n=16384 (docs/BENCHMARKS.md) but
# holds with wide margin at smoke size too; the speedup floor is the
# conservative 5x of the other smokes.  The 2-worker flag also gates
# the sharded cost-dh bit-parity on every run.
run python -m repro.cli bench-cost \
  --n 1024 --pairs 20000 --scalar-sample 100 --core-n 512 \
  --core-pairs 10000 --workers 2 --min-speedup 5 \
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
