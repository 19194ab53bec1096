#!/usr/bin/env bash
# The result gates CI runs, in one place (CI invokes this script; run it
# locally from the repo root to reproduce the exact CI check).
#
# Two kinds of command.  The first quick-runs every registered
# experiment (run all): among them those whose checks gate each layer of
# the batch spine against its scalar twin — Table 1's per-scheme path
# replay (E1), congestion accounting (E4), §3 trace parity and salted
# relief (E7, E8), the §6.3 fault replay (E13), batch-lookup parity
# (X3), the churn refresh cost (X4) and the cost policies' traffic
# bounds and replays (X6) — and those that route their own lookup
# workloads through the router's batch lookups.  The others
# drive the day-in-the-life soak with all between-phase invariants on: a
# small smoke (n = 1024, chunk 4096), then the default size (n = 16384,
# chunk 2^16, ~3 s each) for seeds 1, 7 and 11, whose chunks span
# several lane blocks of the batch engines.  Each exits non-zero when
# one of its gates fails, and writes the seed-deterministic part of its
# result (no wall-clock or machine readings) as JSON under $OUT_DIR.  Speed is not gated here: rates are
# the spine benchmark's (benchmarks/spine/).  The script ends by
# byte-diffing those files against the committed benchmarks/baselines/:
# a changed path length, load, congestion or fault count fails the run,
# and tools/leafdiff.py then names every moved JSON leaf.
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

run python -m repro.cli run all --quick --out "$OUT_DIR"

run python -m repro.cli soak \
  --n 1024 --lookups 10000 --chunk 4096 --seed 0 \
  --json-out "$OUT_DIR/BENCH_soak.json"

run python -m repro.cli soak --seed 1 --json-out "$OUT_DIR/BENCH_soak_seed1.json"
run python -m repro.cli soak --seed 7 --json-out "$OUT_DIR/BENCH_soak_seed7.json"
run python -m repro.cli soak --seed 11 --json-out "$OUT_DIR/BENCH_soak_seed11.json"

echo
echo "== diff -ru benchmarks/baselines $OUT_DIR"
if ! diff -ru benchmarks/baselines "$OUT_DIR"; then
  echo
  echo "== moved leaves: python tools/leafdiff.py benchmarks/baselines $OUT_DIR"
  python tools/leafdiff.py benchmarks/baselines "$OUT_DIR" || true
  exit 1
fi
echo "all result gates passed; artifacts in $OUT_DIR/ equal the baselines"
