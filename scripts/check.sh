#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
#   scripts/check.sh            # run everything
#   scripts/check.sh --fix      # apply rustfmt instead of checking
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix" ]]; then
    cargo fmt
else
    cargo fmt --check
fi
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc: broken intra-doc links and public docs linking private items
# fail the gate (clippy does not check them). The vendored stand-ins for
# external crates are not ours to document.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
    --exclude criterion --exclude proptest --exclude rand
cargo test -q

# Perf-regression gate over the committed phase profile. The self-compare is
# a structural sanity check (the gate must parse the baseline and exit 0);
# when a fresh candidate profile exists (exp_all writes one, or set
# MEMAGING_BENCH_CANDIDATE), diff it against the baseline with a loose
# cross-machine tolerance.
cargo run -q -p memaging-bench --bin bench-diff -- BENCH_obs.json BENCH_obs.json
candidate="${MEMAGING_BENCH_CANDIDATE:-}"
if [[ -n "$candidate" && -f "$candidate" ]]; then
    cargo run -q -p memaging-bench --bin bench-diff -- \
        BENCH_obs.json "$candidate" --tolerance 3.0
fi

# Same gate over the parallel-runtime profile (exp_par writes a fresh one;
# set MEMAGING_BENCH_CANDIDATE_PAR to diff it against the committed
# baseline).
cargo run -q -p memaging-bench --bin bench-diff -- BENCH_par.json BENCH_par.json
candidate_par="${MEMAGING_BENCH_CANDIDATE_PAR:-}"
if [[ -n "$candidate_par" && -f "$candidate_par" ]]; then
    cargo run -q -p memaging-bench --bin bench-diff -- \
        BENCH_par.json "$candidate_par" --tolerance 3.0
fi

# Same gate over the range-selection engine profile (exp_map writes a fresh
# one; set MEMAGING_BENCH_CANDIDATE_MAP to diff it against the committed
# baseline). The committed baseline must carry the quantized-vs-f32
# candidate-scoring speedup — exp_map asserts the >= 2x gate when it runs;
# this keeps the extra from silently vanishing from the baseline.
grep -q '"quant_speedup_candidate"' BENCH_map.json \
    || { echo "check.sh: BENCH_map.json is missing extra \"quant_speedup_candidate\"" >&2; exit 1; }
cargo run -q -p memaging-bench --bin bench-diff -- BENCH_map.json BENCH_map.json
candidate_map="${MEMAGING_BENCH_CANDIDATE_MAP:-}"
if [[ -n "$candidate_map" && -f "$candidate_map" ]]; then
    cargo run -q -p memaging-bench --bin bench-diff -- \
        BENCH_map.json "$candidate_map" --tolerance 3.0
fi

# Same gate over the serving-tier profile (exp_serve writes a fresh one; set
# MEMAGING_BENCH_CANDIDATE_SERVE to diff it against the committed baseline).
# The committed baseline must carry the wear-attribution / latency extras —
# bench-diff fails on drifted or vanished extras, and unlike wall-clock
# times the extras are deterministic (pure FP over a fixed admission
# sequence), so they stay at the strict default tolerance even when the
# timing tolerance is loosened for cross-machine runs. The perf extras
# (quant_speedup_forward, batch_mean_16c_q, delta_remap_speedup) are
# wall-clock figures: bench-diff flags them only on a fall of more than half
# (WALL_CLOCK_EXTRAS), and exp_serve asserts their floors when it runs.
for key in wear_total_stress wear_inference_read_stress wear_remap_stress \
           wear_ledger_entries latency_e2e_count series_points forecast_tiles \
           forecast_worst_velocity quant_speedup_forward batch_mean_16c_q \
           remap_cells_skipped_frac delta_remap_speedup; do
    grep -q "\"$key\"" BENCH_serve.json \
        || { echo "check.sh: BENCH_serve.json is missing extra \"$key\"" >&2; exit 1; }
done
cargo run -q -p memaging-bench --bin bench-diff -- BENCH_serve.json BENCH_serve.json
candidate_serve="${MEMAGING_BENCH_CANDIDATE_SERVE:-}"
if [[ -n "$candidate_serve" && -f "$candidate_serve" ]]; then
    cargo run -q -p memaging-bench --bin bench-diff -- \
        BENCH_serve.json "$candidate_serve" --tolerance 3.0
fi

# Same gate over the replica-fleet profile (exp_fleet writes a fresh one;
# set MEMAGING_BENCH_CANDIDATE_FLEET to diff it against the committed
# baseline). The committed baseline must carry the wear-imbalance gate
# (exp_fleet asserts wear-balancing strictly beats round-robin when it
# runs) and the throughput-scaling extra (taken from 16 concurrent
# clients; exp_fleet asserts its floor).
for key in fleet_wear_imbalance fleet_wear_imbalance_round_robin fleet_scaling \
           fleet_retires; do
    grep -q "\"$key\"" BENCH_fleet.json \
        || { echo "check.sh: BENCH_fleet.json is missing extra \"$key\"" >&2; exit 1; }
done
cargo run -q -p memaging-bench --bin bench-diff -- BENCH_fleet.json BENCH_fleet.json
candidate_fleet="${MEMAGING_BENCH_CANDIDATE_FLEET:-}"
if [[ -n "$candidate_fleet" && -f "$candidate_fleet" ]]; then
    cargo run -q -p memaging-bench --bin bench-diff -- \
        BENCH_fleet.json "$candidate_fleet" --tolerance 3.0
fi

# Offline trace analyzer over the committed flight dumps: every committed
# line must parse, and identical dumps must diff clean (exit 0, zero
# regressions) — the analyzer's own regression gate applied to itself.
# The fleet dumps exercise the per-replica folding path.
for dump in results/flight_serve_*.jsonl results/flight_fleet_*.jsonl; do
    cargo run -q -p memaging --bin memaging -- analyze "$dump" > /dev/null
done
cargo run -q -p memaging --bin memaging -- analyze \
    results/flight_serve_1t.jsonl results/flight_serve_1t.jsonl > /dev/null
cargo run -q -p memaging --bin memaging -- analyze \
    results/flight_fleet_r4_1t.jsonl results/flight_fleet_r4_1t.jsonl > /dev/null

echo "check.sh: all green"
