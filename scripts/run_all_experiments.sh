#!/usr/bin/env bash
# Regenerates every table and figure of the paper into results/ (text +
# CSV where the experiment is tabular).
#
#   ./scripts/run_all_experiments.sh [extra bench args...]
#
# Pass --full to run at archive sizes, or --ucr_dir=PATH to use the real
# UCR Archive. Requires a completed build in ./build.

set -euo pipefail

cd "$(dirname "$0")/.."
BENCH=build/bench
OUT=results
mkdir -p "$OUT"

run() {
  local name=$1
  shift
  echo "=== $name ==="
  "$BENCH/$name" "$@" | tee "$OUT/$name.txt"
  echo
}

run_csv() {
  local name=$1
  shift
  echo "=== $name ==="
  "$BENCH/$name" --csv="$OUT/$name.csv" "$@" | tee "$OUT/$name.txt"
  echo
}

run_csv exp_table2_base_topk "$@"
run_csv exp_table3_distribution_fit "$@"
run_csv exp_table4_efficiency "$@"
# Table V also emits the per-stage span trace + metrics report
# (obs/export.h schema, see docs/observability.md).
echo "=== exp_table5_breakdown ==="
"$BENCH/exp_table5_breakdown" --json="$OUT/BENCH_table5.json" "$@" |
  tee "$OUT/exp_table5_breakdown.txt"
echo
run_csv exp_table6_accuracy "$@"
run_csv exp_table7_lsh "$@"
run exp_fig3_4_motivation "$@"
run exp_fig9_efficiency_vs_k "$@"
run_csv exp_fig10_dabf_dtcr "$@"
run exp_fig11_cd_diagram "$@"
run_csv exp_fig12_accuracy_vs_k "$@"
run exp_fig13_interpretability
run exp_ablation_sampling "$@"
run_csv exp_ablation_backend "$@"
run_csv exp_ablation_profile "$@"
run_csv exp_pruning_quality "$@"

echo "=== micro_kernels ==="
"$BENCH/micro_kernels" --benchmark_min_time=0.05 | tee "$OUT/micro_kernels.txt"

# Machine-readable before/after numbers for the MatrixProfileEngine:
# historic per-ordered-pair AbJoinProfile construction vs the pair-symmetric
# cached engine, per ComputeInstanceProfile call and on the Table V
# candidate-generation workload, at 1 and 8 threads.
echo "=== BENCH_mp ==="
"$BENCH/micro_kernels" \
  --benchmark_filter='InstanceProfile|TableVProfile' \
  --benchmark_min_time=0.1 \
  --benchmark_out="$OUT/BENCH_mp.json" \
  --benchmark_out_format=json |
  tee "$OUT/BENCH_mp.txt"

# Machine-readable numbers for every supported core/simd.h kernel backend
# against the scalar reference (per-kernel speedup + checksum equality)
# and PredictBatch per backend. bench_simd writes the JSON itself.
echo "=== BENCH_simd ==="
"$BENCH/bench_simd" --out="$OUT/BENCH_simd.json" | tee "$OUT/BENCH_simd.txt"

# Per-metric cost/accuracy comparison over every registered MetricPolicy
# (QT sweep, transform batch, end-to-end fit). bench_metric writes the
# JSON itself.
echo "=== BENCH_metric ==="
"$BENCH/bench_metric" --out="$OUT/BENCH_metric.json" |
  tee "$OUT/BENCH_metric.txt"

# Spawn-per-region vs persistent-pool ParallelFor on short regions at 2
# and 8 threads (per-launch cost, checksum equality, pool.* counters).
# bench_pool writes the JSON itself and exits nonzero on a checksum
# mismatch.
echo "=== BENCH_pool ==="
"$BENCH/bench_pool" --out="$OUT/BENCH_pool.json" | tee "$OUT/BENCH_pool.txt"

# All-pairs join timings (engine batch and candidate generation, 1 and N
# threads) and warm-batch allocation counts. bench_join writes the JSON
# itself and exits nonzero if a checksum differs from the free
# AbJoinProfile kernel or across thread counts.
echo "=== BENCH_join ==="
"$BENCH/bench_join" --json="$OUT/BENCH_join.json" | tee "$OUT/BENCH_join.txt"

# Served classify round trips against a loopback server at 1 and 8
# closed-loop clients (throughput, client p50/p99, the server's queue-wait /
# batch-compute / reply-write split) and a hot-swap soak. bench_serve
# writes the JSON itself and exits nonzero if a served label differs from
# the offline PredictBatch of the model version it reports.
echo "=== BENCH_serve ==="
"$BENCH/bench_serve" --json="$OUT/BENCH_serve.json" |
  tee "$OUT/BENCH_serve.txt"

# Out-of-core columnar store: discovery + transform on a corpus larger
# than the chunk-residency budget, bitwise-diffed against the in-RAM path.
# bench_store writes the JSON itself and exits nonzero if results diverge
# or peak resident chunk bytes exceed the budget.
echo "=== BENCH_store ==="
"$BENCH/bench_store" --json="$OUT/BENCH_store.json" |
  tee "$OUT/BENCH_store.txt"

# The machine-readable before/after artefacts double as repo-root files so
# tooling (and the acceptance checks) can diff them without knowing the
# results/ layout.
cp "$OUT"/BENCH_*.json .

echo
echo "All outputs under $OUT/ (BENCH_*.json copied to the repo root)"
