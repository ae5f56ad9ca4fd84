#!/bin/bash
# Regenerates the recorded tables/figures (see EXPERIMENTS.md).
#   ./run_experiments.sh          every table/figure: headline experiments
#                                 (table2/3, fig6) at scale 0.05, the
#                                 APAN-only sweeps (fig7/8, ablations) at
#                                 0.02 to keep single-core wall time sane
#   ./run_experiments.sh suite2   the longer re-run of table3 and the
#                                 sweeps (lr 0.002, more epochs, 2 seeds)
#   ./run_experiments.sh suite3   table2/fig6 again plus the inductive split
set -e
export APAN_FEAT_DIM=48 APAN_SEEDS=1 APAN_LR=0.003 APAN_NEIGHBORS=5 APAN_OUT=bench-results
mkdir -p logs "$APAN_OUT"
run() { echo "=== $1 ($(date +%H:%M:%S)) ==="; ./target/release/$1 2>&1 | tee logs/$1.log; }
suite="${1:-all}"
case "$suite" in
all)
    APAN_SCALE=0.05                              run table1
    APAN_SCALE=0.05 APAN_EPOCHS=6 APAN_BATCH=50  run table2
    APAN_SCALE=0.05 APAN_EPOCHS=6 APAN_BATCH=50  run fig6
    APAN_SCALE=0.05 APAN_EPOCHS=5 APAN_BATCH=50  run table3
    APAN_SCALE=0.02 APAN_EPOCHS=4 APAN_BATCH=100 run fig7
    APAN_SCALE=0.02 APAN_EPOCHS=5 APAN_BATCH=50  run fig8
    APAN_SCALE=0.02 APAN_EPOCHS=5 APAN_BATCH=50  run ablations
    ;;
suite2)
    export APAN_LR=0.002
    APAN_SCALE=0.05 APAN_EPOCHS=5  APAN_BATCH=50               run table3
    APAN_SCALE=0.02 APAN_EPOCHS=10 APAN_BATCH=50  APAN_SEEDS=2 run fig8
    APAN_SCALE=0.02 APAN_EPOCHS=10 APAN_BATCH=50  APAN_SEEDS=2 run ablations
    APAN_SCALE=0.02 APAN_EPOCHS=8  APAN_BATCH=100              run fig7
    ;;
suite3)
    APAN_SCALE=0.05 APAN_EPOCHS=6 APAN_BATCH=50 run table2
    APAN_SCALE=0.05 APAN_EPOCHS=6 APAN_BATCH=50 run fig6
    APAN_SCALE=0.02 APAN_EPOCHS=8 APAN_BATCH=50 APAN_LR=0.002 run inductive
    ;;
*)
    echo "usage: $0 [all|suite2|suite3]" >&2
    exit 2
    ;;
esac
echo "=== $suite done ($(date +%H:%M:%S)) ==="
