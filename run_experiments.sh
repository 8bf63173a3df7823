#!/bin/sh
# Regenerate every figure (quick calibration). See EXPERIMENTS.md.
#
# Figs. 8-13 and 16 are grids of planning requests
# (results/grids/<fig>.json): `neuroplan sweep` writes one JSON per cell
# under results/runs/<fig>/ and a summary of them, which becomes
# results/<fig>.csv. Fig. 7 varies evaluator knobs a request cannot name
# and keeps its np-bench binary ("$@" is passed to it).
set -ex
cargo build --release -p neuroplan --bin neuroplan
for fig in fig08 fig09 fig10 fig11 fig12 fig13 fig16; do
    ./target/release/neuroplan sweep --grid results/grids/$fig.json --out results/runs/$fig
    cp results/runs/$fig/summary.csv results/$fig.csv
done
cargo run --release -p np-bench --bin fig07_eval_efficiency -- "$@"
