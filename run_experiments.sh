#!/bin/sh
# Regenerate every figure (quick calibration). See EXPERIMENTS.md.
#
# Figs. 8, 9, 13 and 16 are grids of planning requests
# (results/grids/<fig>.json): `neuroplan sweep` writes one JSON per cell
# under results/runs/<fig>/ and a summary of them, which becomes
# results/<fig>.csv. The other figures vary knobs a request cannot name
# and keep their np-bench binaries ("$@" is passed to them).
set -ex
cargo build --release -p neuroplan --bin neuroplan
for fig in fig08 fig09 fig13 fig16; do
    ./target/release/neuroplan sweep --grid results/grids/$fig.json --out results/runs/$fig
    cp results/runs/$fig/summary.csv results/$fig.csv
done
cargo run --release -p np-bench --bin fig07_eval_efficiency -- "$@"
cargo run --release -p np-bench --bin fig10_gnn_layers -- "$@"
cargo run --release -p np-bench --bin fig11_mlp_hidden -- "$@"
cargo run --release -p np-bench --bin fig12_capacity_units -- "$@"
