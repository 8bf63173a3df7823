#!/bin/sh
# Regenerate every figure (quick calibration). See EXPERIMENTS.md.
set -x
cargo run --release -p np-bench --bin fig07_eval_efficiency -- "$@"
cargo run --release -p np-bench --bin fig08_small_scale_optimality -- "$@"
cargo run --release -p np-bench --bin fig09_large_scale -- "$@"
cargo run --release -p np-bench --bin fig10_gnn_layers -- "$@"
cargo run --release -p np-bench --bin fig11_mlp_hidden -- "$@"
cargo run --release -p np-bench --bin fig12_capacity_units -- "$@"
cargo run --release -p np-bench --bin fig13_relax_factor -- "$@"
