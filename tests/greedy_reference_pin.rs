//! The greedy reference plans of the benchmark ledger, pinned bit for bit.
//!
//! `greedy_augment` under the planner's own evaluator configuration is the
//! denominator of `cost_ratio` on `plan-wan-b`, `plan-wan-c`,
//! `serve-cold-a` and `serve-warm-a`, and the RL reward scale. It buys
//! capacity cut by cut from the Benders separator, so a separator change
//! that certifies a *different* cut for the same verdict can move which
//! links it buys, and with them the reference cost: the ledger would then
//! read another ratio for a plan whose own bits did not move. These are
//! the costs on the ledger's pinned instances (presets B and C as
//! calibrated, preset A at the four serve seeds), read as `f64::to_bits`.
//! Re-record only in a commit that says which reference moved and why.

use neuroplan::{greedy_augment, NeuroPlanConfig};
use np_topology::generator::{GeneratorConfig, TopologyPreset};

/// `(preset, instance seed, cost bits)` in ledger order; no seed means
/// the preset as calibrated.
const PINNED: [(TopologyPreset, Option<u64>, u64); 6] = [
    (TopologyPreset::B, None, 0x409b_34ea_566e_3081),
    (TopologyPreset::C, None, 0x40a3_f071_a654_da1d),
    (TopologyPreset::A, Some(4), 0x40a2_ea6f_34fa_6eea),
    (TopologyPreset::A, Some(5), 0x4091_2b4f_0f5c_7b84),
    (TopologyPreset::A, Some(7), 0x4062_aa8f_df34_86dc),
    (TopologyPreset::A, Some(9), 0x40a2_9013_b9b5_228b),
];

#[test]
fn greedy_references_are_the_bits_the_ledger_divides_by() {
    let eval = NeuroPlanConfig::default().with_workers(1).eval;
    for (preset, seed, want) in PINNED {
        let mut cfg = GeneratorConfig::preset(preset);
        cfg.seed = seed.unwrap_or(cfg.seed);
        let name = format!("preset {} seed {}", preset.name(), cfg.seed);
        let mut net = cfg.try_generate().expect("ledger instances generate");
        let cost = greedy_augment(&mut net, eval).expect("ledger instances admit a greedy plan");
        assert_eq!(
            cost.to_bits(),
            want,
            "{name}: greedy reference moved to {cost} ({:#x})",
            cost.to_bits()
        );
    }
}
