//! The MWU on the packed shortest-path kernel against the loop it
//! replaced (np-flow's test oracle, included here by path), on the
//! graphs the planner really checks: every failure scenario of presets
//! A, B and C at the evaluator's two ε, under the capacities a greedy
//! plan ends on, under the network as generated, and with every link dark.

#[path = "../crates/flow/tests/reference/mod.rs"]
mod reference;

use neuroplan::greedy_augment;
use np_eval::scenario::build_all;
use np_eval::{CheckConfig, EvalConfig};
use np_flow::mwu::MwuConfig;
use np_topology::{generator::preset_network, LinkId, TopologyPreset};

#[test]
fn mwu_is_bit_identical_to_the_reference_on_every_preset_scenario() {
    let check = CheckConfig::default();
    for preset in [TopologyPreset::A, TopologyPreset::B, TopologyPreset::C] {
        let initial = preset_network(preset);
        let mut planned = initial.clone();
        greedy_augment(&mut planned, EvalConfig::default()).expect("presets are plannable");
        let mut ctxs = build_all(&initial, true);
        let per_link = |cap: &dyn Fn(LinkId) -> f64| initial.link_ids().map(cap).collect();
        let capacities: [(&str, Vec<f64>); 3] = [
            ("greedy plan", per_link(&|l| planned.capacity_gbps(l))),
            ("as generated", per_link(&|l| initial.capacity_gbps(l))),
            ("all dark", per_link(&|_| 0.0)),
        ];
        for (name, caps) in &capacities {
            for (i, ctx) in ctxs.iter_mut().enumerate() {
                ctx.refresh(|l| caps[l.index()]);
                for epsilon in [check.coarse_eps, check.fine_eps] {
                    let cfg = MwuConfig {
                        epsilon,
                        target_lambda: Some(1.0),
                        ..MwuConfig::default()
                    };
                    let what = format!("{preset:?} scenario {i}, {name}, eps {epsilon}");
                    reference::assert_mwu_matches_reference(
                        &ctx.graph,
                        &ctx.commodities,
                        &cfg,
                        &what,
                    );
                }
            }
        }
    }
}
