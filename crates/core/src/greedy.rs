//! Certificate-guided greedy augmentation.
//!
//! Repeatedly ask the evaluator for a violated metric cut and buy the
//! cheapest capacity that makes progress against it. The result is a
//! feasible (far from optimal) plan used for (a) the RL reward
//! normalizer, (b) a warm-start cutoff for the ILP stage, and (c) the
//! fallback initial plan if RL training is cut short before finding a
//! feasible trajectory.

use np_eval::{CheckConfig, EvalConfig, PlanEvaluator, Separation};
use np_telemetry::Telemetry;
use np_topology::{LinkId, Network, TopologyError};

/// Failure modes of the augmentation loop.
#[derive(Clone, Debug, PartialEq)]
pub enum GreedyError {
    /// A scenario is structurally infeasible: no capacities can fix it.
    StructurallyInfeasible(usize),
    /// Spectrum ran out before the cuts were satisfied.
    SpectrumExhausted,
    /// Iteration safety cap hit.
    IterationLimit,
}

impl std::fmt::Display for GreedyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GreedyError::StructurallyInfeasible(s) => {
                write!(f, "scenario {s} is structurally infeasible")
            }
            GreedyError::SpectrumExhausted => write!(f, "spectrum exhausted before feasibility"),
            GreedyError::IterationLimit => write!(f, "greedy augmentation iteration cap hit"),
        }
    }
}

impl std::error::Error for GreedyError {}

/// Augment `net`'s capacities in place until the plan is feasible.
/// Returns the resulting plan cost (Eq. 1, relative to the baseline).
pub fn greedy_augment(net: &mut Network, eval_cfg: EvalConfig) -> Result<f64, GreedyError> {
    greedy_augment_telemetry(net, eval_cfg, Telemetry::noop())
}

/// [`greedy_augment`], reporting its evaluator's counters through `tel`.
pub fn greedy_augment_telemetry(
    net: &mut Network,
    eval_cfg: EvalConfig,
    tel: Telemetry,
) -> Result<f64, GreedyError> {
    // The cut's coefficients choose what is bought, so its cuts stay the
    // ones the MWU passes or the LP certify (DESIGN.md §17, "Rounding").
    let eval_cfg = EvalConfig {
        check: CheckConfig {
            round_node_cuts: false,
            ..eval_cfg.check
        },
        ..eval_cfg
    };
    let mut evaluator = PlanEvaluator::with_telemetry(net, eval_cfg, tel);
    let max_iters = 200_000usize;
    for _ in 0..max_iters {
        let caps: Vec<f64> = net.link_ids().map(|l| net.capacity_gbps(l)).collect();
        match evaluator.separate(&caps, 1) {
            Separation::Feasible => return Ok(net.plan_cost()),
            Separation::StructurallyInfeasible(s) => {
                return Err(GreedyError::StructurallyInfeasible(s))
            }
            Separation::Cuts(cuts) => {
                let cut = &cuts[0];
                // Pick the link with the best cut-progress per cost that
                // still has spectrum room.
                let mut best: Option<(f64, LinkId)> = None;
                for &(link, w) in &cut.coeff {
                    if w <= 0.0 || !net.can_add_units(link, 1) {
                        continue;
                    }
                    let marginal = net.marginal_cost(link, 1).max(1e-9);
                    let score = w * net.unit_gbps / marginal;
                    if best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, link));
                    }
                }
                let Some((_, link)) = best else {
                    return Err(GreedyError::SpectrumExhausted);
                };
                // Buy enough units on this link to close the cut's deficit
                // (capped by spectrum), so progress per iteration is large.
                let w = cut
                    .coeff
                    .iter()
                    .find(|&&(l, _)| l == link)
                    .map(|&(_, w)| w)
                    .expect("chosen link is in the cut");
                let deficit =
                    -(cut.slack(|l| f64::from(net.link(l).capacity_units) * net.unit_gbps));
                let wanted = ((deficit / (w * net.unit_gbps)).ceil() as u32).max(1);
                let room = net.spectrum_room_units(link);
                let units = wanted.min(room).max(1);
                net.add_units(link, units).map_err(|e| match e {
                    TopologyError::SpectrumExceeded { .. } => GreedyError::SpectrumExhausted,
                    other => panic!("unexpected augmentation failure: {other}"),
                })?;
            }
        }
    }
    Err(GreedyError::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_eval::PlanEvaluator;
    use np_topology::{generator::GeneratorConfig, TopologyPreset};

    #[test]
    fn augments_dark_network_to_feasibility() {
        let mut net = GeneratorConfig::a_variant(0.0).generate();
        let cost = greedy_augment(&mut net, EvalConfig::default()).expect("feasible");
        assert!(cost > 0.0);
        // Independent verification with a fresh evaluator.
        let mut check = PlanEvaluator::new(&net, EvalConfig::default());
        assert!(check.check_network(&net).feasible);
    }

    #[test]
    fn already_feasible_plans_cost_nothing_extra() {
        let mut net = GeneratorConfig::a_variant(0.0).generate();
        greedy_augment(&mut net, EvalConfig::default()).unwrap();
        let snap = net.snapshot();
        // Re-running on the (already feasible) plan adds nothing.
        let cost2 = greedy_augment(&mut net, EvalConfig::default()).unwrap();
        assert_eq!(net.snapshot(), snap);
        assert!((cost2 - net.plan_cost()).abs() < 1e-12);
    }

    #[test]
    fn works_across_presets() {
        for preset in [TopologyPreset::A, TopologyPreset::B] {
            let mut net = GeneratorConfig::preset(preset).generate();
            let cost = greedy_augment(&mut net, EvalConfig::default())
                .unwrap_or_else(|e| panic!("{:?} failed: {e}", preset));
            assert!(cost >= 0.0);
        }
    }
}
