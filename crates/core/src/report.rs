//! Interpretability reporting (§4.3): operators can inspect the pruning
//! strategy the RL agent generated before committing the ILP to it.

use np_topology::{LinkId, Network};

/// A human-auditable summary of the first-stage pruning.
#[derive(Clone, Debug)]
pub struct PruningReport {
    /// Per-link `(baseline, first-stage plan, pruned bound, spectrum bound)`
    /// in capacity units.
    pub per_link: Vec<(LinkId, u32, u32, u32, u32)>,
    /// Relax factor used.
    pub alpha: f64,
}

impl PruningReport {
    /// Build from the pieces the pipeline already has.
    pub fn new(
        net: &Network,
        plan_units: &[u32],
        pruned: &[u32],
        spectrum: &[u32],
        alpha: f64,
    ) -> Self {
        let per_link = net
            .link_ids()
            .map(|l| {
                let i = l.index();
                (l, net.base_units(l), plan_units[i], pruned[i], spectrum[i])
            })
            .collect();
        PruningReport { per_link, alpha }
    }

    /// log10 of the search-space size (product of per-link ranges) under
    /// the pruned bounds.
    pub fn pruned_space_log10(&self) -> f64 {
        self.per_link
            .iter()
            .map(|&(_, base, _, ub, _)| f64::from(ub.saturating_sub(base) + 1).log10())
            .sum()
    }

    /// log10 of the unpruned (spectrum-only) search-space size.
    pub fn full_space_log10(&self) -> f64 {
        self.per_link
            .iter()
            .map(|&(_, base, _, _, spec)| f64::from(spec.saturating_sub(base) + 1).log10())
            .sum()
    }

    /// Orders of magnitude the RL stage removed from the ILP search space
    /// — the headline interpretability number.
    pub fn reduction_log10(&self) -> f64 {
        (self.full_space_log10() - self.pruned_space_log10()).max(0.0)
    }

    /// Render a table an operator can eyeball, mirroring the paper's
    /// "examine the solution from the RL agent" workflow.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Pruning report (alpha = {}): search space 10^{:.1} -> 10^{:.1} \
             ({:.1} orders of magnitude removed)\n",
            self.alpha,
            self.full_space_log10(),
            self.pruned_space_log10(),
            self.reduction_log10()
        ));
        out.push_str("link    base  rl-plan  bound  spectrum\n");
        for &(l, base, plan, ub, spec) in &self.per_link {
            out.push_str(&format!(
                "{l:<7} {base:>4}  {plan:>7}  {ub:>5}  {spec:>8}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_topology::{generator::GeneratorConfig, TopologyPreset};

    #[test]
    fn reduction_is_nonnegative_and_reported() {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        let n = net.links().len();
        let plan: Vec<u32> = net.link_ids().map(|l| net.base_units(l) + 2).collect();
        let pruned: Vec<u32> = plan.iter().map(|&u| u + 1).collect();
        let spectrum = crate::master::MasterConfig::spectrum_bounds(&net);
        let report = PruningReport::new(&net, &plan, &pruned, &spectrum, 1.5);
        assert_eq!(report.per_link.len(), n);
        assert!(
            report.reduction_log10() > 0.0,
            "spectrum bounds dwarf pruned bounds"
        );
        let text = report.describe();
        assert!(text.contains("alpha = 1.5"));
        assert!(text.lines().count() >= n + 2);
    }

    #[test]
    fn equal_bounds_mean_zero_reduction() {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        let spectrum = crate::master::MasterConfig::spectrum_bounds(&net);
        let plan = spectrum.clone();
        let report = PruningReport::new(&net, &plan, &spectrum, &spectrum, 2.0);
        assert_eq!(report.reduction_log10(), 0.0);
    }
}
