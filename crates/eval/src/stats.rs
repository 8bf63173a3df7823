//! Evaluator instrumentation, the raw material of Figure 7.

use std::time::Duration;

/// Counters and timing accumulated by the evaluator. All costs of the
/// verdict pipeline are visible here so the Fig. 7 harness can attribute
/// speedups to source aggregation, stateful checking and certificate
/// reuse individually.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EvalStats {
    /// Scenario checks actually executed (after stateful skipping).
    pub scenario_checks: u64,
    /// Scenario checks skipped because of the stateful cursor.
    pub stateful_skips: u64,
    /// Infeasibility decided by re-evaluating a stored certificate.
    pub cut_reuse_hits: u64,
    /// Feasibility decided by re-validating a stored witness flow (the
    /// positive twin of `cut_reuse_hits`).
    pub witness_reuse_hits: u64,
    /// Infeasibility decided by the degree (node-cut) shortcut.
    pub degree_cut_hits: u64,
    /// Greedy routing attempts / successes.
    pub greedy_attempts: u64,
    /// Greedy routing successes (feasibility witnesses).
    pub greedy_hits: u64,
    /// MWU solver invocations.
    pub mwu_calls: u64,
    /// Phases the MWU calls completed.
    pub mwu_phases: u64,
    /// Shortest-path trees the MWU calls grew.
    pub mwu_trees: u64,
    /// Paths the MWU calls routed.
    pub mwu_routings: u64,
    /// Exact LP invocations.
    pub lp_calls: u64,
    /// Path columns the exact LP generated (seed paths included).
    pub lp_columns: u64,
    /// Pricing rounds of the exact LP: one per restricted-master solve,
    /// each one shortest-path tree per commodity source.
    pub lp_pricing_rounds: u64,
    /// Exact LP calls that found no persistent model on the scenario and
    /// built one (the rest re-optimized a stored one).
    pub lp_cold_builds: u64,
    /// Exact LP answers `λ < 1` whose duals did not verify as a violated
    /// metric inequality, solved once more from scratch with exact
    /// pricing.
    pub lp_cold_retries: u64,
    /// Scenario contexts carried through a perturbation unchanged (up to
    /// a link renumbering) — warm bases and witnesses survive.
    pub perturb_ctx_reused: u64,
    /// Scenario contexts rebuilt from scratch after a perturbation.
    pub perturb_ctx_rebuilt: u64,
    /// Certificates carried through a perturbation (rescaled or
    /// remapped, never re-derived).
    pub perturb_certs_retained: u64,
    /// Certificates invalidated by a perturbation (the inducing
    /// scenario's graph gained a link, so the old metric bound may be
    /// loose).
    pub perturb_certs_dropped: u64,
    /// Coarse MWU passes that decided nothing on a scenario whose exact
    /// LP had answered since the scenario was last perturbed, so its warm
    /// re-solve ran instead of the fine pass (only where the exact LP may
    /// run).
    pub fine_passes_skipped: u64,
    /// Checks ended by an exactly verified violated node cut rounded from
    /// unit or inverse-capacity lengths before any MWU pass, or from the
    /// lengths of a coarse pass that decided nothing, before the fine pass
    /// (only where `round_node_cuts` is on).
    pub rounded_cuts: u64,
    /// Wall-clock time inside the evaluator.
    pub elapsed: Duration,
    /// Wall microseconds inside the MWU solver, populated only under the
    /// process-global profiling switch. Deliberately *not* part of
    /// [`EvalStats::counter_fields`]: timing is nondeterministic, and the
    /// telemetry counter stream must stay identical with profiling on or
    /// off. The evaluator reports these as `eval` spans instead.
    pub mwu_us: u64,
    /// Wall microseconds inside the exact concurrent-flow LP (profiling
    /// only; same span-not-counter contract as `mwu_us`).
    pub exact_lp_us: u64,
    /// Wall microseconds inside greedy routing: the first-fit attempt of
    /// a check and the top-up of a sub-threshold MWU flow (profiling
    /// only; same span-not-counter contract as `mwu_us`).
    pub greedy_us: u64,
}

impl EvalStats {
    /// The integer counters as `(name, value)` pairs, in a stable order.
    /// This is the bridge into the telemetry layer: serial and parallel
    /// evaluation publish through the same merged block, so they report
    /// the same counter names with the same meanings.
    pub fn counter_fields(&self) -> [(&'static str, u64); 22] {
        [
            ("scenario_checks", self.scenario_checks),
            ("stateful_skips", self.stateful_skips),
            ("cut_reuse_hits", self.cut_reuse_hits),
            ("witness_reuse_hits", self.witness_reuse_hits),
            ("degree_cut_hits", self.degree_cut_hits),
            ("greedy_attempts", self.greedy_attempts),
            ("greedy_hits", self.greedy_hits),
            ("mwu_calls", self.mwu_calls),
            ("mwu_phases", self.mwu_phases),
            ("mwu_trees", self.mwu_trees),
            ("mwu_routings", self.mwu_routings),
            ("lp_calls", self.lp_calls),
            ("lp_columns", self.lp_columns),
            ("lp_pricing_rounds", self.lp_pricing_rounds),
            ("lp_cold_builds", self.lp_cold_builds),
            ("lp_cold_retries", self.lp_cold_retries),
            ("perturb_ctx_reused", self.perturb_ctx_reused),
            ("perturb_ctx_rebuilt", self.perturb_ctx_rebuilt),
            ("perturb_certs_retained", self.perturb_certs_retained),
            ("perturb_certs_dropped", self.perturb_certs_dropped),
            ("fine_passes_skipped", self.fine_passes_skipped),
            ("rounded_cuts", self.rounded_cuts),
        ]
    }

    /// The stage times as `(span name, µs)` pairs, published as `eval`
    /// leaf spans under profiling.
    pub(crate) fn stage_us(&self) -> [(&'static str, u64); 3] {
        [
            ("mwu", self.mwu_us),
            ("exact_lp", self.exact_lp_us),
            ("greedy", self.greedy_us),
        ]
    }

    /// Merge another stats block into this one (used when joining
    /// parallel failure-group workers).
    pub fn merge(&mut self, other: &EvalStats) {
        self.scenario_checks += other.scenario_checks;
        self.stateful_skips += other.stateful_skips;
        self.cut_reuse_hits += other.cut_reuse_hits;
        self.witness_reuse_hits += other.witness_reuse_hits;
        self.degree_cut_hits += other.degree_cut_hits;
        self.greedy_attempts += other.greedy_attempts;
        self.greedy_hits += other.greedy_hits;
        self.mwu_calls += other.mwu_calls;
        self.mwu_phases += other.mwu_phases;
        self.mwu_trees += other.mwu_trees;
        self.mwu_routings += other.mwu_routings;
        self.lp_calls += other.lp_calls;
        self.lp_columns += other.lp_columns;
        self.lp_pricing_rounds += other.lp_pricing_rounds;
        self.lp_cold_builds += other.lp_cold_builds;
        self.lp_cold_retries += other.lp_cold_retries;
        self.perturb_ctx_reused += other.perturb_ctx_reused;
        self.perturb_ctx_rebuilt += other.perturb_ctx_rebuilt;
        self.perturb_certs_retained += other.perturb_certs_retained;
        self.perturb_certs_dropped += other.perturb_certs_dropped;
        self.fine_passes_skipped += other.fine_passes_skipped;
        self.rounded_cuts += other.rounded_cuts;
        self.elapsed += other.elapsed;
        self.mwu_us += other.mwu_us;
        self.exact_lp_us += other.exact_lp_us;
        self.greedy_us += other.greedy_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let mut a = EvalStats {
            scenario_checks: 2,
            greedy_hits: 1,
            ..Default::default()
        };
        let b = EvalStats {
            scenario_checks: 3,
            mwu_calls: 4,
            elapsed: Duration::from_millis(5),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.scenario_checks, 5);
        assert_eq!(a.greedy_hits, 1);
        assert_eq!(a.mwu_calls, 4);
        assert_eq!(a.elapsed, Duration::from_millis(5));
    }

    /// The `eval.*` counter names are a telemetry schema: dashboards and
    /// the benchmark ledger key on them. New counters extend the list;
    /// nothing is renamed or dropped.
    #[test]
    fn counter_names_are_pinned_and_every_counter_merges() {
        let names: Vec<&str> = EvalStats::default()
            .counter_fields()
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(
            names,
            [
                "scenario_checks",
                "stateful_skips",
                "cut_reuse_hits",
                "witness_reuse_hits",
                "degree_cut_hits",
                "greedy_attempts",
                "greedy_hits",
                "mwu_calls",
                "mwu_phases",
                "mwu_trees",
                "mwu_routings",
                "lp_calls",
                "lp_columns",
                "lp_pricing_rounds",
                "lp_cold_builds",
                "lp_cold_retries",
                "perturb_ctx_reused",
                "perturb_ctx_rebuilt",
                "perturb_certs_retained",
                "perturb_certs_dropped",
                "fine_passes_skipped",
                "rounded_cuts",
            ]
        );
        // A counter left out of `merge` would vanish from parallel runs.
        let one = EvalStats {
            mwu_phases: 5,
            mwu_trees: 6,
            mwu_routings: 7,
            lp_columns: 1,
            lp_pricing_rounds: 2,
            lp_cold_builds: 3,
            lp_cold_retries: 4,
            fine_passes_skipped: 8,
            rounded_cuts: 9,
            ..Default::default()
        };
        let mut sum = one.clone();
        sum.merge(&one);
        for ((_, twice), (_, once)) in sum.counter_fields().iter().zip(one.counter_fields()) {
            assert_eq!(*twice, 2 * once);
        }
    }
}
