//! Plan certificates: a feasibility proof that is checked in one pass
//! over the proof, by code that shares nothing with the evaluator that
//! found it (DESIGN.md §15).
//!
//! A [`Certificate`] holds, for every scenario of an instance, path flows
//! ([`PathFlow`]): a site pair, an amount and the links walked, each with
//! its direction. [`verify`] accepts it for a plan when every path walks
//! links alive in its scenario from its pair's source to its destination,
//! the amounts cover the demand of the flows active there, and no link
//! direction carries more than the plan's capacity. Finding the paths is
//! the evaluator's job ([`crate::certify`]); checking them takes the
//! instance and this file.

use crate::pipeline::PlanError;
use np_topology::{FailureId, LinkId, Network, PathFlow, SiteId, TopologyError};

/// The one tolerance of [`verify`]: an amount may fall short of a demand,
/// and a load exceed a capacity, by this fraction of the larger of the
/// value and 1 Gbps.
pub const TOL: f64 = 1e-9;

fn slack(x: f64) -> f64 {
    TOL * x.max(1.0)
}

/// Path flows per scenario, in dense order: 0 is the no-failure state,
/// `k` failure `k − 1`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Certificate {
    /// Each scenario's paths.
    pub scenarios: Vec<Vec<PathFlow>>,
}

/// Apply a units vector that comes from outside the solver (a plan file,
/// a daemon request) in two passes, so that transient spectrum states
/// never block a valid final configuration: the first link that cannot
/// take its entry (Eq. 4 or Eq. 5) is an error, not a panic.
pub fn try_apply_units(net: &mut Network, units: &[u32]) -> Result<(), TopologyError> {
    let ids: Vec<LinkId> = net.link_ids().collect();
    for &l in &ids {
        if units[l.index()] < net.link(l).capacity_units {
            net.set_units(l, units[l.index()])?;
        }
    }
    for &l in &ids {
        if units[l.index()] > net.link(l).capacity_units {
            net.set_units(l, units[l.index()])?;
        }
    }
    Ok(())
}

/// `net` at the capacities `units` give it, or why it cannot take them:
/// one entry per link, none below its minimum (Eq. 4) or beyond the
/// spectrum of a fiber on its path (Eq. 5). The link checks that
/// [`crate::validate_plan`] and [`verify`] share.
pub fn planned(net: &Network, units: &[u32]) -> Result<Network, PlanError> {
    let expected = net.link_ids().count();
    if units.len() != expected {
        let got = units.len();
        return Err(PlanError::WrongLength { expected, got });
    }
    let mut planned = net.clone();
    try_apply_units(&mut planned, units).map_err(|e| match e {
        TopologyError::BelowMinimumCapacity(link) => PlanError::BelowMinimum { link: link.index() },
        TopologyError::SpectrumExceeded { link, fiber } => PlanError::SpectrumExceeded {
            link: link.index(),
            fiber: fiber.index(),
        },
        other => unreachable!("set_units fails only on Eq. 4 or Eq. 5: {other}"),
    })?;
    Ok(planned)
}

/// Whether `cert` proves `units` feasible on `net`: the link checks of
/// [`planned`], then per scenario every path walks links alive there
/// from its source to its destination with a finite non-negative amount,
/// the amounts of each site pair cover the demand of its flows active
/// there, and no link direction carries more than its capacity, all
/// within [`TOL`]. A refusal names the first scenario the certificate
/// does not prove; it is no verdict on the plan.
pub fn verify(net: &Network, units: &[u32], cert: &Certificate) -> Result<(), PlanError> {
    let planned = planned(net, units)?;
    let scenarios = net.failures().len() + 1;
    if cert.scenarios.len() != scenarios {
        let scenario = cert.scenarios.len().min(scenarios);
        return Err(PlanError::Uncertified { scenario });
    }
    // The demanded site pairs, sorted, and each flow's among them.
    let mut pairs: Vec<(SiteId, SiteId)> = net.flows().iter().map(|f| (f.src, f.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let pair_of: Vec<usize> = (net.flows().iter())
        .map(|f| {
            pairs
                .binary_search(&(f.src, f.dst))
                .expect("every pair is listed")
        })
        .collect();
    let caps: Vec<f64> = planned
        .link_ids()
        .map(|l| planned.capacity_gbps(l))
        .collect();
    let (mut demand, mut covered) = (vec![0.0; pairs.len()], vec![0.0; pairs.len()]);
    // Per link, the load forward then backward.
    let mut load = vec![0.0; 2 * caps.len()];
    for (k, paths) in cert.scenarios.iter().enumerate() {
        let failure = k.checked_sub(1).map(FailureId::new);
        demand.fill(0.0);
        covered.fill(0.0);
        load.fill(0.0);
        for f in net.flow_ids().filter(|&f| net.flow_active(f, failure)) {
            demand[pair_of[f.index()]] += net.flow(f).demand_gbps;
        }
        for p in paths {
            if !walks(net, p, failure) {
                return Err(PlanError::Uncertified { scenario: k });
            }
            for &(l, forward) in &p.links {
                load[2 * l.index() + usize::from(!forward)] += p.amount;
            }
            if let Ok(j) = pairs.binary_search(&(p.src, p.dst)) {
                covered[j] += p.amount;
            }
        }
        let short = demand.iter().zip(&covered).any(|(&d, &c)| c < d - slack(d));
        let over = (load.iter().enumerate()).any(|(i, &x)| x > caps[i / 2] + slack(caps[i / 2]));
        if short || over {
            return Err(PlanError::Uncertified { scenario: k });
        }
    }
    Ok(())
}

/// Whether `p` carries a finite, non-negative amount from its source to
/// its destination over links alive under `failure`.
fn walks(net: &Network, p: &PathFlow, failure: Option<FailureId>) -> bool {
    if !(p.amount >= 0.0 && p.amount.is_finite()) {
        return false;
    }
    let mut at = p.src;
    for &(l, forward) in &p.links {
        if l.index() >= net.links().len() || !net.link_alive(l, failure) {
            return false;
        }
        let link = net.link(l);
        let (from, to) = if forward {
            (link.src, link.dst)
        } else {
            (link.dst, link.src)
        };
        if from != at {
            return false;
        }
        at = to;
    }
    at == p.dst
}
