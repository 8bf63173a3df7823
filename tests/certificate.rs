//! Plan certificates: what the evaluator's witnesses certify, and what
//! `verify` refuses.
//!
//! Every quick plan of presets A–C and of each family at tiers A and B
//! gets a certificate that proves every scenario; six ways of breaking a
//! certificate, or the plan under it, are each refused.

use neuroplan::certificate::{planned, TOL};
use neuroplan::{
    certify, validate_plan, verify, Certificate, NeuroPlan, NeuroPlanConfig, PlanError,
};
use np_topology::generator::{GeneratorConfig, TopologyPreset};
use np_topology::{FailureId, FamilyConfig, Network, SizeTier, TopologyFamily};

fn quick_plan(net: &Network) -> Vec<u32> {
    let result = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(1)).plan(net);
    validate_plan(net, &result.final_units).expect("a quick plan validates");
    result.final_units
}

/// The certificate of `units`, which must prove every scenario.
fn certified(net: &Network, units: &[u32], what: &str) -> Certificate {
    let cert = certify(net, units).unwrap_or_else(|| panic!("{what}: no certificate"));
    assert_eq!(cert.scenarios.len(), net.failures().len() + 1, "{what}");
    assert_eq!(verify(net, units, &cert), Ok(()), "{what}");
    cert
}

#[test]
fn every_quick_plan_is_certified_on_every_scenario() {
    for preset in [TopologyPreset::A, TopologyPreset::B, TopologyPreset::C] {
        let net = GeneratorConfig::preset(preset).generate();
        certified(&net, &quick_plan(&net), &format!("preset {preset:?}"));
    }
    for family in TopologyFamily::ALL {
        for tier in [SizeTier::A, SizeTier::B] {
            let net = FamilyConfig::new(family, tier).generate();
            let what = format!("{} tier {}", family.name(), tier.name());
            certified(&net, &quick_plan(&net), &what);
        }
    }
}

fn refused(net: &Network, units: &[u32], cert: &Certificate, what: &str) -> PlanError {
    verify(net, units, cert).expect_err(what)
}

/// The largest load any scenario of `cert` puts on one direction of
/// each link.
fn peak_loads(net: &Network, cert: &Certificate) -> Vec<f64> {
    let mut peak = vec![0.0f64; net.links().len()];
    for paths in &cert.scenarios {
        let mut load = vec![0.0; 2 * peak.len()];
        for p in paths {
            for &(l, forward) in &p.links {
                load[2 * l.index() + usize::from(!forward)] += p.amount;
            }
        }
        for (i, x) in load.into_iter().enumerate() {
            peak[i / 2] = peak[i / 2].max(x);
        }
    }
    peak
}

#[test]
fn each_way_of_breaking_a_certificate_is_refused() {
    let net = GeneratorConfig::preset(TopologyPreset::B).generate();
    let units = quick_plan(&net);
    let cert = certified(&net, &units, "preset B");

    // One unit less on a loaded link: a link whose load needs every unit.
    let peak = peak_loads(&net, &cert);
    let loaded = net.link_ids().find_map(|l| {
        let mut less = units.clone();
        less[l.index()] = less[l.index()].checked_sub(1)?;
        let cap = planned(&net, &less).ok()?.capacity_gbps(l);
        (peak[l.index()] > cap * (1.0 + TOL)).then_some(less)
    });
    let less = loaded.expect("a plan of minimum cost loads some link to its last unit");
    let e = refused(&net, &less, &cert, "one unit less");
    assert!(matches!(e, PlanError::Uncertified { .. }), "{e:?}");

    // The largest path of the no-failure scenario, scaled or dropped.
    let biggest = (0..cert.scenarios[0].len())
        .max_by(|&a, &b| {
            let amount = |i: usize| cert.scenarios[0][i].amount;
            amount(a).total_cmp(&amount(b))
        })
        .expect("the no-failure scenario routes something");
    let mut scaled = cert.clone();
    scaled.scenarios[0][biggest].amount *= 1.0 - 1e-6;
    assert_eq!(
        refused(&net, &units, &scaled, "scaled"),
        PlanError::Uncertified { scenario: 0 }
    );
    let mut dropped = cert.clone();
    dropped.scenarios[0].remove(biggest);
    assert_eq!(
        refused(&net, &units, &dropped, "dropped"),
        PlanError::Uncertified { scenario: 0 }
    );

    // A path through a link some failure kills, in that failure's scenario.
    let (k, path) = (1..cert.scenarios.len())
        .find_map(|k| {
            let failure = Some(FailureId::new(k - 1));
            let dead = |p: &&np_topology::PathFlow| {
                p.links.iter().any(|&(l, _)| !net.link_alive(l, failure))
            };
            cert.scenarios[0].iter().find(dead).map(|p| (k, p.clone()))
        })
        .expect("some failure kills a link the no-failure routing uses");
    let mut through_dead = cert.clone();
    through_dead.scenarios[k].push(path);
    assert_eq!(
        refused(&net, &units, &through_dead, "dead link"),
        PlanError::Uncertified { scenario: k }
    );

    // A path that stops one link short of its destination.
    let mut short = cert.clone();
    let walked = short.scenarios[0][biggest].links.pop();
    assert!(walked.is_some(), "a path between two sites walks a link");
    assert_eq!(
        refused(&net, &units, &short, "short"),
        PlanError::Uncertified { scenario: 0 }
    );

    // The certificate of the same preset at another seed.
    let mut other = GeneratorConfig::preset(TopologyPreset::B);
    other.seed += 1;
    let other = other.generate();
    let foreign = certified(&other, &quick_plan(&other), "preset B, next seed");
    let e = refused(&net, &units, &foreign, "another seed's certificate");
    assert!(matches!(e, PlanError::Uncertified { .. }), "{e:?}");
}
