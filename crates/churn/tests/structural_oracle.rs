//! `structurally_ok` against an independent reference: a breadth-first
//! search over per-scenario adjacency lists, written here and sharing no
//! code with the crate's check. Every instance below must get the same
//! boolean from both.

use np_churn::{generate_stream, structurally_ok};
use np_topology::{
    CosClass, CostModel, Failure, FailureKind, Fiber, FiberId, Flow, GeneratorConfig, IpLink,
    LinkId, Network, Perturbation, ReliabilityPolicy, Site, SiteId, TopologyPreset,
};

/// Whether every active flow of every scenario has a path of alive links
/// between its endpoints, by BFS over adjacency lists built per scenario.
fn oracle(net: &Network) -> bool {
    let n = net.sites().len();
    let scenarios = std::iter::once(None).chain(net.failure_ids().map(Some));
    for scenario in scenarios {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for l in net.link_ids() {
            if net.link_alive(l, scenario) {
                let link = net.link(l);
                adj[link.src.index()].push(link.dst.index());
                adj[link.dst.index()].push(link.src.index());
            }
        }
        for f in net.flow_ids() {
            if !net.flow_active(f, scenario) {
                continue;
            }
            let flow = net.flow(f);
            let mut seen = vec![false; n];
            let mut queue = std::collections::VecDeque::from([flow.src.index()]);
            seen[flow.src.index()] = true;
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
            if !seen[flow.dst.index()] {
                return false;
            }
        }
    }
    true
}

fn agree(net: &Network, what: &str) -> bool {
    let want = oracle(net);
    assert_eq!(structurally_ok(net), want, "{what}");
    want
}

fn preset(p: TopologyPreset) -> Network {
    GeneratorConfig::preset(p).generate()
}

#[test]
fn presets_agree_with_the_oracle() {
    for p in [TopologyPreset::A, TopologyPreset::B, TopologyPreset::C] {
        assert!(agree(&preset(p), &format!("preset {p:?}")));
    }
}

#[test]
fn every_generated_intermediate_instance_agrees() {
    for p in [TopologyPreset::A, TopologyPreset::B] {
        let net = preset(p);
        for seed in 0..10 {
            let mut cur = net.clone();
            for (k, ev) in generate_stream(&net, seed, 20).iter().enumerate() {
                let pert = ev.to_perturbation(&cur).expect("event resolves");
                cur.apply_perturbation(&pert).expect("event applies");
                let what = format!("preset {p:?} seed {seed} after event {k} ({ev})");
                assert!(
                    agree(&cur, &what),
                    "{what}: a generated stream stays feasible"
                );
            }
        }
    }
}

#[test]
fn every_single_link_removal_agrees() {
    for p in [TopologyPreset::A, TopologyPreset::B] {
        let net = preset(p);
        let (mut kept, mut refused) = (0, 0);
        for link in net.link_ids() {
            let mut next = net.clone();
            if next
                .apply_perturbation(&Perturbation::LinkRemove { link })
                .is_err()
            {
                continue;
            }
            if agree(&next, &format!("preset {p:?} without {link}")) {
                kept += 1;
            } else {
                refused += 1;
            }
        }
        assert!(
            kept > 0 && refused > 0,
            "preset {p:?}: {kept} kept, {refused} refused"
        );
    }
}

#[test]
fn every_step_of_link_stripping_agrees() {
    let mut net = GeneratorConfig::a_variant(0.5).generate();
    let mut step = 0;
    assert!(agree(&net, "before stripping"));
    while net.links().len() > 1 {
        let p = Perturbation::LinkRemove {
            link: LinkId::new(0),
        };
        if net.apply_perturbation(&p).is_err() {
            break;
        }
        step += 1;
        if !agree(&net, &format!("stripping step {step}")) {
            return;
        }
    }
    panic!("stripping links must eventually disconnect a flow");
}

/// Sites 0-1-2 on a line of fibers, one link per fiber, one flow 0→1 of
/// class `cos`, and the one scenario `failure`.
fn line(cos: CosClass, failure: FailureKind) -> Network {
    let sites = (0..3)
        .map(|i| Site {
            name: format!("s{i}"),
            pos: (f64::from(i) * 100.0, 0.0),
            is_datacenter: false,
        })
        .collect();
    let fibers = [(0, 1), (1, 2)]
        .iter()
        .map(|&(a, b)| Fiber {
            endpoints: (SiteId::new(a), SiteId::new(b)),
            length_km: 100.0,
            spectrum_ghz: 1000.0,
            build_cost: 5.0,
        })
        .collect();
    let links = [(0, 1), (1, 2)]
        .iter()
        .enumerate()
        .map(|(f, &(a, b))| IpLink {
            src: SiteId::new(a),
            dst: SiteId::new(b),
            fiber_path: vec![(FiberId::new(f), 1.0)],
            capacity_units: 1,
            min_units: 0,
            length_km: 100.0,
        })
        .collect();
    let flows = vec![Flow {
        src: SiteId::new(0),
        dst: SiteId::new(1),
        demand_gbps: 50.0,
        cos,
    }];
    let failures = vec![Failure {
        name: "only".into(),
        kind: failure,
    }];
    Network::new(
        sites,
        fibers,
        links,
        flows,
        failures,
        ReliabilityPolicy::default(),
        CostModel::default(),
        100.0,
    )
    .expect("line network is valid")
}

#[test]
fn a_failure_that_kills_a_must_carry_flows_only_link_is_refused() {
    let cut = FailureKind::FiberCut(FiberId::new(0));
    assert!(!agree(
        &line(CosClass::Gold, cut.clone()),
        "gold flow, its link cut"
    ));
    // A class the policy does not protect against the cut need not survive it.
    assert!(agree(
        &line(CosClass::Bronze, cut),
        "bronze flow, its link cut"
    ));
    // A flow whose endpoint is down is excused.
    let down = FailureKind::SiteDown(SiteId::new(1));
    assert!(agree(
        &line(CosClass::Gold, down),
        "gold flow, its sink down"
    ));
    // A cut elsewhere leaves the flow its link.
    let other = FailureKind::FiberCut(FiberId::new(1));
    assert!(agree(
        &line(CosClass::Gold, other),
        "gold flow, the other link cut"
    ));
}
