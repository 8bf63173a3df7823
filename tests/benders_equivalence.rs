//! The load-bearing substitution test: our capacity-only Benders master
//! must be **equivalent to the paper's joint ILP** (Eqs. 1–5 with flow
//! variables for every failure scenario). On a hand-built instance small
//! enough to solve both ways, the optimal costs must agree.

use neuroplan::master::{solve_master, solve_master_telemetry, MasterConfig};
use np_eval::{EvalConfig, PlanEvaluator};
use np_lp::{solve_mip, MipConfig, MipStatus, Model, Sense, VarId};
use np_telemetry::Telemetry;
use np_topology::{
    CosClass, CostModel, Failure, FailureKind, Fiber, FiberId, Flow, IpLink, Network,
    ReliabilityPolicy, SiteId,
};

/// A diamond WAN: sites 0..4, one fiber per edge of the diamond plus a
/// chord, one IP link per fiber; two fiber-cut scenarios; two gold flows.
fn tiny_instance() -> Network {
    let sites = (0..4)
        .map(|i| np_topology::Site {
            name: format!("s{i}"),
            pos: (f64::from(i % 2) * 500.0, f64::from(i / 2) * 500.0),
            is_datacenter: i == 0,
        })
        .collect();
    let edges = [(0usize, 1usize), (1, 3), (0, 2), (2, 3), (0, 3)];
    let fibers: Vec<Fiber> = edges
        .iter()
        .map(|&(a, b)| Fiber {
            endpoints: (SiteId::new(a.min(b)), SiteId::new(a.max(b))),
            length_km: 500.0,
            spectrum_ghz: 4000.0,
            build_cost: 4.0,
        })
        .collect();
    let links: Vec<IpLink> = edges
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| IpLink {
            src: SiteId::new(a),
            dst: SiteId::new(b),
            fiber_path: vec![(FiberId::new(i), 50.0)],
            capacity_units: 0,
            min_units: 0,
            length_km: 500.0,
        })
        .collect();
    let flows = vec![
        Flow {
            src: SiteId::new(0),
            dst: SiteId::new(3),
            demand_gbps: 250.0,
            cos: CosClass::Gold,
        },
        Flow {
            src: SiteId::new(1),
            dst: SiteId::new(2),
            demand_gbps: 150.0,
            cos: CosClass::Gold,
        },
    ];
    let failures = vec![
        Failure {
            name: "cut:f4".into(),
            kind: FailureKind::FiberCut(FiberId::new(4)),
        },
        Failure {
            name: "cut:f0".into(),
            kind: FailureKind::FiberCut(FiberId::new(0)),
        },
    ];
    Network::new(
        sites,
        fibers,
        links,
        flows,
        failures,
        ReliabilityPolicy::protect_all(),
        CostModel::default(),
        100.0,
    )
    .expect("tiny instance is valid")
}

/// Build the paper's joint formulation directly: integer capacity
/// variables plus per-scenario, per-source flow variables with Eqs. 2–4.
fn joint_formulation(net: &Network) -> (Model, Vec<VarId>) {
    let unit = net.unit_gbps;
    let mut model = Model::new("joint");
    let avars: Vec<VarId> = net
        .link_ids()
        .map(|l| model.add_var(format!("a_{l}"), 0.0, 60.0, net.unit_cost(l), true))
        .collect();
    // Scenarios: None + each failure.
    let scenarios: Vec<Option<np_topology::FailureId>> = std::iter::once(None)
        .chain(net.failure_ids().map(Some))
        .collect();
    for (si, &scenario) in scenarios.iter().enumerate() {
        // Directed arcs alive in this scenario.
        let mut arcs: Vec<(usize, usize, np_topology::LinkId)> = Vec::new();
        for l in net.link_ids() {
            if net.link_alive(l, scenario) {
                let link = net.link(l);
                arcs.push((link.src.index(), link.dst.index(), l));
                arcs.push((link.dst.index(), link.src.index(), l));
            }
        }
        // Aggregated sources.
        let mut sources: Vec<usize> = net
            .flow_ids()
            .filter(|&w| net.flow_active(w, scenario))
            .map(|w| net.flow(w).src.index())
            .collect();
        sources.sort_unstable();
        sources.dedup();
        // Flow variables per (source, arc).
        let mut fvar = vec![vec![VarId(0); arcs.len()]; sources.len()];
        for (k, &src) in sources.iter().enumerate() {
            for (ai, _) in arcs.iter().enumerate() {
                fvar[k][ai] =
                    model.add_var(format!("f{si}_{src}_{ai}"), 0.0, f64::INFINITY, 0.0, false);
            }
        }
        // Eq. 2: conservation per (source, node).
        for (k, &src) in sources.iter().enumerate() {
            for v in 0..net.sites().len() {
                let mut coeffs = Vec::new();
                for (ai, &(from, to, _)) in arcs.iter().enumerate() {
                    if from == v {
                        coeffs.push((fvar[k][ai], 1.0));
                    } else if to == v {
                        coeffs.push((fvar[k][ai], -1.0));
                    }
                }
                let mut traffic = 0.0;
                for w in net.flow_ids() {
                    if !net.flow_active(w, scenario) {
                        continue;
                    }
                    let flow = net.flow(w);
                    if flow.src.index() != src {
                        continue;
                    }
                    if flow.src.index() == v {
                        traffic += flow.demand_gbps;
                    }
                    if flow.dst.index() == v {
                        traffic -= flow.demand_gbps;
                    }
                }
                if coeffs.is_empty() && traffic.abs() < 1e-12 {
                    continue;
                }
                model.add_constr(format!("cons{si}_{src}_{v}"), coeffs, Sense::Eq, traffic);
            }
        }
        // Eq. 3: per-direction capacity C_l = base + a_l (base is 0 here).
        for (ai, &(_, _, l)) in arcs.iter().enumerate() {
            let mut coeffs: Vec<(VarId, f64)> =
                (0..sources.len()).map(|k| (fvar[k][ai], 1.0)).collect();
            coeffs.push((avars[l.index()], -unit));
            model.add_constr(format!("cap{si}_{ai}"), coeffs, Sense::Le, 0.0);
        }
    }
    // Eq. 4: spectrum.
    for f in net.fiber_ids() {
        let coeffs: Vec<(VarId, f64)> = net
            .links_over_fiber(f)
            .iter()
            .map(|&l| {
                let eff = net
                    .link(l)
                    .fiber_path
                    .iter()
                    .find(|&&(ff, _)| ff == f)
                    .map(|&(_, e)| e)
                    .unwrap();
                (avars[l.index()], eff)
            })
            .collect();
        model.add_constr(
            format!("spec_{f}"),
            coeffs,
            Sense::Le,
            net.fiber(f).spectrum_ghz,
        );
    }
    (model, avars)
}

#[test]
fn benders_master_matches_the_joint_formulation() {
    let net = tiny_instance();

    // Joint ILP, solved exactly.
    let (joint, avars) = joint_formulation(&net);
    let joint_sol = solve_mip(&joint, &MipConfig::default(), None);
    assert_eq!(
        joint_sol.status,
        MipStatus::Optimal,
        "joint model must solve"
    );
    let joint_cost = joint_sol.objective;

    // Benders master with tight gap on the same instance.
    let mut evaluator = PlanEvaluator::new(&net, EvalConfig::default());
    let cfg = MasterConfig {
        gap_tol: 1e-6,
        polish_final: true,
        ..MasterConfig::new(vec![60; net.links().len()], 200_000, 120.0)
    };
    let master = solve_master(&net, &mut evaluator, &cfg);
    assert!(master.has_plan(), "master must find a plan");

    assert!(
        (master.cost - joint_cost).abs() <= 1e-4 * joint_cost.max(1.0),
        "Benders master ({}) and joint formulation ({joint_cost}) must agree",
        master.cost
    );

    // And the joint solution's capacities are feasible per the evaluator.
    let units: Vec<u32> = avars
        .iter()
        .map(|&v| joint_sol.x[v.0].round() as u32)
        .collect();
    let caps: Vec<f64> = units
        .iter()
        .map(|&u| f64::from(u) * net.unit_gbps)
        .collect();
    let mut fresh = PlanEvaluator::new(&net, EvalConfig::default());
    assert!(
        fresh.check(&caps).feasible,
        "joint solution validates in the evaluator"
    );
}

#[test]
fn master_overshoot_accounting_is_identical_across_worker_counts() {
    // The deadline-overshoot accounting must be part of the
    // parallel-vs-serial equivalence contract: at 1 and at 4 evaluator
    // workers the master returns bit-identical plans, and the
    // `deadline_overshoot_us` it reports equals exactly what the `lp`
    // and `master` telemetry counters recorded. (With an unconstrained
    // budget the overshoot is definitionally zero — the accounting
    // identity is what is being pinned here; the >0 path is covered
    // deterministically in np-lp's unit tests.)
    let net = tiny_instance();
    let workers = match std::env::var("NP_EQUIV_WORKERS") {
        Ok(v) => v.parse::<usize>().expect("NP_EQUIV_WORKERS is a count"),
        Err(_) => 4,
    };
    let mut outcomes = Vec::new();
    for w in [1, workers.max(2)] {
        let tel = Telemetry::memory();
        let mut evaluator = PlanEvaluator::with_telemetry(
            &net,
            EvalConfig {
                parallel_workers: w,
                ..EvalConfig::default()
            },
            tel.clone(),
        );
        let cfg = MasterConfig {
            gap_tol: 1e-6,
            warm_units: Some(vec![10; net.links().len()]),
            polish_final: true,
            ..MasterConfig::new(vec![60; net.links().len()], 200_000, f64::INFINITY)
        };
        let out = solve_master_telemetry(&net, &mut evaluator, &cfg, &tel);
        let recorded = tel.counter("lp", "deadline_overshoot_us")
            + tel.counter("master", "deadline_overshoot_us");
        assert_eq!(
            out.deadline_overshoot_us, recorded,
            "workers={w}: the outcome's overshoot must equal the telemetry counters"
        );
        outcomes.push((w, out));
    }
    let (_, baseline) = &outcomes[0];
    for (w, out) in &outcomes[1..] {
        assert_eq!(out.units, baseline.units, "workers={w}: plans differ");
        assert_eq!(
            out.cost.to_bits(),
            baseline.cost.to_bits(),
            "workers={w}: costs differ"
        );
        assert_eq!(out.status, baseline.status, "workers={w}: status differs");
        assert_eq!(
            out.deadline_overshoot_us, baseline.deadline_overshoot_us,
            "workers={w}: an unconstrained budget must never overshoot"
        );
    }
}

#[test]
fn master_plan_is_feasible_in_the_joint_model() {
    let net = tiny_instance();
    let mut evaluator = PlanEvaluator::new(&net, EvalConfig::default());
    let cfg = MasterConfig {
        gap_tol: 1e-6,
        polish_final: true,
        ..MasterConfig::new(vec![60; net.links().len()], 200_000, 120.0)
    };
    let master = solve_master(&net, &mut evaluator, &cfg);
    // Fix the joint model's capacity variables to the master's plan: the
    // LP relaxation (pure routing) must be feasible.
    let (mut joint, avars) = joint_formulation(&net);
    for (i, &v) in avars.iter().enumerate() {
        let u = f64::from(master.units[i]);
        joint.set_bounds(v, u, u);
    }
    let routing = np_lp::solve_lp(&joint, &np_lp::SimplexConfig::default());
    assert_eq!(
        routing.status,
        np_lp::LpStatus::Optimal,
        "master capacities must admit a routing in the paper's own formulation"
    );
}
