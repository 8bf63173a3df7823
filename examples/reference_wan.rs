//! Plan a real (public) WAN map: the Internet2 Abilene backbone, then
//! check the GÉANT-like map at a uniform fill with the evaluator.
//!
//! ```sh
//! cargo run --release --example reference_wan
//! ```

use neuroplan::{validate_plan, NeuroPlan, NeuroPlanConfig};
use np_eval::{EvalConfig, PlanEvaluator};
use np_topology::reference;

fn main() {
    // Abilene with 40% of demand pre-provisioned.
    let net = reference::abilene(0.4);
    println!(
        "Abilene: {} PoPs, {} spans, {} flows, {} single-cut scenarios, \
         total demand {:.1} Tbps",
        net.sites().len(),
        net.fibers().len(),
        net.flows().len(),
        net.failures().len(),
        net.total_demand_gbps() / 1000.0
    );

    let planner = NeuroPlan::new(NeuroPlanConfig::quick().with_seed(42));
    let result = planner.plan(&net);
    validate_plan(&net, &result.final_units).expect("final plan validates");
    println!(
        "\nplan: first-stage {:.0} -> final {:.0} ({} Benders cuts)",
        result.first_stage_cost, result.final_cost, result.master.cuts_added
    );

    // The GÉANT-like map at 80% uniform fill, evaluation only.
    let geant = reference::geant(0.8);
    let mut evaluator = PlanEvaluator::new(&geant, EvalConfig::default());
    match evaluator.check_network(&geant).first_violated {
        None => println!("GEANT at 80% uniform fill: every scenario is satisfied"),
        Some(i) => println!("GEANT at 80% uniform fill: scenario {i} is the first violated"),
    }
}
