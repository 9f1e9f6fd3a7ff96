//! Compliance-constrained offloading (§2.3, §8, Fig. 3).
//!
//! The Text2Speech-Censoring workflow's validation stage is regulation
//! sensitive and must stay in the United States; the remaining stages are
//! free to move. This example shows the paper's claim that "a detailed
//! specification of location constraints (e.g., to ensure compliance of
//! one stage) can allow emission reductions for workflows (e.g., by
//! offloading other stages)": the pinned stage stays in `us-east-1` while
//! everything else shifts to Québec's hydro grid — compared against the
//! whole-workflow pin a workflow-level constraint would force.
//!
//! Run with: `cargo run --release -p caribou-core --example compliance_workflow`

use caribou_carbon::source::{ForecastingSource, RegionalSource};
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
use caribou_model::constraints::{Constraints, Objective, RegionFilter, Tolerances};
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};

fn main() {
    let cloud = SimCloud::aws(7);
    let carbon =
        RegionalSource::new(&cloud.regions, SyntheticCarbonSource::aws_calibrated(7)).unwrap();
    let home = cloud.region("us-east-1").unwrap();
    let regions = cloud.regions.evaluation_regions();

    let bench = text2speech_censoring(InputSize::Small);
    let upload_node = bench.dag.node_by_name("Upload").expect("stage exists");

    // Per-function compliance: the Upload/validation stage may only run in
    // the US (HIPAA-style residency); the workflow level stays open.
    let mut constraints = Constraints::unconstrained(bench.dag.node_count());
    constraints.per_node[upload_node.index()] = Some(RegionFilter::countries(["US"]));
    constraints.tolerances = Tolerances {
        latency: 0.10,
        cost: 1.0,
        carbon: f64::INFINITY,
    };
    constraints.objective = Objective::Carbon;

    let permitted = constraints
        .permitted_regions(&bench.dag, &regions, &cloud.regions, home)
        .expect("valid constraints");

    // Solve at hour 12 of the evaluation week on forecast data.
    let forecast = ForecastingSource::fit(&carbon, &regions, 0.0, 48);
    let models = DefaultModels {
        profile: &bench.profile,
        runtime: &cloud.compute,
        latency: &cloud.latency,
        orchestrator: Orchestrator::Caribou,
    };
    let ctx = SolverContext {
        dag: &bench.dag,
        profile: &bench.profile,
        permitted: &permitted,
        home,
        objective: Objective::Carbon,
        tolerances: constraints.tolerances,
        carbon_source: &forecast,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&cloud.pricing),
        models: &models,
        mc_config: MonteCarloConfig::default(),
    };
    let outcome =
        HbssSolver::new().solve_with(&EvalEngine::new(7, 1), &ctx, 12.5, &mut Pcg32::seed(7));

    println!("fine-grained plan under the per-stage compliance constraint:");
    for node in bench.dag.all_nodes() {
        let region = outcome.best.region_of(node);
        println!(
            "  {:<20} -> {}",
            bench.dag.node(node).name,
            cloud.regions.name(region)
        );
    }
    let fine = ctx.metric_of(&outcome.best_estimate);
    let home_metric = ctx.metric_of(&outcome.home_estimate);
    println!(
        "carbon/invocation: {fine:.3e} g vs {home_metric:.3e} g at home ({:.1}% reduction)",
        (1.0 - fine / home_metric) * 100.0
    );

    // The Upload stage honored its residency constraint...
    let upload_region = outcome.best.region_of(upload_node);
    assert_eq!(
        cloud.regions.spec(upload_region).country,
        "US",
        "compliance violated"
    );
    // ...while the solver still found offloading opportunities elsewhere.
    assert!(
        !outcome.best.is_single_region(),
        "fine-grained shifting should split the workflow"
    );
    println!("compliance held: `Upload` stayed in the US while other stages moved.");
}
