//! Library-level usage: bring your own workload and drive the pieces
//! directly — no framework loop.
//!
//! Defines a custom conditional fan-out DAG, estimates candidate
//! deployments with the Monte Carlo estimator, compares the HBSS solver
//! against exhaustive enumeration, and executes the chosen plan once on
//! the simulated cloud to observe a real invocation record.
//!
//! Run with: `cargo run --release -p caribou-core --example custom_workload`

use caribou_carbon::source::RegionalSource;
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_exec::engine::{ExecutionEngine, WorkflowApp};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig, MonteCarloEstimator};
use caribou_model::builder::Workflow;
use caribou_model::constraints::{Objective, Tolerances};
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_solver::{coarse, exhaustive};

fn main() {
    // A fraud-screening pipeline: ingest fans out to a fast rule engine
    // and (conditionally, for 20% of events) a heavyweight ML scorer; an
    // alerting stage joins both.
    let mut wf = Workflow::new("fraud_screen", "1.0");
    let ingest = wf
        .serverless_function("Ingest")
        .memory_mb(512)
        .exec_time(DistSpec::LogNormal {
            median: 0.4,
            sigma: 0.1,
        })
        .register();
    let rules = wf
        .serverless_function("RuleEngine")
        .memory_mb(1024)
        .exec_time(DistSpec::LogNormal {
            median: 1.2,
            sigma: 0.1,
        })
        .register();
    let scorer = wf
        .serverless_function("MlScorer")
        .memory_mb(3538)
        .exec_time(DistSpec::LogNormal {
            median: 7.0,
            sigma: 0.15,
        })
        .register();
    let alert = wf
        .serverless_function("Alert")
        .memory_mb(512)
        .exec_time(DistSpec::LogNormal {
            median: 0.3,
            sigma: 0.1,
        })
        .external_data_bytes(50e3)
        .register();
    wf.invoke(ingest, rules, None)
        .payload(DistSpec::Constant { value: 8e3 });
    wf.invoke(ingest, scorer, Some(0.2))
        .payload(DistSpec::Constant { value: 64e3 });
    wf.invoke(rules, alert, None)
        .payload(DistSpec::Constant { value: 4e3 });
    wf.invoke(scorer, alert, Some(0.2))
        .payload(DistSpec::Constant { value: 4e3 });
    wf.get_predecessor_data(alert);
    wf.set_input(DistSpec::Constant { value: 16e3 });

    let (dag, profile, constraints) = wf.extract().expect("valid workflow");
    println!(
        "extracted DAG: {} nodes, {} edges, sync={}, conditional={}",
        dag.node_count(),
        dag.edge_count(),
        dag.has_sync_nodes(),
        dag.has_conditional_edges()
    );

    let mut cloud = SimCloud::aws(5);
    let carbon =
        RegionalSource::new(&cloud.regions, SyntheticCarbonSource::aws_calibrated(5)).unwrap();
    let home = cloud.region("us-east-1").unwrap();
    let regions = cloud.regions.evaluation_regions();
    let permitted = constraints
        .permitted_regions(&dag, &regions, &cloud.regions, home)
        .expect("valid constraints");

    let models = DefaultModels {
        profile: &profile,
        runtime: &cloud.compute,
        latency: &cloud.latency,
        orchestrator: Orchestrator::Caribou,
    };
    let ctx = SolverContext {
        dag: &dag,
        profile: &profile,
        permitted: &permitted,
        home,
        objective: Objective::Carbon,
        tolerances: Tolerances {
            latency: 0.15,
            cost: 1.0,
            carbon: f64::INFINITY,
        },
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&cloud.pricing),
        models: &models,
        mc_config: MonteCarloConfig::default(),
    };

    // Estimate the home deployment directly.
    let estimator = MonteCarloEstimator {
        dag: &dag,
        profile: &profile,
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&cloud.pricing),
        models: &models,
        home,
        config: MonteCarloConfig::default(),
    };
    let home_plan = DeploymentPlan::uniform(dag.node_count(), home);
    let home_est = estimator.estimate(&home_plan, 12.5, &mut Pcg32::seed(1));
    println!(
        "home deployment:  {:.3e} g, {:.2} s mean latency, ${:.6}/invocation ({} MC samples)",
        home_est.carbon.mean, home_est.latency.mean, home_est.cost.mean, home_est.samples
    );

    // Solve with HBSS and cross-check against the exhaustive optimum. All
    // three solvers share one evaluation engine, so a plan they both find
    // gets the same estimate.
    let engine = EvalEngine::new(2, 1);
    let hbss = HbssSolver::new().solve_with(&engine, &ctx, 12.5, &mut Pcg32::seed(2));
    let exact = exhaustive::solve_with(&engine, &ctx, 12.5).expect("small space");
    let single = coarse::solve_with(&engine, &ctx, 12.5);
    println!(
        "HBSS best:        {:.3e} g after {} evaluations",
        ctx.metric_of(&hbss.best_estimate),
        hbss.evaluated
    );
    println!(
        "exhaustive best:  {:.3e} g after {} evaluations",
        ctx.metric_of(&exact.best_estimate),
        exact.evaluated
    );
    println!(
        "coarse best:      {:.3e} g after {} evaluations",
        ctx.metric_of(&single.best_estimate),
        single.evaluated
    );
    for node in dag.all_nodes() {
        println!(
            "  {:<12} -> {}",
            dag.node(node).name,
            cloud.regions.name(hbss.best.region_of(node))
        );
    }

    // Execute one real invocation under the chosen plan.
    let app = WorkflowApp {
        name: "fraud_screen".into(),
        dag,
        profile,
        home,
    };
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        orchestrator: Orchestrator::Caribou,
    };
    engine.provision(&mut cloud, &app, &hbss.best);
    let outcome = engine.invoke(
        &mut cloud,
        &app,
        &hbss.best,
        1,
        45_000.0,
        &mut Pcg32::seed(5),
    );
    println!(
        "\none real invocation: {:.2} s end-to-end, {:.3e} g, ${:.6}, {} stages executed",
        outcome.e2e_latency_s,
        outcome.carbon_g(),
        outcome.cost_usd,
        outcome.log.nodes.len()
    );
}
