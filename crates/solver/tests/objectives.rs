//! Objective-priority coverage: the developer's choice between carbon,
//! cost, and latency (§8) changes which deployment wins.

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
use caribou_model::builder::Workflow;
use caribou_model::constraints::{Objective, Tolerances};
use caribou_model::dag::NodeId;
use caribou_model::dist::DistSpec;
use caribou_model::region::RegionCatalog;
use caribou_model::rng::Pcg32;
use caribou_simcloud::compute::LambdaRuntime;
use caribou_simcloud::latency::LatencyModel;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::pricing::PricingCatalog;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;

struct Fx {
    cat: RegionCatalog,
    pricing: PricingCatalog,
    runtime: LambdaRuntime,
    latency: LatencyModel,
    carbon: TableSource,
}

/// A world where the clean region is expensive and slow, so each objective
/// points somewhere different: carbon → ca-central-1 (clean, pricey,
/// far), cost → us-east-1 (cheap), latency → us-east-1 (home, no hops).
fn fx() -> Fx {
    let cat = RegionCatalog::aws_default();
    let mut pricing = PricingCatalog::aws_default(&cat);
    let mut runtime = LambdaRuntime::aws_default(&cat);
    runtime.cold_start_prob = 0.0;
    runtime.exec_sigma = 0.0;
    let latency = LatencyModel::from_catalog(&cat);
    let mut carbon = TableSource::new();
    for (id, spec) in cat.iter() {
        let v = match spec.name.as_str() {
            "ca-central-1" => 30.0,
            _ => 380.0,
        };
        carbon.insert(id, CarbonSeries::new(0, vec![v; 24]));
    }
    // Make the clean region markedly more expensive than home.
    let ca = cat.id_of("ca-central-1").unwrap();
    let base = pricing.region(ca).clone();
    let inflated = caribou_simcloud::pricing::RegionPricing {
        lambda_gb_second: base.lambda_gb_second * 2.0,
        ..base
    };
    pricing.set_region(ca, inflated);
    Fx {
        cat,
        pricing,
        runtime,
        latency,
        carbon,
    }
}

fn chain(fx: &Fx) -> (caribou_model::WorkflowDag, caribou_model::WorkflowProfile) {
    let _ = fx;
    let mut wf = Workflow::new("c", "0.1");
    let a = wf
        .serverless_function("A")
        .exec_time(DistSpec::Constant { value: 4.0 })
        .register();
    let b = wf
        .serverless_function("B")
        .exec_time(DistSpec::Constant { value: 8.0 })
        .register();
    wf.invoke(a, b, None)
        .payload(DistSpec::Constant { value: 20_000.0 });
    let (dag, profile, _) = wf.extract().unwrap();
    (dag, profile)
}

fn solve_with(objective: Objective, seed: u64) -> caribou_model::plan::DeploymentPlan {
    let fx = fx();
    let (dag, profile) = chain(&fx);
    let home = fx.cat.id_of("us-east-1").unwrap();
    let universe = fx.cat.evaluation_regions();
    let permitted = vec![universe; 2];
    let models = DefaultModels {
        profile: &profile,
        runtime: &fx.runtime,
        latency: &fx.latency,
        orchestrator: Orchestrator::Caribou,
    };
    let ctx = SolverContext {
        dag: &dag,
        profile: &profile,
        permitted: &permitted,
        home,
        objective,
        tolerances: Tolerances {
            latency: 0.5,
            cost: 2.0,
            carbon: f64::INFINITY,
        },
        carbon_source: &fx.carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&fx.pricing),
        models: &models,
        mc_config: MonteCarloConfig {
            batch: 100,
            max_samples: 400,
            cv_threshold: 0.05,
        },
    };
    HbssSolver::new()
        .solve_with(&EvalEngine::new(seed, 1), &ctx, 0.5, &mut Pcg32::seed(seed))
        .best
}

#[test]
fn carbon_objective_chases_the_clean_grid() {
    let fx = fx();
    let ca = fx.cat.id_of("ca-central-1").unwrap();
    let plan = solve_with(Objective::Carbon, 1);
    assert_eq!(plan.region_of(NodeId(0)), ca);
    assert_eq!(plan.region_of(NodeId(1)), ca);
}

#[test]
fn cost_objective_avoids_the_expensive_clean_region() {
    let fx = fx();
    let ca = fx.cat.id_of("ca-central-1").unwrap();
    let plan = solve_with(Objective::Cost, 2);
    assert_ne!(plan.region_of(NodeId(0)), ca);
    assert_ne!(plan.region_of(NodeId(1)), ca);
}

#[test]
fn latency_objective_stays_home() {
    let fx = fx();
    let home = fx.cat.id_of("us-east-1").unwrap();
    let plan = solve_with(Objective::Latency, 3);
    // Any cross-region hop adds latency; home is optimal.
    assert!(plan.is_single_region());
    assert_eq!(plan.region_of(NodeId(0)), home);
}
