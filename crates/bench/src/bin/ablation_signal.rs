//! Ablation: scheduling on average (ACI) versus marginal (MCI) carbon
//! intensity — the §7.1 design choice the paper flags for "continued
//! research".
//!
//! Solves the Fine(all) deployment once against the ACI signal and once
//! against a synthetic MCI signal, then accounts the resulting emissions
//! under *both* signals (a 2×2 matrix per benchmark). Expected shape,
//! echoing the MCI-vs-ACI literature the paper cites: ACI-driven plans
//! chase the hydro grid aggressively; MCI-driven plans see a much smaller
//! cross-region differential and shift far less; each plan looks best
//! under the signal that produced it — "it can lead to different
//! decisions".

use caribou_bench::harness::{default_tolerances, mc_config, write_json, ExpEnv};
use caribou_carbon::marginal::MarginalSource;
use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloEstimator};
use caribou_model::constraints::{Constraints, Objective};
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::Pcg32;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_workloads::benchmarks::{all_benchmarks, InputSize};

fn main() {
    let env = ExpEnv::new(33);
    let mci = MarginalSource::new(env.carbon.clone());
    let hour = 12.5;

    println!("Signal ablation — plans solved under ACI vs MCI, accounted under both");
    println!(
        "{:<24}{:<8}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "benchmark", "solved", "g (ACI)", "g (MCI)", "home ACI", "home MCI", "regions"
    );
    let mut rows = Vec::new();
    let mut disagreements = 0usize;
    let mut total = 0usize;
    for bench in all_benchmarks(InputSize::Small) {
        let mut constraints = Constraints::unconstrained(bench.dag.node_count());
        constraints.tolerances = default_tolerances();
        let permitted = constraints
            .permitted_regions(&bench.dag, &env.regions, &env.cloud.regions, env.home)
            .unwrap();
        let models = DefaultModels {
            profile: &bench.profile,
            runtime: &env.cloud.compute,
            latency: &env.cloud.latency,
            orchestrator: Orchestrator::Caribou,
        };

        // Solve once per signal.
        let solve_with = |source: &dyn CarbonDataSource, seed: u64| -> DeploymentPlan {
            let ctx = SolverContext {
                dag: &bench.dag,
                profile: &bench.profile,
                permitted: &permitted,
                home: env.home,
                objective: Objective::Carbon,
                tolerances: default_tolerances(),
                carbon_source: &source,
                carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                cost_model: CostModel::new(&env.cloud.pricing),
                models: &models,
                mc_config: mc_config(),
            };
            HbssSolver::new()
                .solve_with(
                    &EvalEngine::new(seed, 1),
                    &ctx,
                    hour,
                    &mut Pcg32::seed(seed),
                )
                .best
        };
        let plan_aci = solve_with(&env.carbon, 1);
        let plan_mci = solve_with(&mci, 2);

        // Account each plan under each signal.
        let account = |plan: &DeploymentPlan, source: &dyn CarbonDataSource, seed: u64| -> f64 {
            let est = MonteCarloEstimator {
                dag: &bench.dag,
                profile: &bench.profile,
                carbon_source: &source,
                carbon_model: CarbonModel::new(TransmissionScenario::BEST),
                cost_model: CostModel::new(&env.cloud.pricing),
                models: &models,
                home: env.home,
                config: mc_config(),
            };
            est.estimate(plan, hour, &mut Pcg32::seed(seed)).carbon.mean
        };
        let home_plan = DeploymentPlan::uniform(bench.dag.node_count(), env.home);
        let home_aci = account(&home_plan, &env.carbon, 3);
        let home_mci = account(&home_plan, &mci, 4);
        for (label, plan) in [("ACI", &plan_aci), ("MCI", &plan_mci)] {
            let g_aci = account(plan, &env.carbon, 5);
            let g_mci = account(plan, &mci, 6);
            let regions: Vec<String> = plan
                .regions_used()
                .iter()
                .map(|r| env.cloud.regions.name(*r).to_string())
                .collect();
            println!(
                "{:<24}{:<8}{:>12.3e}{:>12.3e}{:>12.3e}{:>12.3e}  {:?}",
                bench.name, label, g_aci, g_mci, home_aci, home_mci, regions
            );
            rows.push(serde_json::json!({
                "benchmark": bench.name,
                "solved_under": label,
                "carbon_under_aci": g_aci,
                "carbon_under_mci": g_mci,
                "home_under_aci": home_aci,
                "home_under_mci": home_mci,
                "regions": regions,
            }));
        }
        total += 1;
        if plan_aci != plan_mci {
            disagreements += 1;
        }
    }
    println!(
        "\nPlans differ between signals for {disagreements}/{total} benchmarks \
         (paper §7.1: MCI \"can lead to different decisions\")."
    );
    write_json("ablation_signal", &serde_json::Value::Array(rows));
}
