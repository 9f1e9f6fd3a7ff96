//! Ablation: HBSS solution quality versus exhaustive enumeration and the
//! coarse single-region strategy (§5.1's design rationale).
//!
//! For each benchmark with an enumerable search space, solves with all
//! three strategies and reports the carbon optimality gap and the number
//! of candidate evaluations — the quality/effort trade-off that justifies
//! HBSS.

use caribou_bench::harness::{default_tolerances, mc_config, write_json, ExpEnv};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::DefaultModels;
use caribou_model::constraints::{Constraints, Objective};
use caribou_model::rng::Pcg32;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_solver::{coarse, exhaustive};
use caribou_workloads::benchmarks::{
    dna_visualization, image_processing, rag_data_ingestion, text2speech_censoring, InputSize,
};

fn main() {
    let env = ExpEnv::new(55);
    println!("Solver ablation — carbon per invocation and evaluations per solve");
    println!(
        "{:<24}{:>7}{:>14}{:>8}{:>14}{:>8}{:>14}{:>8}",
        "benchmark", "|R|^|N|", "hbss g", "evals", "exhaustive g", "evals", "coarse g", "evals"
    );
    let mut rows = Vec::new();
    for bench in [
        dna_visualization(InputSize::Small),
        rag_data_ingestion(InputSize::Small),
        image_processing(InputSize::Small),
        text2speech_censoring(InputSize::Small),
    ] {
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
        let ctx = SolverContext {
            dag: &bench.dag,
            profile: &bench.profile,
            permitted: &permitted,
            home: env.home,
            objective: Objective::Carbon,
            tolerances: default_tolerances(),
            carbon_source: &env.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&env.cloud.pricing),
            models: &models,
            mc_config: mc_config(),
        };
        // One engine for all three solvers: equal plans get bit-equal
        // estimates, so the HBSS-vs-exhaustive gap is exact.
        let engine = EvalEngine::new(1, 1);
        let hbss = HbssSolver::new().solve_with(&engine, &ctx, 12.5, &mut Pcg32::seed(1));
        let exact = exhaustive::solve_with(&engine, &ctx, 12.5);
        let single = coarse::solve_with(&engine, &ctx, 12.5);
        let h = ctx.metric_of(&hbss.best_estimate);
        let s = ctx.metric_of(&single.best_estimate);
        match exact {
            Some(ex) => {
                let e = ctx.metric_of(&ex.best_estimate);
                println!(
                    "{:<24}{:>7}{:>14.4e}{:>8}{:>14.4e}{:>8}{:>14.4e}{:>8}",
                    bench.name,
                    ctx.search_space_size(),
                    h,
                    hbss.evaluated,
                    e,
                    ex.evaluated,
                    s,
                    single.evaluated
                );
                rows.push(serde_json::json!({
                    "benchmark": bench.name,
                    "space": ctx.search_space_size(),
                    "hbss_g": h, "hbss_evals": hbss.evaluated,
                    "exhaustive_g": e, "exhaustive_evals": ex.evaluated,
                    "coarse_g": s, "coarse_evals": single.evaluated,
                    "hbss_gap": h / e,
                    "coarse_gap": s / e,
                }));
            }
            None => {
                println!(
                    "{:<24}{:>7}{:>14.4e}{:>8}{:>14}{:>8}{:>14.4e}{:>8}",
                    bench.name,
                    ctx.search_space_size(),
                    h,
                    hbss.evaluated,
                    "(too big)",
                    "-",
                    s,
                    single.evaluated
                );
            }
        }
    }
    println!(
        "\n(HBSS should sit within a few percent of exhaustive at a fraction of the evaluations;"
    );
    println!(" coarse is cheapest but misses fine-grained splits — the paper's §5.1 argument.)");
    write_json("ablation_solver", &serde_json::Value::Array(rows));
}
