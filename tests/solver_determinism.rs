//! Solver regression suite for the deterministic parallel evaluation
//! engine: whatever the worker count, a solve is a pure function of its
//! seeds, and every cache hit is bit-equal to the fresh computation it
//! replaced.

use caribou_carbon::series::CarbonSeries;
use caribou_carbon::source::TableSource;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{
    DefaultModels, EstimateScratch, MonteCarloConfig, MonteCarloEstimator, MAX_LANES,
};
use caribou_model::builder::Workflow;
use caribou_model::constraints::{Objective, Tolerances};
use caribou_model::dist::DistSpec;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionCatalog;
use caribou_model::rng::Pcg32;
use caribou_simcloud::compute::LambdaRuntime;
use caribou_simcloud::latency::LatencyModel;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::pricing::PricingCatalog;
use caribou_solver::context::{SolveOutcome, SolverContext};
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::HbssSolver;
use caribou_solver::hourly::{solve_daily, solve_hourly_with};
use caribou_solver::{coarse, exhaustive};
use proptest::prelude::*;

/// Worker counts every invariant is checked across.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Builds a small diurnal two-node world and hands the solver context to
/// `f`. The context borrows a pile of locals, hence the closure shape.
fn with_ctx<R>(f: impl FnOnce(&SolverContext<'_, TableSource, DefaultModels<'_>>) -> R) -> R {
    let cat = RegionCatalog::aws_default();
    let pricing = PricingCatalog::aws_default(&cat);
    let mut runtime = LambdaRuntime::aws_default(&cat);
    runtime.cold_start_prob = 0.0;
    let latency = LatencyModel::from_catalog(&cat);
    let east = cat.id_of("us-east-1").unwrap();
    let west = cat.id_of("us-west-2").unwrap();
    let ca = cat.id_of("ca-central-1").unwrap();
    // Carbon with per-region diurnal structure so different hours pick
    // different winners and the solver has real work to do.
    let mut carbon = TableSource::new();
    for (id, _) in cat.iter() {
        let values: Vec<f64> = (0..24)
            .map(|h| {
                if id == west {
                    if h < 12 {
                        60.0
                    } else {
                        800.0
                    }
                } else if id == ca {
                    120.0 + 10.0 * (h % 6) as f64
                } else {
                    380.0
                }
            })
            .collect();
        carbon.insert(id, CarbonSeries::new(0, values));
    }
    let mut wf = Workflow::new("w", "0.1");
    let a = wf
        .serverless_function("A")
        .exec_time(DistSpec::Constant { value: 5.0 })
        .register();
    let b = wf
        .serverless_function("B")
        .exec_time(DistSpec::Uniform { lo: 4.0, hi: 8.0 })
        .register();
    wf.invoke(a, b, None)
        .payload(DistSpec::Constant { value: 8_000.0 });
    let (dag, profile, _) = wf.extract().unwrap();
    let permitted = vec![vec![east, west, ca], vec![east, west, ca]];
    let models = DefaultModels {
        profile: &profile,
        runtime: &runtime,
        latency: &latency,
        orchestrator: Orchestrator::Caribou,
    };
    let ctx = SolverContext {
        dag: &dag,
        profile: &profile,
        permitted: &permitted,
        home: east,
        objective: Objective::Carbon,
        tolerances: Tolerances {
            latency: 0.5,
            cost: 0.5,
            carbon: f64::INFINITY,
        },
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(TransmissionScenario::BEST),
        cost_model: CostModel::new(&pricing),
        models: &models,
        mc_config: MonteCarloConfig {
            batch: 60,
            max_samples: 120,
            cv_threshold: 0.1,
        },
    };
    f(&ctx)
}

fn assert_same_outcome(a: &SolveOutcome, b: &SolveOutcome) {
    assert_eq!(a.best.assignment(), b.best.assignment());
    assert_eq!(a.best_estimate, b.best_estimate);
    assert_eq!(a.home_estimate, b.home_estimate);
    assert_eq!(a.evaluated, b.evaluated);
    assert_eq!(a.feasible, b.feasible);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every solver's selected plan and estimate summaries — HBSS,
    /// coarse, exhaustive, and the daily solve — are bit-identical at 1, 2
    /// and 8 workers for any (engine seed, walk seed, hour).
    #[test]
    fn hbss_solve_is_worker_count_invariant(
        engine_seed in any::<u64>(),
        walk_seed in any::<u64>(),
        hour_idx in 0u8..24,
    ) {
        with_ctx(|ctx| {
            let hour = hour_idx as f64 + 0.5;
            let solver = HbssSolver::new();
            let solve_at = |workers: usize| {
                let engine = EvalEngine::new(engine_seed, workers);
                let hbss = solver.solve_with(&engine, ctx, hour, &mut Pcg32::seed(walk_seed));
                let coarse = coarse::solve_with(&engine, ctx, hour);
                let exhaustive = exhaustive::solve_with(&engine, ctx, hour).expect("9 plans");
                let day_engine = EvalEngine::new(engine_seed, workers);
                let daily = solve_daily(
                    &day_engine, &solver, ctx, 0.0, 0.0, 86_400.0,
                    &mut Pcg32::seed(walk_seed),
                );
                ([hbss, coarse, exhaustive], daily)
            };
            let (base, base_daily) = solve_at(WORKER_COUNTS[0]);
            for &w in &WORKER_COUNTS[1..] {
                let (other, daily) = solve_at(w);
                for (a, b) in base.iter().zip(&other) {
                    assert_same_outcome(a, b);
                }
                assert_eq!(base_daily, daily);
            }
        });
    }

    /// The full 24-hour schedule (the paper's per-solve unit, §5.1) is
    /// bit-identical at any worker count, and its shared cache is used.
    #[test]
    fn hourly_schedule_is_worker_count_invariant(
        engine_seed in any::<u64>(),
        walk_seed in any::<u64>(),
    ) {
        with_ctx(|ctx| {
            let solver = HbssSolver::new();
            let solve_at = |workers: usize| {
                let engine = EvalEngine::new(engine_seed, workers);
                let plans = solve_hourly_with(
                    &engine, &solver, ctx, 0.0, 0.0, 86_400.0,
                    &mut Pcg32::seed(walk_seed),
                );
                (plans, engine.hit_count())
            };
            let (base, base_hits) = solve_at(WORKER_COUNTS[0]);
            assert!(base_hits > 0, "estimate cache never hit");
            for &w in &WORKER_COUNTS[1..] {
                let (other, _) = solve_at(w);
                assert_eq!(&base, &other);
            }
        });
    }

    /// Cache soundness: a cached estimate is bit-equal to a fresh
    /// uncached evaluation on the same derived stream.
    #[test]
    fn cached_estimate_equals_fresh_run(
        engine_seed in any::<u64>(),
        region_picks in (0usize..3, 0usize..3),
        hour_idx in 0u8..24,
    ) {
        with_ctx(|ctx| {
            let hour = hour_idx as f64 + 0.5;
            let assignment = vec![
                ctx.permitted[0][region_picks.0],
                ctx.permitted[1][region_picks.1],
            ];
            let plan = DeploymentPlan::new(assignment);
            let engine = EvalEngine::new(engine_seed, 1);
            let first = engine.evaluate(ctx, &plan, hour);
            let cached = engine.evaluate(ctx, &plan, hour);
            assert_eq!(engine.miss_count(), 1);
            assert_eq!(engine.hit_count(), 1);
            // Fresh run outside the engine, on the same derived stream.
            let fresh = ctx.evaluate_with_scratch(
                &plan,
                hour,
                &mut engine.eval_rng(&plan, hour),
                &mut EstimateScratch::new(),
            );
            assert_eq!(first, cached);
            assert_eq!(first, fresh);
        });
    }

    /// Lane-width invariance at the solver layer: the estimate the engine
    /// caches (batched at the default width) is bit-equal to the scalar
    /// reference path and to the batched path at widths 1/4/8/16 on the
    /// same derived stream — so every solve result (HBSS walks, 24-hour
    /// schedules) is independent of the batch width, at any worker count.
    #[test]
    fn solver_estimates_are_lane_width_invariant(
        engine_seed in any::<u64>(),
        region_picks in (0usize..3, 0usize..3),
        hour_idx in 0u8..24,
    ) {
        with_ctx(|ctx| {
            let hour = hour_idx as f64 + 0.5;
            let assignment = vec![
                ctx.permitted[0][region_picks.0],
                ctx.permitted[1][region_picks.1],
            ];
            let plan = DeploymentPlan::new(assignment);
            let engine = EvalEngine::new(engine_seed, 1);
            let cached = engine.evaluate(ctx, &plan, hour);
            let est = MonteCarloEstimator {
                dag: ctx.dag,
                profile: ctx.profile,
                carbon_source: ctx.carbon_source,
                carbon_model: ctx.carbon_model,
                cost_model: ctx.cost_model.clone(),
                models: ctx.models,
                home: ctx.home,
                config: ctx.mc_config,
            };
            let scalar =
                est.estimate_scalar(&plan, hour, &mut engine.eval_rng(&plan, hour));
            assert_eq!(cached, scalar);
            for lanes in [1usize, 4, 8, MAX_LANES] {
                let batched = est.estimate_batched(
                    &plan, hour, &mut engine.eval_rng(&plan, hour), lanes,
                );
                assert_eq!(cached, batched, "lane width {lanes} diverged");
            }
        });
    }
}

/// Cache misses check estimator scratch out of the engine's pool instead
/// of allocating node-state columns per `estimate()` call: across many
/// misses on one worker, exactly one column set is ever allocated.
#[test]
fn engine_scratch_pool_reuses_node_state_across_misses() {
    with_ctx(|ctx| {
        caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
        let engine = EvalEngine::new(7, 1);
        let mut misses = 0;
        for i in 0..3 {
            for j in 0..3 {
                let plan = DeploymentPlan::new(vec![ctx.permitted[0][i], ctx.permitted[1][j]]);
                engine.evaluate(ctx, &plan, 6.5);
                misses += 1;
            }
        }
        let session = caribou_telemetry::finish().unwrap();
        assert_eq!(engine.miss_count(), misses);
        let allocs = session.recorder.counter("montecarlo.node_state_allocs");
        // 3 counts = one column set, from the first miss only.
        assert_eq!(allocs, 3, "allocs {allocs} across {misses} misses");
    });
}
