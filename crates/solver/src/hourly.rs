//! Hourly plan-set generation (§5.1, §5.2).
//!
//! To capture diurnal carbon patterns, one solve produces 24 plans — one
//! per hour of the coming day — using forecast carbon data. When the
//! carbon budget only affords a daily granularity, a single plan is solved
//! against the day's average intensity and replicated.

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::montecarlo::StageModels;
use caribou_model::plan::HourlyPlans;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

use crate::context::SolverContext;
use crate::engine::EvalEngine;
use crate::hbss::HbssSolver;
use crate::pool;

/// A carbon source that answers every query with the day-average of an
/// underlying source — the signal a daily-granularity solve sees.
pub struct DayAveragedSource<'a, S: CarbonDataSource> {
    inner: &'a S,
    day_start_hour: f64,
}

impl<'a, S: CarbonDataSource> DayAveragedSource<'a, S> {
    /// Wraps `inner`, averaging over the day starting at `day_start_hour`.
    pub fn new(inner: &'a S, day_start_hour: f64) -> Self {
        DayAveragedSource {
            inner,
            day_start_hour,
        }
    }
}

impl<S: CarbonDataSource> CarbonDataSource for DayAveragedSource<'_, S> {
    fn intensity(&self, region: RegionId, _hour: f64) -> f64 {
        self.inner
            .average(region, self.day_start_hour, self.day_start_hour + 24.0)
    }
}

/// Solves 24 hourly plans starting at `day_start_hour` (hours since the
/// epoch) with HBSS, fanning the hours across the engine's worker pool.
/// Entry `h` of the result is the plan for hour `day_start_hour + h`.
///
/// The per-hour walk generators are pre-forked from `rng` in hour order —
/// exactly the forks a sequential loop would draw — and every candidate
/// evaluation derives its stream from the engine seed, so the returned
/// schedule is bit-identical at any worker count. The engine's estimate
/// cache is shared across all 24 solves.
pub fn solve_hourly_with<S: CarbonDataSource + Sync, M: StageModels + Sync>(
    engine: &EvalEngine,
    solver: &HbssSolver,
    ctx: &SolverContext<'_, S, M>,
    day_start_hour: f64,
    generated_at_s: f64,
    expires_at_s: f64,
    rng: &mut Pcg32,
) -> HourlyPlans {
    let hrngs: Vec<Pcg32> = (0..24).map(|h| rng.fork(h as u64)).collect();
    let (plans, stats) = pool::map_indexed(engine.workers(), 24, |h| {
        let mut hrng = hrngs[h].clone();
        solver
            .solve_with(engine, ctx, day_start_hour + h as f64 + 0.5, &mut hrng)
            .best
    });
    stats.emit();
    engine.flush_telemetry();
    HourlyPlans::hourly(plans, generated_at_s, expires_at_s)
}

/// Solves one daily plan against day-averaged carbon and replicates it.
///
/// The day-averaged source answers the same `(plan, hour)` keys
/// differently from `ctx`'s own source, so `engine` must not share its
/// cache with hourly solves of the same context.
pub fn solve_daily<S: CarbonDataSource, M: StageModels>(
    engine: &EvalEngine,
    solver: &HbssSolver,
    ctx: &SolverContext<'_, S, M>,
    day_start_hour: f64,
    generated_at_s: f64,
    expires_at_s: f64,
    rng: &mut Pcg32,
) -> HourlyPlans {
    let averaged = DayAveragedSource::new(ctx.carbon_source, day_start_hour);
    let day_ctx = SolverContext {
        dag: ctx.dag,
        profile: ctx.profile,
        permitted: ctx.permitted,
        home: ctx.home,
        objective: ctx.objective,
        tolerances: ctx.tolerances,
        carbon_source: &averaged,
        carbon_model: ctx.carbon_model,
        cost_model: ctx.cost_model.clone(),
        models: ctx.models,
        mc_config: ctx.mc_config,
    };
    let best = solver
        .solve_with(engine, &day_ctx, day_start_hour + 12.0, rng)
        .best;
    HourlyPlans::daily(best, generated_at_s, expires_at_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_carbon::series::CarbonSeries;
    use caribou_carbon::source::TableSource;
    use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
    use caribou_metrics::costmodel::CostModel;
    use caribou_metrics::montecarlo::{DefaultModels, MonteCarloConfig};
    use caribou_model::builder::Workflow;
    use caribou_model::constraints::{Objective, Tolerances};
    use caribou_model::dag::NodeId;
    use caribou_model::dist::DistSpec;
    use caribou_model::plan::PlanGranularity;
    use caribou_model::region::RegionCatalog;
    use caribou_simcloud::compute::LambdaRuntime;
    use caribou_simcloud::latency::LatencyModel;
    use caribou_simcloud::orchestration::Orchestrator;
    use caribou_simcloud::pricing::PricingCatalog;

    #[test]
    fn hourly_plans_follow_diurnal_carbon() {
        let cat = RegionCatalog::aws_default();
        let pricing = PricingCatalog::aws_default(&cat);
        let mut runtime = LambdaRuntime::aws_default(&cat);
        runtime.cold_start_prob = 0.0;
        runtime.exec_sigma = 0.0;
        let latency = LatencyModel::from_catalog(&cat);
        // Two-region world: us-east-1 flat at 380; us-west-2 is cleaner at
        // night (hours 0-11) and dirtier during the day (hours 12-23).
        let mut carbon = TableSource::new();
        let east = cat.id_of("us-east-1").unwrap();
        let west = cat.id_of("us-west-2").unwrap();
        for (id, _) in cat.iter() {
            let values: Vec<f64> = (0..24)
                .map(|h| {
                    if id == west {
                        if h < 12 {
                            50.0
                        } else {
                            900.0
                        }
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
            .exec_time(DistSpec::Constant { value: 6.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: 6.0 })
            .register();
        wf.invoke(a, b, None);
        let (dag, profile, _) = wf.extract().unwrap();
        let permitted = vec![vec![east, west], vec![east, west]];
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
                latency: 0.8,
                cost: 0.8,
                carbon: f64::INFINITY,
            },
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let solver = HbssSolver::new();
        // Night hours offload to the clean west; day hours stay east. The
        // schedule must be bit-identical no matter how many workers fan
        // it out.
        let schedule_at = |workers: usize| {
            let engine = EvalEngine::new(99, workers);
            let plans = solve_hourly_with(
                &engine,
                &solver,
                &ctx,
                0.0,
                0.0,
                86_400.0,
                &mut Pcg32::seed(1),
            );
            assert!(engine.hit_count() > 0, "cache never hit");
            plans
        };
        let w1 = schedule_at(1);
        let w4 = schedule_at(4);
        assert_eq!(w1, w4);
        assert_eq!(w1.granularity, PlanGranularity::Hourly);
        assert_eq!(w1.plan_for_hour(3).region_of(NodeId(0)), west);
        assert_eq!(w1.plan_for_hour(15).region_of(NodeId(0)), east);
    }

    #[test]
    fn daily_plan_replicates_single_solution() {
        let cat = RegionCatalog::aws_default();
        let pricing = PricingCatalog::aws_default(&cat);
        let mut runtime = LambdaRuntime::aws_default(&cat);
        runtime.cold_start_prob = 0.0;
        let latency = LatencyModel::from_catalog(&cat);
        let mut carbon = TableSource::new();
        for (id, _) in cat.iter() {
            carbon.insert(id, CarbonSeries::new(0, vec![200.0; 24]));
        }
        let mut wf = Workflow::new("w", "0.1");
        wf.serverless_function("A").register();
        let (dag, profile, _) = wf.extract().unwrap();
        let east = cat.id_of("us-east-1").unwrap();
        let permitted = vec![cat.evaluation_regions()];
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
            tolerances: Tolerances::default(),
            carbon_source: &carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples: 200,
                cv_threshold: 0.05,
            },
        };
        let solver = HbssSolver::new();
        let engine = EvalEngine::new(1, 1);
        let plans = solve_daily(&engine, &solver, &ctx, 0.0, 5.0, 10.0, &mut Pcg32::seed(1));
        assert_eq!(plans.granularity, PlanGranularity::Daily);
        let first = plans.plan_for_hour(0).clone();
        for h in 1..24 {
            assert_eq!(*plans.plan_for_hour(h), first);
        }
        assert_eq!(plans.generated_at, 5.0);
        assert_eq!(plans.expires_at, 10.0);
    }
}
