//! Shared experiment infrastructure for the figure/table binaries.
//!
//! The experiment pipeline mirrors the paper's methodology (§9.1):
//! deployment plans are solved on *forecast* carbon data (Holt-Winters on
//! the trailing week) and evaluated on *actual* data over the evaluation
//! week (2023-10-15 .. 2023-10-21 — simulation hours 0..168); carbon is
//! reported normalized to the coarse `us-east-1` deployment; both the
//! best-case and worst-case transmission-carbon scenarios are reported.

use std::collections::HashMap;

use caribou_carbon::source::{ForecastingSource, RegionalSource};
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{
    DefaultModels, EstimateSummary, MonteCarloConfig, MonteCarloEstimator,
};
use caribou_model::constraints::{Constraints, Objective, Tolerances};
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::{RegionCatalog, RegionId};
use caribou_model::rng::Pcg32;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::context::SolverContext;
use caribou_solver::engine::EvalEngine;
use caribou_solver::hbss::{HbssParams, HbssSolver};
use caribou_workloads::benchmarks::Benchmark;

/// Hours in the evaluation week.
pub const WEEK_HOURS: usize = 168;

/// The experiment environment: cloud, calibrated carbon, region universe.
pub struct ExpEnv {
    /// Simulated cloud (latency, pricing, compute models).
    pub cloud: SimCloud,
    /// Actual carbon data (Electricity-Maps-calibrated synthetic).
    pub carbon: RegionalSource,
    /// The four §9.1 evaluation regions.
    pub regions: Vec<RegionId>,
    /// Home region (`us-east-1`).
    pub home: RegionId,
}

impl ExpEnv {
    /// Builds the standard environment.
    pub fn new(seed: u64) -> Self {
        let cloud = SimCloud::aws(seed);
        let carbon = RegionalSource::new(
            &cloud.regions,
            SyntheticCarbonSource::aws_calibrated(20231015),
        )
        .expect("the default catalog's grid zones are all calibrated");
        let regions = cloud.regions.evaluation_regions();
        let home = cloud.region("us-east-1").unwrap();
        ExpEnv {
            cloud,
            carbon,
            regions,
            home,
        }
    }

    /// Region id by name; experiment setup uses fixed catalog names.
    pub fn region(&self, name: &str) -> RegionId {
        self.cloud
            .region(name)
            .expect("experiment regions come from the default catalog")
    }

    /// Region catalog.
    pub fn catalog(&self) -> &RegionCatalog {
        &self.cloud.regions
    }
}

/// Step (hours) between evaluation points; set `CARIBOU_FAST=1` to
/// coarsen experiments for smoke runs.
pub fn hour_step() -> usize {
    if std::env::var("CARIBOU_FAST").is_ok_and(|v| v == "1") {
        12
    } else {
        3
    }
}

/// Monte Carlo budget for experiment evaluation.
pub fn mc_config() -> MonteCarloConfig {
    MonteCarloConfig {
        batch: 100,
        max_samples: 400,
        cv_threshold: 0.08,
    }
}

/// HBSS parameters for experiment solving (slightly tightened iteration
/// cap to keep full-figure runs quick).
pub fn hbss_params() -> HbssParams {
    HbssParams {
        max_iterations: 150,
        ..HbssParams::default()
    }
}

/// Default experiment tolerances: 10% on tail latency, generous on cost
/// (the paper's QoS studies vary only the runtime tolerance, §9.4),
/// unbounded carbon (the solver minimizes it).
pub fn default_tolerances() -> Tolerances {
    Tolerances {
        latency: 0.10,
        cost: 1.0,
        carbon: f64::INFINITY,
    }
}

/// Aggregated metrics of one deployment strategy over the week.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrategyResult {
    /// Mean carbon per invocation, gCO₂eq.
    pub carbon_g: f64,
    /// Execution-only component.
    pub exec_carbon_g: f64,
    /// Transmission-only component.
    pub trans_carbon_g: f64,
    /// Mean end-to-end latency, seconds.
    pub latency_mean_s: f64,
    /// Mean tail (p95) end-to-end latency, seconds.
    pub latency_p95_s: f64,
    /// Mean cost per invocation, USD.
    pub cost_usd: f64,
}

impl StrategyResult {
    fn accumulate(&mut self, e: &EstimateSummary) {
        self.carbon_g += e.carbon.mean;
        self.exec_carbon_g += e.exec_carbon_mean;
        self.trans_carbon_g += e.trans_carbon_mean;
        self.latency_mean_s += e.latency.mean;
        self.latency_p95_s += e.latency.p95;
        self.cost_usd += e.cost.mean;
    }

    fn scale(&mut self, f: f64) {
        self.carbon_g *= f;
        self.exec_carbon_g *= f;
        self.trans_carbon_g *= f;
        self.latency_mean_s *= f;
        self.latency_p95_s *= f;
        self.cost_usd *= f;
    }
}

/// Evaluates `plan_at(hour)` with the *actual* carbon source at each
/// sampled hour of the evaluation week and averages.
pub fn eval_over_week(
    env: &ExpEnv,
    bench: &Benchmark,
    scenario: TransmissionScenario,
    mut plan_at: impl FnMut(f64) -> DeploymentPlan,
    seed: u64,
) -> StrategyResult {
    let models = DefaultModels {
        profile: &bench.profile,
        runtime: &env.cloud.compute,
        latency: &env.cloud.latency,
        orchestrator: Orchestrator::Caribou,
    };
    let mut total = StrategyResult::default();
    let mut rng = Pcg32::seed_stream(seed, 0xe7a1);
    let step = hour_step();
    let mut n = 0usize;
    let mut hour = 0usize;
    while hour < WEEK_HOURS {
        let h = hour as f64 + 0.5;
        let plan = plan_at(h);
        let est = MonteCarloEstimator {
            dag: &bench.dag,
            profile: &bench.profile,
            carbon_source: &env.carbon,
            carbon_model: CarbonModel::new(scenario),
            cost_model: CostModel::new(&env.cloud.pricing),
            models: &models,
            home: env.home,
            config: mc_config(),
        };
        let summary = est.estimate(&plan, h, &mut rng);
        total.accumulate(&summary);
        n += 1;
        hour += step;
    }
    total.scale(1.0 / n.max(1) as f64);
    total
}

/// Caches one solved plan per sampled hour so the solver runs once per
/// point, on forecast data fitted at that day's start — the paper's
/// solve-on-forecast / evaluate-on-actual split.
pub struct FineSolver<'e> {
    env: &'e ExpEnv,
    bench: &'e Benchmark,
    region_set: Vec<RegionId>,
    permitted: Vec<Vec<RegionId>>,
    scenario: TransmissionScenario,
    tolerances: Tolerances,
    cache: HashMap<usize, DeploymentPlan>,
    seed: u64,
}

impl<'e> FineSolver<'e> {
    /// Creates a solver over an explicit region set.
    pub fn new(
        env: &'e ExpEnv,
        bench: &'e Benchmark,
        region_set: &[RegionId],
        scenario: TransmissionScenario,
        tolerances: Tolerances,
        seed: u64,
    ) -> Self {
        let mut constraints = Constraints::unconstrained(bench.dag.node_count());
        constraints.tolerances = tolerances;
        Self::with_constraints(env, bench, region_set, &constraints, scenario, seed)
    }

    /// Creates a solver honoring explicit per-node constraints.
    pub fn with_constraints(
        env: &'e ExpEnv,
        bench: &'e Benchmark,
        region_set: &[RegionId],
        constraints: &Constraints,
        scenario: TransmissionScenario,
        seed: u64,
    ) -> Self {
        let permitted = constraints
            .permitted_regions(&bench.dag, region_set, &env.cloud.regions, env.home)
            .expect("valid constraints");
        let mut region_set: Vec<RegionId> = region_set.to_vec();
        if !region_set.contains(&env.home) {
            region_set.push(env.home);
        }
        FineSolver {
            env,
            bench,
            region_set,
            permitted,
            scenario,
            tolerances: constraints.tolerances,
            cache: HashMap::new(),
            seed,
        }
    }

    /// The solved plan for the given absolute hour (forecast-based).
    pub fn plan_at(&mut self, hour: f64) -> DeploymentPlan {
        let key = hour as usize;
        if let Some(p) = self.cache.get(&key) {
            return p.clone();
        }
        let day_start = (hour / 24.0).floor() * 24.0;
        let forecast = ForecastingSource::fit(&self.env.carbon, &self.region_set, day_start, 48);
        let models = DefaultModels {
            profile: &self.bench.profile,
            runtime: &self.env.cloud.compute,
            latency: &self.env.cloud.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &self.bench.dag,
            profile: &self.bench.profile,
            permitted: &self.permitted,
            home: self.env.home,
            objective: Objective::Carbon,
            tolerances: self.tolerances,
            carbon_source: &forecast,
            carbon_model: CarbonModel::new(self.scenario),
            cost_model: CostModel::new(&self.env.cloud.pricing),
            models: &models,
            mc_config: mc_config(),
        };
        let solver = HbssSolver {
            params: hbss_params(),
        };
        let seed = self.seed ^ key as u64;
        let engine = EvalEngine::new(seed, 1);
        let mut rng = Pcg32::seed_stream(seed, 0x501e);
        let plan = solver.solve_with(&engine, &ctx, hour, &mut rng).best;
        self.cache.insert(key, plan.clone());
        plan
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Writes machine-readable experiment output under `results/`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, s);
            eprintln!("[wrote {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caribou_workloads::benchmarks::{dna_visualization, InputSize};

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eval_over_week_produces_positive_metrics() {
        std::env::set_var("CARIBOU_FAST", "1");
        let env = ExpEnv::new(1);
        let bench = dna_visualization(InputSize::Small);
        let home = env.home;
        let r = eval_over_week(
            &env,
            &bench,
            TransmissionScenario::BEST,
            |_| DeploymentPlan::uniform(1, home),
            1,
        );
        assert!(r.carbon_g > 0.0);
        assert!(r.latency_mean_s > 0.0);
        assert!(r.latency_p95_s >= r.latency_mean_s);
        assert!(r.cost_usd > 0.0);
    }

    #[test]
    fn fine_solver_caches_plans() {
        std::env::set_var("CARIBOU_FAST", "1");
        let env = ExpEnv::new(2);
        let bench = dna_visualization(InputSize::Small);
        let regions = env.regions.clone();
        let mut solver = FineSolver::new(
            &env,
            &bench,
            &regions,
            TransmissionScenario::BEST,
            default_tolerances(),
            1,
        );
        let a = solver.plan_at(10.5);
        let b = solver.plan_at(10.9);
        assert_eq!(a, b, "same hour bucket returns the cached plan");
    }
}
