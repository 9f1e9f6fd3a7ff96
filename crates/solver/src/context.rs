//! Shared solver context: evaluation, feasibility, and result types.

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::carbonmodel::CarbonModel;
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{
    EstimateScratch, EstimateSummary, MonteCarloConfig, MonteCarloEstimator, StageModels,
};
use caribou_model::constraints::{Objective, Tolerances};
use caribou_model::dag::WorkflowDag;
use caribou_model::plan::DeploymentPlan;
use caribou_model::profile::WorkflowProfile;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

/// Everything a solver needs to evaluate candidate deployments.
pub struct SolverContext<'a, S: CarbonDataSource, M: StageModels> {
    /// Workflow DAG.
    pub dag: &'a WorkflowDag,
    /// Workload profile (possibly refreshed from logs).
    pub profile: &'a WorkflowProfile,
    /// Permitted regions per node, already narrowed by constraints (§8).
    pub permitted: &'a [Vec<RegionId>],
    /// Home region: baseline, fallback, and client/external-data anchor.
    pub home: RegionId,
    /// Optimization priority.
    pub objective: Objective,
    /// QoS tolerances versus the home-region deployment.
    pub tolerances: Tolerances,
    /// Carbon data (the solver receives *forecast* data in production).
    pub carbon_source: &'a S,
    /// Carbon model with the transmission scenario.
    pub carbon_model: CarbonModel,
    /// Cost model.
    pub cost_model: CostModel<'a>,
    /// Stage behaviour models (learned or model-based).
    pub models: &'a M,
    /// Monte Carlo stopping rule.
    pub mc_config: MonteCarloConfig,
}

/// A solver's result.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The best feasible plan found (the home plan when nothing beats it).
    pub best: DeploymentPlan,
    /// Estimate of the best plan.
    pub best_estimate: EstimateSummary,
    /// Estimate of the home-region baseline.
    pub home_estimate: EstimateSummary,
    /// Distinct candidate plans evaluated.
    pub evaluated: usize,
    /// All feasible `(plan, objective-mean)` pairs discovered, best first.
    pub feasible: Vec<(DeploymentPlan, f64)>,
}

impl<S: CarbonDataSource, M: StageModels> SolverContext<'_, S, M> {
    /// Evaluates a plan at an hour on the caller's Monte Carlo stream,
    /// reusing caller-owned estimator scratch (scratch never changes the
    /// result). Solvers go through
    /// [`EvalEngine::evaluate`](crate::engine::EvalEngine::evaluate),
    /// which derives the stream, caches the summary and pools scratch per
    /// worker; this uncached form is the oracle tests check it against.
    pub fn evaluate_with_scratch(
        &self,
        plan: &DeploymentPlan,
        hour: f64,
        rng: &mut Pcg32,
        scratch: &mut EstimateScratch,
    ) -> EstimateSummary {
        let est = MonteCarloEstimator {
            dag: self.dag,
            profile: self.profile,
            carbon_source: self.carbon_source,
            carbon_model: self.carbon_model,
            cost_model: self.cost_model.clone(),
            models: self.models,
            home: self.home,
            config: self.mc_config,
        };
        est.estimate_with(plan, hour, rng, scratch)
    }

    /// The home-region uniform plan.
    pub fn home_plan(&self) -> DeploymentPlan {
        DeploymentPlan::uniform(self.dag.node_count(), self.home)
    }

    /// Whether a candidate violates the QoS tolerances versus the home
    /// baseline: tail (p95) latency/cost/carbon must stay within
    /// `home × (1 + tolerance)` (§7.1: "the 95th percentile is the 'tail
    /// case' used to determine tolerance violations").
    pub fn violates_tolerance(&self, candidate: &EstimateSummary, home: &EstimateSummary) -> bool {
        let over = |cand: f64, base: f64, tol: f64| -> bool {
            tol.is_finite() && cand > base * (1.0 + tol) + 1e-12
        };
        over(
            candidate.latency.p95,
            home.latency.p95,
            self.tolerances.latency,
        ) || over(candidate.cost.p95, home.cost.p95, self.tolerances.cost)
            || over(
                candidate.carbon.p95,
                home.carbon.p95,
                self.tolerances.carbon,
            )
    }

    /// The scalar metric a plan is ordered by ("the mean represents the
    /// 'average case' used for DP ordering", §7.1).
    pub fn metric_of(&self, estimate: &EstimateSummary) -> f64 {
        estimate.mean_of(self.objective)
    }

    /// Total size of the search space `|R|^|N|` (clamped to `usize::MAX`).
    pub fn search_space_size(&self) -> usize {
        let mut total: usize = 1;
        for set in self.permitted {
            total = total.saturating_mul(set.len().max(1));
        }
        total
    }
}
