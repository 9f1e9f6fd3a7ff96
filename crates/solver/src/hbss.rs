//! Heuristic-Biased Stochastic Sampling (Alg. 1 of the paper).
//!
//! Starting from the home-region deployment, HBSS repeatedly generates
//! neighbour deployments by re-assigning a few nodes, biased toward
//! low-carbon regions; accepts improvements outright and worse candidates
//! with a probability that shrinks with the gap and a decaying temperature
//! γ (×0.99 per acceptance); and terminates after `α = |N| · |R| · 6`
//! iterations or once the whole search space has been enumerated.
//!
//! One adaptation versus the paper's pseudo-code: the acceptance gap
//! `Δ = γ · |CD.metric − ND.metric|` is computed on the *relative* metric
//! difference scaled by [`HbssParams::mutation_scale`]. The paper's
//! absolute form is unit-dependent (carbon per invocation is milligrams,
//! so `e^{-Δ} ≈ 1` and the walk would accept everything); the relative
//! form preserves the intended behaviour across metrics.

use std::collections::HashSet;

use caribou_carbon::source::CarbonDataSource;
use caribou_metrics::montecarlo::StageModels;
use caribou_model::dag::NodeId;
use caribou_model::plan::DeploymentPlan;
use caribou_model::region::RegionId;
use caribou_model::rng::Pcg32;

use crate::context::{SolveOutcome, SolverContext};
use crate::engine::EvalEngine;

/// HBSS hyper-parameters (Alg. 1; "determined empirically").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbssParams {
    /// Iteration budget multiplier: `α = |N| · |R| · alpha_factor`.
    pub alpha_factor: usize,
    /// Rank-bias β of the region-selection heuristic.
    pub beta: f64,
    /// Initial temperature γ.
    pub gamma: f64,
    /// Temperature decay per acceptance.
    pub gamma_decay: f64,
    /// Scale applied to the relative metric gap in the stochastic
    /// mutation acceptance.
    pub mutation_scale: f64,
    /// Hard cap on iterations regardless of DAG/region count, mirroring
    /// the dynamic adjustment to AWS Lambda's 900 s limit (§5.1).
    pub max_iterations: usize,
}

impl Default for HbssParams {
    fn default() -> Self {
        HbssParams {
            alpha_factor: 6,
            beta: 0.2,
            gamma: 1.0,
            gamma_decay: 0.99,
            mutation_scale: 20.0,
            max_iterations: 5_000,
        }
    }
}

/// The HBSS deployment solver.
#[derive(Debug, Clone, Default)]
pub struct HbssSolver {
    /// Hyper-parameters.
    pub params: HbssParams,
}

impl HbssSolver {
    /// Creates a solver with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs HBSS for the deployment at a given hour, with every candidate
    /// evaluated through an [`EvalEngine`].
    ///
    /// The walk generator `rng` drives only mutation and acceptance; each
    /// candidate's Monte Carlo stream derives from the engine's solve seed,
    /// so repeated candidates are cache lookups and re-enter the
    /// acceptance step like in the paper's Alg. 1, which has no dedup.
    /// The result depends only on `(params, ctx, hour, rng seed, engine
    /// seed)` — never on the engine's worker count.
    pub fn solve_with<S: CarbonDataSource, M: StageModels>(
        &self,
        engine: &EvalEngine,
        ctx: &SolverContext<'_, S, M>,
        hour: f64,
        rng: &mut Pcg32,
    ) -> SolveOutcome {
        let telemetry = caribou_telemetry::is_enabled();
        let _solve_span = telemetry.then(|| caribou_telemetry::wall_span("solver", "hbss.solve"));
        let p = &self.params;
        let n_nodes = ctx.dag.node_count();
        let n_regions = ctx
            .permitted
            .iter()
            .flat_map(|s| s.iter())
            .collect::<HashSet<_>>()
            .len();
        let alpha = (n_nodes * n_regions * p.alpha_factor).min(p.max_iterations);
        let space = ctx.search_space_size();

        // Region bias: rank permitted regions per node ascending by the
        // forecast carbon intensity at this hour; HBSS samples ranks with
        // geometric weights (the "heuristic bias").
        let ranked: Vec<Vec<RegionId>> = ctx
            .permitted
            .iter()
            .map(|set| {
                let mut v = set.clone();
                v.sort_by(|a, b| {
                    ctx.carbon_source
                        .intensity(*a, hour)
                        .total_cmp(&ctx.carbon_source.intensity(*b, hour))
                });
                v
            })
            .collect();

        let home_plan = ctx.home_plan();
        let home_estimate = engine.evaluate(ctx, &home_plan, hour);
        let mut current_plan = home_plan.clone();
        let mut current_metric = ctx.metric_of(&home_estimate);
        let mut gamma = p.gamma;

        let mut seen: HashSet<Vec<RegionId>> = HashSet::new();
        seen.insert(home_plan.assignment().to_vec());
        let mut evaluated = 1usize;
        let mut feasible: Vec<(DeploymentPlan, f64)> = vec![(home_plan.clone(), current_metric)];
        let mut best_plan = home_plan.clone();
        let mut best_metric = current_metric;
        let mut best_estimate = home_estimate;

        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut i = 0usize;
        while i < alpha {
            let nd = self.gen_new_deployment(&current_plan, &ranked, p.beta, rng);
            i += 1;
            let first_visit = seen.insert(nd.assignment().to_vec());
            let estimate = engine.evaluate(ctx, &nd, hour);
            if first_visit {
                evaluated += 1;
            }
            if ctx.violates_tolerance(&estimate, &home_estimate) {
                if telemetry && first_visit {
                    caribou_telemetry::count("solver.infeasible", 1);
                }
                continue;
            }
            let metric = ctx.metric_of(&estimate);
            if first_visit {
                feasible.push((nd.clone(), metric));
                if metric < best_metric {
                    best_metric = metric;
                    best_plan = nd.clone();
                    best_estimate = estimate;
                }
            }
            let accept = metric < current_metric
                || self.stochastic_mutation(gamma, current_metric, metric, p.mutation_scale, rng);
            if accept {
                accepted += 1;
                current_plan = nd;
                current_metric = metric;
                gamma *= p.gamma_decay;
                if telemetry {
                    // The temperature trajectory: one point per acceptance.
                    caribou_telemetry::event("solver.accept", format!("h{}", hour as u64), gamma);
                }
            } else {
                rejected += 1;
            }
            if seen.len() >= space {
                break;
            }
        }
        if telemetry {
            caribou_telemetry::count("solver.iterations", i as u64);
            caribou_telemetry::count("solver.accepted", accepted);
            caribou_telemetry::count("solver.rejected", rejected);
            caribou_telemetry::count("solver.evaluated", evaluated as u64);
            caribou_telemetry::gauge("solver.gamma", gamma);
            caribou_telemetry::event("solver.solve", format!("h{}", hour as u64), i as f64);
        }
        engine.flush_telemetry();

        feasible.sort_by(|a, b| a.1.total_cmp(&b.1));
        SolveOutcome {
            best: best_plan,
            best_estimate,
            home_estimate,
            evaluated,
            feasible,
        }
    }

    /// `GenNewDeplWBias`: mutates one or two nodes of the current plan,
    /// choosing replacement regions rank-biased toward low carbon.
    fn gen_new_deployment(
        &self,
        current: &DeploymentPlan,
        ranked: &[Vec<RegionId>],
        beta: f64,
        rng: &mut Pcg32,
    ) -> DeploymentPlan {
        let mut nd = current.clone();
        let n = current.len();
        let mutations = if n > 1 && rng.chance(0.3) { 2 } else { 1 };
        for _ in 0..mutations {
            let node = rng.next_index(n);
            let choices = &ranked[node];
            if choices.len() <= 1 {
                continue;
            }
            // Geometric rank weights w_r = β(1-β)^r — Bresina's
            // bias-rank sampling.
            let weights: Vec<f64> = (0..choices.len())
                .map(|r| beta * (1.0 - beta).powi(r as i32))
                .collect();
            let pick = rng
                .choose_weighted(&weights)
                .expect("non-empty positive weights");
            nd.set(NodeId(node as u32), choices[pick]);
        }
        nd
    }

    /// `MUT`: accepts a worse candidate with probability `e^{-Δ}` where
    /// `Δ = γ · |rel gap| · mutation_scale`.
    fn stochastic_mutation(
        &self,
        gamma: f64,
        current: f64,
        candidate: f64,
        scale: f64,
        rng: &mut Pcg32,
    ) -> bool {
        let denom = current.abs().max(1e-30);
        let delta = gamma * ((current - candidate).abs() / denom) * scale;
        rng.next_f64() < (-delta).exp()
    }
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
    use caribou_model::dist::DistSpec;
    use caribou_model::region::RegionCatalog;
    use caribou_simcloud::compute::LambdaRuntime;
    use caribou_simcloud::latency::LatencyModel;
    use caribou_simcloud::orchestration::Orchestrator;
    use caribou_simcloud::pricing::PricingCatalog;

    struct Fx {
        cat: RegionCatalog,
        home: RegionId,
        pricing: PricingCatalog,
        runtime: LambdaRuntime,
        latency: LatencyModel,
        carbon: TableSource,
    }

    fn fx() -> Fx {
        let cat = RegionCatalog::aws_default();
        let pricing = PricingCatalog::aws_default(&cat);
        let mut runtime = LambdaRuntime::aws_default(&cat);
        runtime.cold_start_prob = 0.0;
        let latency = LatencyModel::from_catalog(&cat);
        let mut carbon = TableSource::new();
        for (id, spec) in cat.iter() {
            let v = match spec.name.as_str() {
                "us-east-1" | "us-east-2" => 380.0,
                "us-west-1" => 360.0,
                "us-west-2" => 370.0,
                "ca-central-1" => 32.0,
                _ => 400.0,
            };
            carbon.insert(id, CarbonSeries::new(0, vec![v; 24]));
        }
        Fx {
            home: cat.id_of("us-east-1").unwrap(),
            cat,
            pricing,
            runtime,
            latency,
            carbon,
        }
    }

    /// Runs one HBSS walk over a two-node compute-heavy workflow (5 s then
    /// 10 s, tiny payloads) with node `i` restricted to `permitted[i]`, on
    /// a private engine seeded like the walk.
    fn solve(
        fx: &Fx,
        permitted: &[Vec<RegionId>],
        tolerances: Tolerances,
        max_samples: usize,
        seed: u64,
    ) -> SolveOutcome {
        let mut wf = Workflow::new("heavy", "0.1");
        let a = wf
            .serverless_function("A")
            .exec_time(DistSpec::Constant { value: 5.0 })
            .register();
        let b = wf
            .serverless_function("B")
            .exec_time(DistSpec::Constant { value: 10.0 })
            .register();
        wf.invoke(a, b, None)
            .payload(DistSpec::Constant { value: 50_000.0 });
        wf.set_input(DistSpec::Constant { value: 10_000.0 });
        let (dag, profile, _) = wf.extract().unwrap();
        let models = DefaultModels {
            profile: &profile,
            runtime: &fx.runtime,
            latency: &fx.latency,
            orchestrator: Orchestrator::Caribou,
        };
        let ctx = SolverContext {
            dag: &dag,
            profile: &profile,
            permitted,
            home: fx.home,
            objective: Objective::Carbon,
            tolerances,
            carbon_source: &fx.carbon,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&fx.pricing),
            models: &models,
            mc_config: MonteCarloConfig {
                batch: 100,
                max_samples,
                cv_threshold: 0.05,
            },
        };
        HbssSolver::new().solve_with(&EvalEngine::new(seed, 1), &ctx, 0.5, &mut Pcg32::seed(seed))
    }

    /// Latency and cost tolerances of `tol`, carbon unbounded.
    fn tolerant(tol: f64) -> Tolerances {
        Tolerances {
            latency: tol,
            cost: tol,
            carbon: f64::INFINITY,
        }
    }

    #[test]
    fn hbss_offloads_compute_heavy_workflow_to_clean_region() {
        let fx = fx();
        let ca = fx.cat.id_of("ca-central-1").unwrap();
        let permitted = vec![fx.cat.evaluation_regions(); 2];
        // Generous tolerance: compute-heavy, latency-tolerant.
        let outcome = solve(&fx, &permitted, tolerant(0.5), 400, 1);
        // ca-central-1 is ~12x cleaner; a 15 s compute-heavy workflow with
        // tiny payloads must end up there.
        assert_eq!(outcome.best.region_of(NodeId(0)), ca);
        assert_eq!(outcome.best.region_of(NodeId(1)), ca);
        assert!(
            outcome.best_estimate.carbon.mean < outcome.home_estimate.carbon.mean * 0.3,
            "best {} home {}",
            outcome.best_estimate.carbon.mean,
            outcome.home_estimate.carbon.mean
        );
    }

    #[test]
    fn tight_latency_tolerance_keeps_home() {
        let fx = fx();
        let permitted = vec![fx.cat.evaluation_regions(); 2];
        let outcome = solve(&fx, &permitted, tolerant(0.0), 400, 2);
        // Zero tolerance on latency and cost: nothing beats home (offload
        // adds cross-region latency and cost premium); the solver must
        // fall back to the home deployment.
        assert!(outcome.best.is_single_region());
        assert_eq!(outcome.best.region_of(NodeId(0)), fx.home);
    }

    #[test]
    fn deterministic_given_seed() {
        let fx = fx();
        let permitted = vec![fx.cat.evaluation_regions(); 2];
        let a = solve(&fx, &permitted, Tolerances::default(), 200, 9);
        let b = solve(&fx, &permitted, Tolerances::default(), 200, 9);
        assert_eq!(a.best.assignment(), b.best.assignment());
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn respects_permitted_regions() {
        let fx = fx();
        let home = fx.home;
        let usw2 = fx.cat.id_of("us-west-2").unwrap();
        // Node 0 pinned to home; node 1 may go to us-west-2 only.
        let permitted = vec![vec![home], vec![home, usw2]];
        let outcome = solve(&fx, &permitted, tolerant(1.0), 200, 3);
        assert_eq!(outcome.best.region_of(NodeId(0)), home);
        let r1 = outcome.best.region_of(NodeId(1));
        assert!(r1 == home || r1 == usw2);
        // Small search space (2 plans) is fully enumerated.
        assert!(outcome.evaluated <= 2);
    }

    #[test]
    fn feasible_list_sorted_best_first() {
        let fx = fx();
        let permitted = vec![fx.cat.evaluation_regions(); 2];
        let outcome = solve(&fx, &permitted, tolerant(0.5), 200, 4);
        assert!(outcome.feasible.len() >= 2);
        for w in outcome.feasible.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(
            outcome.feasible[0].0.assignment(),
            outcome.best.assignment()
        );
    }
}
