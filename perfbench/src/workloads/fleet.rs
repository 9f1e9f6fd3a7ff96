//! `fleet-replan`: 400 seeded heterogeneous apps × 24 hours, solved cold
//! through one shared estimate cache, then re-planned incrementally after
//! a forecast revision covering several hours and regions, then verified
//! against an untimed from-scratch solve of the revised forecast.

use std::sync::Arc;

use caribou_carbon::source::{CarbonDataSource, TableSource};
use caribou_core::fleet::{
    replan_incremental, solve_fleet, FleetConfig, FleetEnv, FleetReport, PerturbOp, Perturbation,
};
use caribou_metrics::carbonmodel::{CarbonModel, TransmissionScenario};
use caribou_metrics::costmodel::CostModel;
use caribou_metrics::montecarlo::{DefaultModels, MonteCarloEstimator};
use caribou_model::constraints::Objective;
use caribou_model::rng::SeedSplitter;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_solver::engine::{EstimateCache, EvalEngine};
use caribou_solver::SolverContext;
use caribou_workloads::fleet::{generate_fleet, FleetApp};

use super::{alternate, counter_loss, with_recorder, Outcome, RunSpec};
use crate::stats::{median, median_time, quantile_sorted, repeat_for, timed};
use crate::trace::Tracer;

/// Apps in the fleet.
pub const APPS: usize = 400;
/// Hours each app is planned for.
pub const HOURS: usize = 24;
/// Consecutive hours the forecast revision covers.
pub const REVISED_HOURS: usize = 8;
/// Regions the forecast revision covers.
pub const REVISED_REGIONS: usize = 4;
/// Factor the revision scales the covered forecast values by.
pub const REVISION_FACTOR: f64 = 1.3;
/// Cells the miss and estimator probes evaluate.
const PROBE_CELLS: usize = 300;
/// Apps of the recorder runs that measure counter loss.
const LOSS_APPS: usize = 40;

/// The workload's inputs: environment, apps and the revision.
pub struct Inputs {
    /// Fleet configuration.
    pub cfg: FleetConfig,
    /// The forecast the full solve plans against.
    pub env: FleetEnv,
    /// The fleet.
    pub apps: Vec<FleetApp>,
    /// The forecast revision.
    pub perturbs: Vec<Perturbation>,
    /// `env` with the revision applied.
    pub revised: FleetEnv,
}

/// Builds the inputs for `seed`: the revision covers
/// [`REVISED_HOURS`] hours from a seeded start and [`REVISED_REGIONS`]
/// seeded regions.
pub fn inputs(seed: u64, workers: usize, apps: usize) -> Inputs {
    let cfg = FleetConfig {
        apps,
        hours: HOURS,
        workers,
        seed,
        ..FleetConfig::default()
    };
    let env = FleetEnv::new(seed, HOURS);
    let fleet = generate_fleet(seed, apps, &env.universe);
    let mut rng = SeedSplitter::new(seed).absorb(0x7e71).rng();
    let start = rng.next_index(HOURS - REVISED_HOURS + 1);
    let mut regions = env.universe.clone();
    rng.shuffle(&mut regions);
    let perturbs: Vec<Perturbation> = (start..start + REVISED_HOURS)
        .flat_map(|hour| {
            regions[..REVISED_REGIONS]
                .iter()
                .map(move |&r| Perturbation {
                    hour,
                    region: Some(r),
                    op: PerturbOp::Scale(REVISION_FACTOR),
                })
        })
        .collect();
    let mut revised = FleetEnv::new(seed, HOURS);
    revised.apply_perturbations(&perturbs);
    Inputs {
        cfg,
        env,
        apps: fleet,
        perturbs,
        revised,
    }
}

/// One planning cycle: the cold full solve and the incremental re-plan,
/// each timed.
pub struct Cycle {
    /// Host seconds of `solve_fleet`.
    pub full_s: f64,
    /// Host seconds of `replan_incremental`.
    pub replan_s: f64,
    /// The full solve's report.
    pub full: FleetReport,
    /// The re-plan's report.
    pub replan: FleetReport,
    /// Cache (hits, misses) of the full solve.
    pub full_lookups: (u64, u64),
    /// The shared cache after both.
    pub cache: Arc<EstimateCache>,
}

/// Hits over lookups; 0 without lookups.
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Runs one cycle on a fresh cache, with spans when `tracer` is on.
pub fn cycle(inp: &Inputs, cfg: &FleetConfig, tracer: &mut Tracer) -> Cycle {
    let cache = EstimateCache::shared(cfg.cache_capacity);
    tracer.enter("core.fleet.cycle", 0);
    tracer.enter("core.fleet.solve_fleet", 0);
    let (full_s, full) = timed(|| solve_fleet(&inp.apps, &inp.env, cfg, &cache));
    let full_lookups = (cache.hit_count(), cache.miss_count());
    tracer.exit();
    tracer.enter("core.fleet.replan_incremental", 1);
    let (replan_s, replan) = timed(|| {
        replan_incremental(
            &inp.apps,
            &inp.revised,
            cfg,
            &cache,
            &full.schedule,
            &inp.perturbs,
        )
    });
    tracer.exit();
    tracer.exit();
    Cycle {
        full_s,
        replan_s,
        full,
        replan,
        full_lookups,
        cache,
    }
}

/// The solver contexts of every app against `env`, as `solve_fleet`
/// builds them.
fn contexts<'a>(
    apps: &'a [FleetApp],
    env: &'a FleetEnv,
    table: &'a TableSource,
    models: &'a [DefaultModels<'a>],
    cfg: &FleetConfig,
) -> Vec<SolverContext<'a, TableSource, DefaultModels<'a>>> {
    apps.iter()
        .zip(models)
        .map(|(a, m)| SolverContext {
            dag: &a.dag,
            profile: &a.profile,
            permitted: &a.permitted,
            home: a.home,
            objective: Objective::Carbon,
            tolerances: a.tolerances,
            carbon_source: table,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&env.cloud.pricing),
            models: m,
            mc_config: cfg.mc,
        })
        .collect()
}

fn models<'a>(apps: &'a [FleetApp], env: &'a FleetEnv) -> Vec<DefaultModels<'a>> {
    apps.iter()
        .map(|a| DefaultModels {
            profile: &a.profile,
            runtime: &env.cloud.compute,
            latency: &env.cloud.latency,
            orchestrator: Orchestrator::Caribou,
        })
        .collect()
}

/// The re-planned schedule's per-cell estimates, read back through
/// `EvalEngine::evaluate` on the cycle's cache.
struct CellEstimates {
    latency_mean_s: Vec<f64>,
    cost_mean_usd: Vec<f64>,
    /// Cells whose estimate disagrees with the schedule's carbon.
    mismatched: usize,
    /// Wall seconds of the evaluate calls, and cache hits among them.
    eval_s: f64,
    hits: u64,
}

fn cell_estimates(inp: &Inputs, c: &Cycle, tracer: &mut Tracer) -> CellEstimates {
    let table = inp.revised.table();
    let models = models(&inp.apps, &inp.revised);
    let ctxs = contexts(&inp.apps, &inp.revised, &table, &models, &inp.cfg);
    let hits0 = c.cache.hit_count();
    let mut est = CellEstimates {
        latency_mean_s: Vec::with_capacity(APPS * HOURS),
        cost_mean_usd: Vec::with_capacity(APPS * HOURS),
        mismatched: 0,
        eval_s: 0.0,
        hits: 0,
    };
    for (a, app) in inp.apps.iter().enumerate() {
        let engine = EvalEngine::with_cache_providers(
            inp.cfg.seed,
            app.fingerprint,
            inp.revised.provider_bits(),
            1,
            Arc::clone(&c.cache),
        );
        for h in 0..inp.cfg.hours {
            let cell = c.replan.schedule.cell(a, h);
            let id = (a * inp.cfg.hours + h) as u64;
            tracer.enter("solver.engine.evaluate", id);
            let (t, e) = timed(|| engine.evaluate(&ctxs[a], &cell.plan, h as f64 + 0.5));
            tracer.exit();
            est.eval_s += t;
            if e.carbon.mean.to_bits() != cell.carbon_mean.to_bits() {
                est.mismatched += 1;
            }
            est.latency_mean_s.push(e.latency.mean);
            est.cost_mean_usd.push(e.cost.mean);
        }
    }
    est.hits = c.cache.hit_count() - hits0;
    est
}

fn check_cycle(out: &mut Outcome, c: &Cycle, cells: usize) {
    out.check(
        c.full.solved_cells == cells && c.full.reused_cells == 0,
        || {
            format!(
                "full solve covered {} + {} of {cells} cells",
                c.full.solved_cells, c.full.reused_cells
            )
        },
    );
    out.check(
        c.replan.solved_cells + c.replan.reused_cells == cells && c.replan.solved_cells > 0,
        || {
            format!(
                "re-plan covered {} + {} of {cells} cells",
                c.replan.solved_cells, c.replan.reused_cells
            )
        },
    );
}

/// Cells of the re-plan that differ from the from-scratch solve.
fn verify(inp: &Inputs, c: &Cycle, tracer: &mut Tracer) -> usize {
    let cache = EstimateCache::shared(inp.cfg.cache_capacity);
    let scratch = tracer.span("core.fleet.verify_solve", 2, || {
        solve_fleet(&inp.apps, &inp.revised, &inp.cfg, &cache)
    });
    if scratch.schedule.digest() == c.replan.schedule.digest()
        && scratch.schedule == c.replan.schedule
    {
        return 0;
    }
    scratch
        .schedule
        .cells()
        .iter()
        .zip(c.replan.schedule.cells())
        .filter(|(a, b)| a != b)
        .count()
        .max(1)
}

/// Geometric mean of the cells' estimated carbon per invocation. The
/// arithmetic mean is dominated by the few heaviest apps of a fleet and
/// swings by ±15% from one seeded fleet to the next; the geometric mean
/// describes the typical cell and stays steady.
pub fn geometric_mean_carbon(schedule: &caribou_core::fleet::FleetSchedule) -> f64 {
    let cells = schedule.cells();
    let log_sum: f64 = cells.iter().map(|c| c.carbon_mean.ln()).sum();
    (log_sum / cells.len() as f64).exp()
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let seed = spec.derive(0xF1EE7);
    let (setup_s, inp) = median_time(25, 0.3, || inputs(seed, spec.workers, APPS));
    out.set("setup_s", setup_s);
    let cells = APPS * HOURS;
    if spec.trace {
        traced(spec, &inp, &mut out);
        return out;
    }

    // The first cycle warms the process and is the reference every timed
    // cycle must reproduce. Only the latest cycle is kept whole, so memory
    // does not grow with the number of cycles that fit in the run.
    let mut off = Tracer::new(false);
    let warm = cycle(&inp, &inp.cfg, &mut off);
    check_cycle(&mut out, &warm, cells);
    let reference = (warm.full.schedule.digest(), warm.replan.schedule.digest());
    drop(warm);
    let mut last: Option<Cycle> = None;
    let timings = repeat_for(spec.seconds, 3, |i| {
        let c = cycle(&inp, &inp.cfg, &mut off);
        check_cycle(&mut out, &c, cells);
        let digests = (c.full.schedule.digest(), c.replan.schedule.digest());
        out.check(digests == reference, || {
            format!("timed cycle {i} planned a different schedule")
        });
        let t = (
            c.full_s,
            c.replan_s,
            c.full.solved_cells + c.replan.solved_cells,
        );
        last = Some(c);
        t
    });
    let last = last.expect("at least three cycles");
    let mismatched = verify(&inp, &last, &mut off);
    out.check(mismatched == 0, || {
        format!("{mismatched} re-planned cells differ from the from-scratch solve")
    });
    let est = cell_estimates(&inp, &last, &mut off);
    out.check(est.mismatched == 0, || {
        format!(
            "{} cells' estimates disagree with the schedule",
            est.mismatched
        )
    });

    let attempted = (last.full.solved_cells + last.replan.solved_cells) as u64;
    out.attempted = attempted;
    out.failed += mismatched as u64;
    let rates: Vec<f64> = timings
        .iter()
        .map(|(full_s, replan_s, solved)| *solved as f64 / (full_s + replan_s))
        .collect();
    let mut lat = est.latency_mean_s.clone();
    lat.sort_by(f64::total_cmp);
    let schedule = &last.replan.schedule;
    out.set("ops_per_s", median(&rates));
    out.set(
        "completed_share",
        1.0 - out.failed as f64 / attempted as f64,
    );
    out.set("sim_latency_p50_s", quantile_sorted(&lat, 0.50));
    out.set("sim_latency_p99_s", quantile_sorted(&lat, 0.99));
    out.set("carbon_g_per_inv", geometric_mean_carbon(schedule));
    out.note(format!(
        "{} cycles: full solve {:.3} s, re-plan {:.3} s ({} cells) median; {:.0} app-hours/s",
        timings.len(),
        median(&timings.iter().map(|t| t.0).collect::<Vec<_>>()),
        median(&timings.iter().map(|t| t.1).collect::<Vec<_>>()),
        last.replan.solved_cells,
        median(&rates)
    ));
    out.note(format!("app-hours/s per cycle: {:.0?}", rates));
    out.note(format!(
        "cell carbon: arithmetic mean {:.6e} g over {} cells",
        schedule.total_carbon_mean() / APPS as f64,
        schedule.cells().len()
    ));
    out
}

fn traced(spec: &RunSpec, inp: &Inputs, out: &mut Outcome) {
    let cells = APPS * HOURS;
    // Untraced and traced cycles in alternation (the traced one with the
    // recorder on: the pool reports its utilization to it), then the
    // 1-worker reference.
    let (untraced_s, traced_s, untraced, (c, rec, mut tracer)) = alternate(
        || cycle(inp, &inp.cfg, &mut Tracer::new(false)),
        || {
            let mut tracer = Tracer::new(true);
            let (c, rec) = with_recorder(|| cycle(inp, &inp.cfg, &mut tracer));
            (c, rec, tracer)
        },
    );
    check_cycle(out, &untraced, cells);
    check_cycle(out, &c, cells);
    out.check(c.replan.schedule == untraced.replan.schedule, || {
        "the traced cycle planned a different schedule".into()
    });
    out.trace_summary(&tracer, "core.fleet.cycle", untraced_s, traced_s);
    let one_cfg = FleetConfig {
        workers: 1,
        ..inp.cfg
    };
    let (one_s, one) = timed(|| {
        solve_fleet(
            &inp.apps,
            &inp.env,
            &one_cfg,
            &EstimateCache::shared(one_cfg.cache_capacity),
        )
    });
    out.check(one.schedule == untraced.full.schedule, || {
        "the 1-worker full solve differs from the nproc one".into()
    });
    let mismatched = verify(inp, &c, &mut Tracer::new(false));
    out.check(mismatched == 0, || {
        format!("{mismatched} re-planned cells differ from the from-scratch solve")
    });
    out.attempted = (c.full.solved_cells + c.replan.solved_cells) as u64;
    out.failed += mismatched as u64;

    // Layer probes: evaluate hits over every cell, then misses, the
    // estimator and the carbon table over a sample of cells.
    let est = cell_estimates(inp, &c, &mut tracer);
    out.check(est.mismatched == 0, || {
        format!(
            "{} cells' estimates disagree with the schedule",
            est.mismatched
        )
    });
    let table = inp.revised.table();
    let models = models(&inp.apps, &inp.revised);
    let ctxs = contexts(&inp.apps, &inp.revised, &table, &models, &inp.cfg);
    let probe: Vec<(usize, usize)> = (0..PROBE_CELLS)
        .map(|i| {
            let cell = i * cells / PROBE_CELLS;
            (cell / HOURS, cell % HOURS)
        })
        .collect();
    let cold = EstimateCache::shared(inp.cfg.cache_capacity);
    let mut miss_s = 0.0;
    let mut est_s = 0.0;
    let mut samples = 0usize;
    for &(a, h) in &probe {
        let plan = &c.replan.schedule.cell(a, h).plan;
        let hour = h as f64 + 0.5;
        let engine = EvalEngine::with_cache_providers(
            inp.cfg.seed,
            inp.apps[a].fingerprint,
            inp.revised.provider_bits(),
            1,
            Arc::clone(&cold),
        );
        miss_s += timed(|| engine.evaluate(&ctxs[a], plan, hour)).0;
        let estimator = MonteCarloEstimator {
            dag: &inp.apps[a].dag,
            profile: &inp.apps[a].profile,
            carbon_source: &table,
            carbon_model: CarbonModel::new(TransmissionScenario::BEST),
            cost_model: CostModel::new(&inp.revised.cloud.pricing),
            models: &models[a],
            home: inp.apps[a].home,
            config: inp.cfg.mc,
        };
        let mut rng = engine.eval_rng(plan, hour);
        let (t, s) = timed(|| estimator.estimate_batched(plan, hour, &mut rng, 8));
        est_s += t;
        samples += s.samples;
    }
    let queries = inp.revised.universe.len() * HOURS;
    let reps = 2000;
    let (intensity_s, sum) = timed(|| {
        let mut sum = 0.0;
        for rep in 0..reps {
            for &r in &inp.revised.universe {
                for h in 0..HOURS {
                    sum += table.intensity(r, h as f64 + 0.5 + rep as f64 * 1e-9);
                }
            }
        }
        sum
    });
    std::hint::black_box(sum);

    // Counter loss: solver iterations recorded at nproc against 1 worker.
    let small = inputs(inp.cfg.seed, spec.workers, LOSS_APPS);
    let (_, rec_n) = with_recorder(|| cycle(&small, &small.cfg, &mut Tracer::new(false)));
    let one_small = FleetConfig {
        workers: 1,
        ..small.cfg
    };
    let (_, rec_1) = with_recorder(|| cycle(&small, &one_small, &mut Tracer::new(false)));
    let loss = counter_loss(&["solver.iterations", "montecarlo.samples"], &rec_n, &rec_1);

    // The cycle's lookups, without the estimate read-back's hits.
    let hits = c.cache.hit_count() - est.hits;
    let misses = c.cache.miss_count();
    let (full_hits, full_misses) = c.full_lookups;
    let mut lat = est.latency_mean_s.clone();
    lat.sort_by(f64::total_cmp);
    out.set("e2e.failed_share", mismatched as f64 / out.attempted as f64);
    out.set(
        "e2e.cost_usd_per_kinv",
        est.cost_mean_usd.iter().sum::<f64>() / est.cost_mean_usd.len() as f64 * 1000.0,
    );
    out.set("e2e.solve_carbon_g", c.full.solve_carbon_g);
    out.set("e2e.replan_s", untraced.replan_s);
    out.set(
        "core.fleet.full_solve_ops_per_s",
        cells as f64 / untraced.full_s,
    );
    out.set("solver.cache.hit_ratio", hit_ratio(hits, misses));
    out.set(
        "solver.cache.hit_ratio.full_solve",
        hit_ratio(full_hits, full_misses),
    );
    out.set(
        "solver.cache.hit_ratio.replan",
        hit_ratio(hits - full_hits, misses - full_misses),
    );
    out.set("solver.cache.misses", misses as f64);
    out.set("solver.cache.evictions", c.cache.eviction_count() as f64);
    out.set(
        "solver.cache.invalidated",
        c.replan.cache_entries_invalidated as f64,
    );
    out.set(
        "solver.engine.evaluate_ns.hit",
        est.eval_s * 1e9 / est.latency_mean_s.len() as f64,
    );
    out.set(
        "solver.engine.evaluate_ns.miss",
        miss_s * 1e9 / probe.len() as f64,
    );
    out.set(
        "solver.pool.utilization",
        rec.gauges
            .get("solver.pool.utilization")
            .copied()
            .unwrap_or(0.0),
    );
    out.set("solver.pool.speedup_nproc", one_s / untraced.full_s);
    out.set(
        "metrics.montecarlo.estimate_ns",
        est_s * 1e9 / probe.len() as f64,
    );
    out.set(
        "metrics.montecarlo.samples_per_estimate",
        samples as f64 / probe.len() as f64,
    );
    out.set(
        "carbon.source.intensity_ns",
        intensity_s * 1e9 / (queries * reps) as f64,
    );
    out.set("telemetry.counter_loss_share", loss);
    out.set("bench.latency_samples", lat.len() as f64);
    out.note(format!(
        "full solve {:.3} s at {} workers, {:.3} s at 1 worker; re-plan {:.3} s over {} cells",
        untraced.full_s, spec.workers, one_s, untraced.replan_s, untraced.replan.solved_cells
    ));
    out.tracer = Some(tracer);
}
