//! `framework-week`: text2speech deployed through `Caribou`, fed seven
//! simulated days of uniform traffic to `run_trace` one day at a time.
//!
//! The traced pass cuts the same week at every Deployment Manager check
//! (`DeploymentManager::next_check_s`): each check runs inside a one-
//! invocation `run_trace` slice, so the manager's solve-and-rollout time
//! is measured from outside the framework.

use caribou_carbon::source::RegionalSource;
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_core::framework::{Caribou, CaribouConfig, RunReport};
use caribou_exec::engine::WorkflowApp;
use caribou_metrics::carbonmodel::TransmissionScenario;
use caribou_model::manifest::DeploymentManifest;
use caribou_simcloud::cloud::SimCloud;
use caribou_workloads::benchmarks::{text2speech_censoring, InputSize};
use caribou_workloads::traces::uniform_trace;

use super::{alternate, counter_loss, route_ns, with_recorder, Outcome, RunSpec};
use crate::stats::{median, median_time, quantile_sorted, repeat_for, timed};
use crate::trace::Tracer;

/// Simulated days.
pub const DAYS: usize = 7;
/// Invocations per simulated day.
pub const PER_DAY: f64 = 800.0;
const DAY_S: f64 = 86_400.0;

/// A deployed framework and its week of traffic.
pub struct Deployed {
    /// The framework.
    pub caribou: Caribou<RegionalSource>,
    /// The deployed workflow's index.
    pub idx: usize,
    /// Invocation times, ascending.
    pub trace: Vec<f64>,
}

/// Deploys text2speech through `Caribou` the way `caribou simulate`
/// does, with `days` × `per_day` invocations of traffic.
pub fn deploy(seed: u64, workers: usize, days: usize, per_day: f64) -> Deployed {
    let bench = text2speech_censoring(InputSize::Small);
    let cloud = SimCloud::aws(seed);
    let regions = cloud.regions.evaluation_regions();
    let carbon = RegionalSource::new(
        &cloud.regions,
        SyntheticCarbonSource::aws_calibrated(20231015),
    )
    .expect("the calibrated source covers the default catalog");
    let mut config = CaribouConfig::new(regions, TransmissionScenario::BEST);
    config.seed = seed;
    config.workers = workers;
    let mut caribou = Caribou::new(cloud, carbon, config);
    let mut constraints = bench.constraints.clone();
    constraints.tolerances.latency = 0.10;
    constraints.tolerances.cost = 1.0;
    let app = WorkflowApp {
        name: bench.dag.name().into(),
        home: caribou
            .cloud
            .region("us-east-1")
            .expect("catalog includes us-east-1"),
        dag: bench.dag.clone(),
        profile: bench.profile.clone(),
    };
    let manifest = DeploymentManifest::new(app.name.to_string(), "1.0", "us-east-1");
    let idx = caribou
        .deploy(app, &manifest, constraints)
        .expect("text2speech deploys to its home region");
    let trace = uniform_trace(30.0, days as f64 * DAY_S, per_day);
    Deployed {
        caribou,
        idx,
        trace,
    }
}

/// Appends a slice's report to the week's: samples and egress add up,
/// generations and solve carbon are cumulative in every report.
pub fn absorb(week: &mut RunReport, slice: RunReport) {
    week.samples.extend(slice.samples);
    week.migration_egress_bytes += slice.migration_egress_bytes;
    week.dp_generations = slice.dp_generations;
    week.framework_carbon_g = slice.framework_carbon_g;
}

/// The parts of a week's report that must repeat exactly.
pub fn digest(r: &RunReport) -> (Vec<u64>, Vec<u64>, u64, u64) {
    let samples = r
        .samples
        .iter()
        .flat_map(|s| {
            [
                s.at_s.to_bits(),
                s.latency_s.to_bits(),
                s.cost_usd.to_bits(),
                s.exec_carbon_g.to_bits(),
                s.trans_carbon_g.to_bits(),
                u64::from(s.completed) | u64::from(s.fell_back_home) << 1,
            ]
        })
        .collect();
    (
        samples,
        r.dp_generations.iter().map(|g| g.to_bits()).collect(),
        r.framework_carbon_g.to_bits(),
        r.migration_egress_bytes.to_bits(),
    )
}

/// Runs the week one simulated day per `run_trace` call; returns the
/// week's report and each day's wall seconds.
pub fn run_by_day(d: &mut Deployed) -> (RunReport, Vec<f64>) {
    let mut week = RunReport::default();
    let mut walls = Vec::with_capacity(DAYS);
    let mut lo = 0;
    let mut day = 1.0;
    while lo < d.trace.len() {
        let hi = lo + d.trace[lo..].partition_point(|&t| t < day * DAY_S);
        let (wall, slice) = timed(|| d.caribou.run_trace(d.idx, &d.trace[lo..hi]));
        absorb(&mut week, slice);
        walls.push(wall);
        lo = hi;
        day += 1.0;
    }
    (week, walls)
}

/// Runs the week cut at every manager check, with spans: invocations
/// between checks under `core.framework.run_trace`, each check with its
/// triggering invocation under `core.manager.check`. Returns the week's
/// report and the host seconds of the checks that generated plans.
pub fn run_by_check(d: &mut Deployed, tracer: &mut Tracer) -> (RunReport, f64) {
    let mut week = RunReport::default();
    let mut solve_s = 0.0;
    tracer.enter("core.framework.week", 0);
    let mut lo = 0;
    while lo < d.trace.len() {
        let next = d.caribou.manager(d.idx).next_check_s();
        let hi = lo + d.trace[lo..].partition_point(|&t| t < next);
        if hi > lo {
            tracer.enter("core.framework.run_trace", lo as u64);
            absorb(&mut week, d.caribou.run_trace(d.idx, &d.trace[lo..hi]));
            tracer.exit();
        }
        if hi == d.trace.len() {
            break;
        }
        let generations = week.dp_generations.len();
        tracer.enter("core.manager.check", hi as u64);
        let (wall, slice) = timed(|| d.caribou.run_trace(d.idx, &d.trace[hi..hi + 1]));
        tracer.exit();
        absorb(&mut week, slice);
        if week.dp_generations.len() > generations {
            solve_s += wall;
        }
        lo = hi + 1;
    }
    tracer.exit();
    (week, solve_s)
}

fn check_week(out: &mut Outcome, r: &RunReport, n: usize) {
    out.check(r.samples.len() == n, || {
        format!("{} samples for {n} invocations", r.samples.len())
    });
    out.check(!r.dp_generations.is_empty(), || {
        "the framework never generated a plan".into()
    });
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let seed = spec.derive(0xCA21B);
    if spec.trace {
        traced(spec, seed, &mut out);
        return out;
    }
    let (setup_s, _) = median_time(25, 0.3, || deploy(seed, spec.workers, DAYS, PER_DAY));
    // Each week runs on a freshly deployed framework. The first week warms
    // the process and is the reference every timed week must reproduce.
    let mut first = deploy(seed, spec.workers, DAYS, PER_DAY);
    let n = first.trace.len();
    let (week, _) = run_by_day(&mut first);
    drop(first);
    let reference = digest(&week);
    let rates = repeat_for(spec.seconds, 3, |rep| {
        let mut d = deploy(seed, spec.workers, DAYS, PER_DAY);
        let (w, walls) = run_by_day(&mut d);
        out.check(digest(&w) == reference, || {
            format!("timed week {rep} differs from the first week")
        });
        n as f64 / walls.iter().sum::<f64>()
    });
    check_week(&mut out, &week, n);
    let failed = week.samples.iter().filter(|s| !s.completed).count() as u64;
    let mut lat: Vec<f64> = week.samples.iter().map(|s| s.latency_s).collect();
    lat.sort_by(f64::total_cmp);
    out.attempted = n as u64;
    out.failed += failed;
    out.set("setup_s", setup_s);
    out.set("ops_per_s", median(&rates));
    out.set("completed_share", 1.0 - out.failed as f64 / n as f64);
    out.set("sim_latency_p50_s", quantile_sorted(&lat, 0.50));
    out.set("sim_latency_p99_s", quantile_sorted(&lat, 0.99));
    out.set("carbon_g_per_inv", week.workflow_carbon_g() / n as f64);
    out.note(format!(
        "{} weeks of {n} invocations: {:.0} inv/s median; {} plan generations",
        rates.len(),
        median(&rates),
        week.dp_generations.len()
    ));
    out.note(format!("inv/s per week: {:.0?}", rates));
    out
}

fn traced(spec: &RunSpec, seed: u64, out: &mut Outcome) {
    // Untraced weeks cut by day and traced weeks cut at every manager
    // check, in alternation, each on a freshly deployed framework.
    let (untraced_s, traced_s, (d, week, walls), (by_check, solve_s, rec, tracer)) = alternate(
        || {
            let mut d = deploy(seed, spec.workers, DAYS, PER_DAY);
            let (week, walls) = run_by_day(&mut d);
            (d, week, walls)
        },
        || {
            let mut d = deploy(seed, spec.workers, DAYS, PER_DAY);
            let mut tracer = Tracer::new(true);
            let ((week, solve_s), rec) = with_recorder(|| run_by_check(&mut d, &mut tracer));
            (week, solve_s, rec, tracer)
        },
    );
    let n = d.trace.len();
    check_week(out, &week, n);
    out.check(digest(&by_check) == digest(&week), || {
        "the week cut at manager checks differs from the week cut by day".into()
    });
    out.trace_summary(&tracer, "core.framework.week", untraced_s, traced_s);

    // Counter loss: two days with the recorder at nproc against 1 worker.
    let (_, rec_n) = with_recorder(|| run_by_day(&mut deploy(seed, spec.workers, 2, 300.0)));
    let (_, rec_1) = with_recorder(|| run_by_day(&mut deploy(seed, 1, 2, 300.0)));
    let loss = counter_loss(&["solver.iterations", "montecarlo.samples"], &rec_n, &rec_1);

    let per_day: Vec<f64> = walls.iter().map(|w| w * 1e6 / PER_DAY).collect();
    let n_f = n as f64;
    out.attempted = n as u64;
    out.failed += week.samples.iter().filter(|s| !s.completed).count() as u64;
    out.set("e2e.failed_share", 1.0 - week.completion_rate());
    out.set("e2e.fallback_share", week.fallback_rate());
    out.set(
        "e2e.cost_usd_per_kinv",
        week.total_cost_usd() / n_f * 1000.0,
    );
    out.set("e2e.solve_carbon_g", week.framework_carbon_g);
    out.set(
        "exec.router.route_ns",
        route_ns(seed, d.caribou.workflow(d.idx).app.dag.node_count()),
    );
    out.set(
        "simcloud.pubsub.publish_per_inv",
        rec.counter("pubsub.publish") as f64 / n_f,
    );
    out.set(
        "simcloud.pubsub.retry_per_inv",
        rec.counter("pubsub.retry") as f64 / n_f,
    );
    out.set(
        "simcloud.pubsub.dead_letter",
        rec.counter("pubsub.dead_letter") as f64,
    );
    out.set(
        "simcloud.kv.ops_per_inv",
        (rec.counter("kv.read") + rec.counter("kv.write") + rec.counter("kv.rmw")) as f64 / n_f,
    );
    out.set(
        "simcloud.kv.rmw_conflict_per_inv",
        rec.counter("kv.rmw_conflict") as f64 / n_f,
    );
    out.set("core.framework.us_per_inv.first_day", per_day[0]);
    out.set(
        "core.framework.us_per_inv.last_day",
        *per_day.last().expect("seven days"),
    );
    out.set(
        "core.framework.us_per_inv.max_day",
        per_day.iter().copied().fold(0.0, f64::max),
    );
    out.set("core.manager.solves", week.dp_generations.len() as f64);
    out.set("core.manager.solve_and_rollout_s", solve_s);
    out.set(
        "core.migrator.regions_deployed",
        rec.counter("migrator.regions_deployed") as f64,
    );
    out.set("core.migrator.egress_bytes", week.migration_egress_bytes);
    out.set("telemetry.counter_loss_share", loss);
    out.set("bench.latency_samples", n_f);
    out.note(format!(
        "week {untraced_s:.3} s untraced; per-day us/inv {:?}",
        per_day.iter().map(|u| u.round()).collect::<Vec<_>>()
    ));
    out.tracer = Some(tracer);
}
