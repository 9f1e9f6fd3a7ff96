//! `loadgen-diurnal`: text2speech under an open-loop diurnal arrival
//! process over one simulated day, on persistent shards.
//!
//! The timed phase is `run_loadgen` at `nproc` workers. The traced pass
//! replays the same configuration call by call — `ArrivalGen::fill`,
//! `ExecutionEngine::invoke_with_scratch`, `QuantileSketch::observe` and
//! `merge`, and the warm-pool exchange at each round barrier — and checks
//! that the replay reproduces `run_loadgen` exactly.

use caribou_carbon::source::RegionalSource;
use caribou_carbon::synth::SyntheticCarbonSource;
use caribou_core::loadgen::{run_loadgen, LoadReport, LoadgenConfig, CHUNK_INVOCATIONS};
use caribou_exec::engine::{ExecutionEngine, InvocationScratch, WorkflowApp};
use caribou_metrics::carbonmodel::CarbonModel;
use caribou_model::plan::DeploymentPlan;
use caribou_model::rng::SeedSplitter;
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::orchestration::Orchestrator;
use caribou_simcloud::warm::{WarmPool, WarmTouch};
use caribou_telemetry::QuantileSketch;
use caribou_workloads::arrivals::ArrivalProcess;
use caribou_workloads::benchmarks::{text2speech_censoring, Benchmark, InputSize};

use super::{alternate, counter_loss, with_recorder, Outcome, RunSpec};
use crate::stats::{median, median_time, quantile_sorted, repeat_for, timed};
use crate::trace::Tracer;

/// Mean arrival rate, invocations per second.
pub const RATE_PER_S: f64 = 2.5;

/// Invocations per run: 1.1 simulated days at [`RATE_PER_S`], so the
/// diurnal cycle is covered once whatever the seed.
pub const INVOCATIONS: usize = 237_600;

/// Invocations of the recorder runs that measure counter loss.
const LOSS_INVOCATIONS: usize = 40_000;

/// Seed labels: `run_loadgen`'s own derivations, which the replay must
/// follow to reproduce it.
const SALT_ARRIVALS: u64 = 0xA11;
const SALT_INVOCATION: u64 = 0x117;
const SALT_SHARD_CLOUD: u64 = 0x54A2D;

/// The workload's benchmark.
pub fn bench() -> Benchmark {
    text2speech_censoring(InputSize::Small)
}

/// The workload's configuration for `invocations` at `workers`.
pub fn config(seed: u64, workers: usize, invocations: usize) -> LoadgenConfig {
    LoadgenConfig {
        invocations,
        seed,
        workers,
        arrivals: ArrivalProcess::Diurnal {
            rate_per_s: RATE_PER_S,
        },
        ..LoadgenConfig::default()
    }
}

/// The arrival sequence `run_loadgen` draws for `cfg`, generated from the
/// same seed derivation.
pub fn arrivals(cfg: &LoadgenConfig) -> Vec<f64> {
    let mut gen = cfg
        .arrivals
        .stream(SeedSplitter::new(cfg.seed).absorb(SALT_ARRIVALS).rng());
    let mut out = Vec::with_capacity(cfg.invocations);
    gen.fill(&mut out, cfg.invocations);
    out
}

/// The bits of a report that must repeat exactly.
pub fn digest(r: &LoadReport) -> Vec<u64> {
    let mut d = vec![
        r.invocations(),
        r.completed,
        r.failovers,
        r.cold_starts,
        r.warm_starts,
        r.exec_carbon_g.to_bits(),
        r.trans_carbon_g.to_bits(),
        r.cost_usd.to_bits(),
        r.span_s.to_bits(),
        r.latency.mean().to_bits(),
        r.latency.min().to_bits(),
        r.latency.max().to_bits(),
    ];
    d.extend([0.1, 0.5, 0.9, 0.99, 0.999].map(|q| r.latency_quantile(q).to_bits()));
    d
}

/// Per-layer counts of a replay, from the engine's public outcomes.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Function executions (node records).
    pub executions: u64,
    /// KV reads plus writes metered.
    pub kv_ops: u64,
    /// SNS publishes metered.
    pub publishes: u64,
    /// Allocations made inside invoke calls.
    pub invoke_allocs: u64,
}

/// Replays `run_loadgen` for `cfg` one public call at a time on this
/// thread, recording spans into `tracer` (invoke spans carry the global
/// invocation index as id, chunk spans the chunk index). Returns the
/// report `run_loadgen` would return (its `pool` left empty), the replay's
/// counts, and the per-invocation invoke times in ns.
pub fn replay(
    bench: &Benchmark,
    cfg: &LoadgenConfig,
    tracer: &mut Tracer,
) -> (LoadReport, ReplayCounts, QuantileSketch) {
    let template = SimCloud::aws(cfg.seed);
    let home = template
        .region("us-east-1")
        .expect("the default catalog includes us-east-1");
    let carbon = RegionalSource::new(
        &template.regions,
        SyntheticCarbonSource::aws_calibrated(20231015),
    )
    .expect("the calibrated source covers the default catalog");
    let app = WorkflowApp {
        name: bench.dag.name().into(),
        dag: bench.dag.clone(),
        profile: bench.profile.clone(),
        home,
    };
    let plan = DeploymentPlan::uniform(app.dag.node_count(), home);
    let engine = ExecutionEngine {
        carbon_source: &carbon,
        carbon_model: CarbonModel::new(cfg.scenario),
        orchestrator: Orchestrator::Caribou,
    };
    let n = cfg.invocations;
    let chunks = n.div_ceil(CHUNK_INVOCATIONS);
    let mut report = LoadReport {
        latency: QuantileSketch::new(),
        exact_latencies_s: None,
        completed: 0,
        failovers: 0,
        cold_starts: 0,
        warm_starts: 0,
        exec_carbon_g: 0.0,
        trans_carbon_g: 0.0,
        cost_usd: 0.0,
        span_s: 0.0,
        scratch_allocs: 0,
        chunks: chunks as u64,
        shards: 0,
        pool: Default::default(),
    };
    let mut counts = ReplayCounts::default();
    let mut invoke_ns = QuantileSketch::new();

    tracer.enter("core.loadgen.replay", 0);
    let mut gen = cfg
        .arrivals
        .stream(SeedSplitter::new(cfg.seed).absorb(SALT_ARRIVALS).rng());
    let shard_count = cfg.shards.max(1).min(chunks.max(1));
    report.shards = shard_count as u64;
    let mut shards: Vec<(SimCloud, InvocationScratch)> = (0..shard_count)
        .map(|s| {
            tracer.span("simcloud.cloud.build_shard", s as u64, || {
                let seed = SeedSplitter::new(cfg.seed)
                    .absorb(SALT_SHARD_CLOUD)
                    .absorb(s as u64)
                    .seed();
                let mut cloud = SimCloud::aws(seed);
                engine.provision(&mut cloud, &app, &plan);
                if cfg.warm_pool {
                    cloud.warm = WarmPool::enabled(cfg.keep_alive_s);
                    cloud.warm.set_journaling(true);
                }
                (cloud, InvocationScratch::new())
            })
        })
        .collect();

    let rounds = chunks.div_ceil(shard_count);
    let mut round_arrivals: Vec<f64> = Vec::with_capacity(shard_count * CHUNK_INVOCATIONS);
    let mut latencies: Vec<f64> = Vec::with_capacity(CHUNK_INVOCATIONS);
    for round in 0..rounds {
        let base = round * shard_count;
        let round_len = shard_count.min(chunks - base);
        let round_lo = base * CHUNK_INVOCATIONS;
        let round_hi = (round_lo + round_len * CHUNK_INVOCATIONS).min(n);
        round_arrivals.clear();
        tracer.span("workloads.arrivals.fill", round as u64, || {
            gen.fill(&mut round_arrivals, round_hi - round_lo)
        });
        report.span_s = round_arrivals.last().copied().unwrap_or(report.span_s);

        let mut outs = Vec::with_capacity(round_len);
        for (i, (cloud, scratch)) in shards.iter_mut().enumerate().take(round_len) {
            let chunk = base + i;
            tracer.enter("core.loadgen.chunk", chunk as u64);
            let lo = i * CHUNK_INVOCATIONS;
            let hi = (lo + CHUNK_INVOCATIONS).min(round_arrivals.len());
            let mut out = ChunkOut::default();
            latencies.clear();
            for (k, &arrival) in round_arrivals[lo..hi].iter().enumerate() {
                let g = round_lo + lo + k;
                let mut rng = SeedSplitter::new(cfg.seed)
                    .absorb(SALT_INVOCATION)
                    .absorb(g as u64)
                    .rng();
                let allocs0 = crate::alloc::allocations();
                tracer.enter("exec.engine.invoke", g as u64);
                let o = engine
                    .invoke_with_scratch(cloud, &app, &plan, g as u64, arrival, &mut rng, scratch);
                let ns = tracer.exit();
                counts.invoke_allocs += crate::alloc::allocations() - allocs0;
                if tracer.is_on() {
                    invoke_ns.observe(ns as f64);
                }
                latencies.push(o.e2e_latency_s);
                let execs = o.log.nodes.len() as u64;
                counts.executions += execs;
                counts.kv_ops += o.meter.kv_reads.values().sum::<u64>()
                    + o.meter.kv_writes.values().sum::<u64>();
                counts.publishes += o.meter.sns_publishes.values().sum::<u64>();
                out.completed += u64::from(o.completed);
                out.failovers += u64::from(o.failovers);
                out.cold_starts += u64::from(o.cold_starts);
                out.warm_starts += execs - u64::from(o.cold_starts);
                out.exec_carbon_g += o.exec_carbon_g;
                out.trans_carbon_g += o.trans_carbon_g;
                out.cost_usd += o.cost_usd;
            }
            tracer.span("telemetry.sketch.observe", chunk as u64, || {
                for &l in &latencies {
                    out.sketch.observe(l);
                }
            });
            out.touches = tracer.span("simcloud.warm.drain_touches", chunk as u64, || {
                cloud.warm.drain_touches()
            });
            tracer.exit();
            outs.push(out);
        }

        if cfg.warm_pool && round + 1 < rounds {
            tracer.span("simcloud.warm.exchange", round as u64, || {
                let all: Vec<&WarmTouch> = outs.iter().flat_map(|o| o.touches.iter()).collect();
                for (cloud, _) in shards.iter_mut() {
                    for touch in &all {
                        cloud.warm.absorb_touch(touch);
                    }
                }
            });
        }
        for (i, out) in outs.into_iter().enumerate() {
            let chunk = (base + i) as u64;
            tracer.span("telemetry.sketch.merge", chunk, || {
                report.latency.merge(&out.sketch)
            });
            report.completed += out.completed;
            report.failovers += out.failovers;
            report.cold_starts += out.cold_starts;
            report.warm_starts += out.warm_starts;
            report.exec_carbon_g += out.exec_carbon_g;
            report.trans_carbon_g += out.trans_carbon_g;
            report.cost_usd += out.cost_usd;
        }
    }
    report.scratch_allocs = shards.iter().map(|(_, s)| s.allocs()).sum();
    tracer.exit();
    (report, counts, invoke_ns)
}

#[derive(Default)]
struct ChunkOut {
    sketch: QuantileSketch,
    completed: u64,
    failovers: u64,
    cold_starts: u64,
    warm_starts: u64,
    exec_carbon_g: f64,
    trans_carbon_g: f64,
    cost_usd: f64,
    touches: Vec<WarmTouch>,
}

/// Set-up: the benchmark and the arrival sequence, checked to be
/// ascending and to cover a simulated day. Returns the benchmark and the
/// last arrival time, which the report's span must equal.
fn setup(cfg: &LoadgenConfig) -> (Benchmark, f64, bool) {
    let bench = bench();
    let times = arrivals(cfg);
    let ascending = times.windows(2).all(|w| w[0] <= w[1]);
    let last = times.last().copied().unwrap_or(0.0);
    (bench, last, ascending)
}

fn check_report(out: &mut Outcome, r: &LoadReport, n: usize, last_arrival: f64) {
    out.check(r.span_s == last_arrival, || {
        format!(
            "report spans {} s but the last arrival is at {last_arrival} s",
            r.span_s
        )
    });
    out.check(r.invocations() == n as u64, || {
        format!("sketch counted {} of {n} invocations", r.invocations())
    });
    out.check(r.completed <= n as u64, || {
        format!("{} completed of {n} invocations", r.completed)
    });
    out.check(r.cold_starts + r.warm_starts >= r.completed, || {
        format!(
            "{} cold + {} warm starts cannot cover {} completed invocations",
            r.cold_starts, r.warm_starts, r.completed
        )
    });
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let seed = spec.derive(0x10AD);
    let cfg = config(seed, spec.workers, INVOCATIONS);
    let (setup_s, (bench, last_arrival, ascending)) = median_time(9, 0.3, || setup(&cfg));
    out.set("setup_s", setup_s);
    out.attempted = INVOCATIONS as u64;
    out.check(ascending, || "arrivals are not ascending".into());
    out.check(last_arrival >= 86_400.0, || {
        format!("arrivals span {last_arrival:.0} s, less than one day")
    });
    if spec.trace {
        traced(spec, &bench, &cfg, last_arrival, &mut out);
        return out;
    }

    // The first run captures the exact latency vector for the percentiles
    // and warms the process; the timed runs use the default configuration.
    let capture_cfg = LoadgenConfig {
        capture_latencies: true,
        ..cfg.clone()
    };
    let first = run_loadgen(&bench, &capture_cfg).expect("calibrated carbon source");
    let reference = digest(&first);
    check_report(&mut out, &first, INVOCATIONS, last_arrival);
    let walls = repeat_for(spec.seconds, 3, |rep| {
        let (wall, r) = timed(|| run_loadgen(&bench, &cfg).expect("calibrated carbon source"));
        out.check(digest(&r) == reference, || {
            format!("timed run {rep} differs from the first run")
        });
        wall
    });
    let rates: Vec<f64> = walls.iter().map(|w| INVOCATIONS as f64 / w).collect();
    let mut lat = first.exact_latencies_s.clone().unwrap_or_default();
    lat.sort_by(f64::total_cmp);
    let n = INVOCATIONS as f64;
    let failed = INVOCATIONS as u64 - first.completed;
    out.failed += failed;
    out.set("ops_per_s", median(&rates));
    out.set("completed_share", 1.0 - out.failed as f64 / n);
    out.set("sim_latency_p50_s", quantile_sorted(&lat, 0.50));
    out.set("sim_latency_p99_s", quantile_sorted(&lat, 0.99));
    out.set(
        "carbon_g_per_inv",
        (first.exec_carbon_g + first.trans_carbon_g) / n,
    );
    out.note(format!(
        "{} timed runs of {INVOCATIONS} invocations: {:.0} inv/s median; {} latency samples",
        walls.len(),
        median(&rates),
        lat.len()
    ));
    out.note(format!("inv/s per run: {:.0?}", rates));
    out
}

fn traced(
    spec: &RunSpec,
    bench: &Benchmark,
    cfg: &LoadgenConfig,
    last_arrival: f64,
    out: &mut Outcome,
) {
    let n = cfg.invocations as f64;
    // Untraced runs at nproc and at 1 worker, in alternation.
    let one_cfg = LoadgenConfig {
        workers: 1,
        ..cfg.clone()
    };
    let (wall, wall_one, report, one) = alternate(
        || run_loadgen(bench, cfg).expect("calibrated carbon source"),
        || run_loadgen(bench, &one_cfg).expect("calibrated carbon source"),
    );
    check_report(out, &report, cfg.invocations, last_arrival);
    out.check(digest(&one) == digest(&report), || {
        "the 1-worker run differs from the nproc run".into()
    });

    // The replay, untraced and traced in alternation; every replay must
    // reproduce run_loadgen.
    let (untraced_s, traced_s, r0, (tracer, (r1, counts, invoke_ns))) = alternate(
        || replay(bench, cfg, &mut Tracer::new(false)).0,
        || {
            let mut tracer = Tracer::new(true);
            let r = replay(bench, cfg, &mut tracer);
            (tracer, r)
        },
    );
    out.check(digest(&r0) == digest(&report), || {
        "the untraced replay differs from run_loadgen".into()
    });
    out.check(digest(&r1) == digest(&report), || {
        "the traced replay differs from run_loadgen".into()
    });
    out.check(r1.cold_starts + r1.warm_starts == counts.executions, || {
        format!(
            "{} cold + {} warm starts, but {} executions",
            r1.cold_starts, r1.warm_starts, counts.executions
        )
    });

    // Counter loss: recorder counts at nproc against the 1-worker run.
    let keys = ["pubsub.publish", "kv.read", "kv.write", "kv.rmw"];
    let loss_cfg = config(cfg.seed, spec.workers, LOSS_INVOCATIONS);
    let (_, rec_n) = with_recorder(|| run_loadgen(bench, &loss_cfg));
    let (_, rec_1) = with_recorder(|| {
        run_loadgen(
            bench,
            &LoadgenConfig {
                workers: 1,
                ..loss_cfg.clone()
            },
        )
    });
    let loss = counter_loss(&keys, &rec_n, &rec_1);

    let pool = &report.pool;
    let busy_mean = pool.busy_s.iter().sum::<f64>() / pool.busy_s.len().max(1) as f64;
    let busy_max = pool.busy_s.iter().copied().fold(0.0, f64::max);
    let invoke = tracer.layer("exec.engine.invoke");
    let root = tracer.layer("core.loadgen.replay");
    let execs = (report.cold_starts + report.warm_starts).max(1) as f64;
    out.set("e2e.failed_share", 1.0 - report.completed as f64 / n);
    out.set("e2e.cost_usd_per_kinv", report.cost_usd / n * 1000.0);
    out.set("e2e.cold_start_rate", report.cold_start_rate());
    out.set(
        "workloads.arrivals.ns_per_arrival",
        tracer.layer("workloads.arrivals.fill").total_ns as f64 / n,
    );
    out.set("exec.engine.invoke_ns.p50", invoke_ns.quantile(0.5));
    out.set("exec.engine.invoke_ns.p99", invoke_ns.quantile(0.99));
    out.set(
        "exec.engine.allocs_per_inv",
        counts.invoke_allocs as f64 / n,
    );
    out.set(
        "exec.engine.wall_share",
        invoke.total_ns as f64 / root.total_ns.max(1) as f64,
    );
    out.set(
        "simcloud.pubsub.publish_per_inv",
        counts.publishes as f64 / n,
    );
    out.set("simcloud.kv.ops_per_inv", counts.kv_ops as f64 / n);
    out.set(
        "simcloud.kv.rmw_conflict_per_inv",
        rec_1.counter("kv.rmw_conflict") as f64 / LOSS_INVOCATIONS as f64,
    );
    out.set("simcloud.warm.hit_ratio", report.warm_starts as f64 / execs);
    out.set(
        "telemetry.sketch.observe_ns",
        tracer.layer("telemetry.sketch.observe").total_ns as f64 / n,
    );
    let merge = tracer.layer("telemetry.sketch.merge");
    out.set(
        "telemetry.sketch.merge_ns",
        merge.total_ns as f64 / merge.calls.max(1) as f64,
    );
    out.set(
        "core.loadgen.rounds",
        report.chunks.div_ceil(report.shards.max(1)) as f64,
    );
    out.set("core.loadgen.pool_utilization", pool.utilization());
    out.set("core.loadgen.barrier_s", pool.wall_s - busy_mean);
    out.set(
        "core.loadgen.shard_busy_skew",
        busy_max / busy_mean.max(f64::MIN_POSITIVE),
    );
    out.set("core.loadgen.speedup_nproc", wall_one / wall);
    out.set("telemetry.counter_loss_share", loss);
    out.set("bench.latency_samples", report.invocations() as f64);
    out.trace_summary(&tracer, "core.loadgen.replay", untraced_s, traced_s);
    out.note(format!(
        "run_loadgen: {:.0} inv/s at {} workers, {:.0} inv/s at 1 worker",
        n / wall,
        spec.workers,
        n / wall_one
    ));
    out.tracer = Some(tracer);
}
