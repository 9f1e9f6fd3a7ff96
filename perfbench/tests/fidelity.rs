//! The traced numbers describe the same program as the timed ones: the
//! slicings and the replay the traced pass uses reproduce the calls the
//! timed pass makes, and `BENCHMARK.json` is the catalogue.

use caribou_core::loadgen::{run_loadgen, LoadgenConfig};
use perfbench::trace::Tracer;
use perfbench::workloads::{framework, loadgen};

#[test]
fn framework_week_fed_per_day_equals_one_run_trace_call() {
    let mut by_day = framework::deploy(5, 2, 7, 120.0);
    let (days, walls) = framework::run_by_day(&mut by_day);
    assert_eq!(walls.len(), 7, "one run_trace call per simulated day");

    let mut whole = framework::deploy(5, 2, 7, 120.0);
    let week = whole.caribou.run_trace(whole.idx, &whole.trace);
    assert_eq!(week.samples.len(), whole.trace.len());
    assert!(!week.dp_generations.is_empty(), "the week re-solves");
    assert_eq!(days.samples, week.samples);
    assert_eq!(days.dp_generations, week.dp_generations);
    assert_eq!(days.framework_carbon_g, week.framework_carbon_g);
    assert_eq!(days.migration_egress_bytes, week.migration_egress_bytes);

    let mut by_check = framework::deploy(5, 2, 7, 120.0);
    let (checks, solve_s) = framework::run_by_check(&mut by_check, &mut Tracer::new(true));
    assert_eq!(framework::digest(&checks), framework::digest(&week));
    assert!(solve_s > 0.0);
}

#[test]
fn loadgen_replay_reproduces_run_loadgen() {
    // 3 shards over 5 chunks: two rounds, so the barrier exchange runs.
    let cfg = LoadgenConfig {
        shards: 3,
        ..loadgen::config(9, 2, 40_000)
    };
    let bench = loadgen::bench();
    let report = run_loadgen(&bench, &cfg).expect("calibrated carbon source");
    let mut tracer = Tracer::new(true);
    let (replayed, counts, invoke_ns) = loadgen::replay(&bench, &cfg, &mut tracer);
    assert_eq!(loadgen::digest(&replayed), loadgen::digest(&report));
    assert_eq!(replayed.scratch_allocs, report.scratch_allocs);
    assert_eq!(
        replayed.cold_starts + replayed.warm_starts,
        counts.executions
    );
    assert_eq!(invoke_ns.count(), 40_000);
    assert_eq!(tracer.layer("exec.engine.invoke").calls, 40_000);
    assert_eq!(tracer.layer("simcloud.warm.exchange").calls, 1);

    let (untraced, _, _) = loadgen::replay(&bench, &cfg, &mut Tracer::new(false));
    assert_eq!(loadgen::digest(&untraced), loadgen::digest(&report));
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(file, perfbench::catalog::benchmark_json());
    assert!(text.len() <= 64 * 1024);
}
