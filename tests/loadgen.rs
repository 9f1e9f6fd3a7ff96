//! Integration tests for the `caribou loadgen` sustained-load harness:
//! the merged report must be bit-identical at any worker count (1/2/8),
//! including across chunk boundaries in the persistent sharded mode; the
//! streaming sketch must track exact sorted-vector quantiles to within
//! one bucket's relative error; and the persistent shards must pay cold
//! starts exactly once per container, not once per chunk.

use caribou_core::loadgen::{run_loadgen, LoadReport, LoadgenConfig, CHUNK_INVOCATIONS};
use caribou_telemetry::{Histogram, QuantileSketch, SUB_BUCKETS};
use caribou_workloads::arrivals::ArrivalProcess;
use caribou_workloads::benchmarks::{image_processing, text2speech_censoring, InputSize};
use proptest::prelude::*;

fn config(n: usize, seed: u64, workers: usize, arrivals: ArrivalProcess) -> LoadgenConfig {
    LoadgenConfig {
        invocations: n,
        seed,
        workers,
        arrivals,
        ..LoadgenConfig::default()
    }
}

fn run(n: usize, seed: u64, workers: usize, arrivals: ArrivalProcess) -> LoadReport {
    let bench = text2speech_censoring(InputSize::Small);
    run_loadgen(&bench, &config(n, seed, workers, arrivals)).expect("calibrated catalog")
}

fn assert_identical(a: &LoadReport, b: &LoadReport) {
    assert_eq!(a.invocations(), b.invocations());
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(
            a.latency_quantile(q).to_bits(),
            b.latency_quantile(q).to_bits(),
            "quantile {q} diverged"
        );
    }
    assert_eq!(a.mean_latency_s().to_bits(), b.mean_latency_s().to_bits());
    assert_eq!(a.latency.min().to_bits(), b.latency.min().to_bits());
    assert_eq!(a.latency.max().to_bits(), b.latency.max().to_bits());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failovers, b.failovers);
    assert_eq!(a.cold_starts, b.cold_starts);
    assert_eq!(a.warm_starts, b.warm_starts);
    assert_eq!(a.exec_carbon_g.to_bits(), b.exec_carbon_g.to_bits());
    assert_eq!(a.trans_carbon_g.to_bits(), b.trans_carbon_g.to_bits());
    assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharding across any worker count merges to exactly the 1-worker
    /// report.
    #[test]
    fn shard_merge_preserves_outcomes(
        n in 1usize..400,
        seed in any::<u64>(),
        workers in 2usize..9,
        arrival_idx in 0usize..3,
    ) {
        let arrivals = match arrival_idx {
            0 => ArrivalProcess::Poisson { rate_per_s: 20.0 },
            1 => ArrivalProcess::Diurnal { rate_per_s: 20.0 },
            _ => ArrivalProcess::Bursty { rate_per_s: 20.0 },
        };
        let sequential = run(n, seed, 1, arrivals);
        let sharded = run(n, seed, workers, arrivals);
        assert_identical(&sequential, &sharded);
    }

    /// Histogram merge: bucket counts, count, min and max are exactly
    /// order-insensitive; identical fold order is bit-reproducible.
    #[test]
    fn histogram_merge_is_order_insensitive(
        values in collection::vec(1e-6f64..1e4, 1..300),
        split in 1usize..10,
    ) {
        let mut parts: Vec<Histogram> = (0..split).map(|_| Histogram::default()).collect();
        let mut whole = Histogram::default();
        for (i, v) in values.iter().enumerate() {
            parts[i % split].observe(*v);
            whole.observe(*v);
        }
        let mut fwd = Histogram::default();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Histogram::default();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        prop_assert_eq!(fwd.buckets, whole.buckets);
        prop_assert_eq!(fwd.count, whole.count);
        prop_assert_eq!(fwd.min.to_bits(), whole.min.to_bits());
        prop_assert_eq!(fwd.max.to_bits(), whole.max.to_bits());
        prop_assert_eq!(fwd.buckets, rev.buckets);
        prop_assert_eq!(fwd.min.to_bits(), rev.min.to_bits());
        prop_assert_eq!(fwd.max.to_bits(), rev.max.to_bits());
        // Same fold order twice is bit-identical including the f64 sum.
        let mut again = Histogram::default();
        for p in &parts {
            again.merge(p);
        }
        prop_assert_eq!(fwd.sum.to_bits(), again.sum.to_bits());
    }

    /// Sketch quantiles stay within one bucket's relative width of the
    /// exact nearest-rank quantiles of the same values.
    #[test]
    fn sketch_tracks_exact_quantiles(
        values in collection::vec(1e-4f64..1e3, 10..500),
    ) {
        let mut sketch = QuantileSketch::new();
        let mut exact = values.clone();
        for v in &values {
            sketch.observe(*v);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = sketch.quantile(q);
            let rel = (est - truth).abs() / truth;
            prop_assert!(
                rel <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "q={} est={} truth={} rel={}", q, est, truth, rel
            );
        }
    }
}

/// Persistent sharding stays bit-identical at 1/2/8 workers when the run
/// spans multiple chunks (and therefore multiple shards and exchange
/// ticks).
#[test]
fn multi_chunk_run_is_identical_at_1_2_8_workers() {
    let n = CHUNK_INVOCATIONS * 2 + 123;
    let arrivals = ArrivalProcess::Diurnal { rate_per_s: 120.0 };
    let a = run(n, 9, 1, arrivals);
    let b = run(n, 9, 2, arrivals);
    let c = run(n, 9, 8, arrivals);
    assert_eq!(a.invocations(), n as u64);
    assert_eq!(a.chunks, 3);
    assert_eq!(a.shards, 3, "shard count caps at the chunk count");
    assert_identical(&a, &b);
    assert_identical(&a, &c);
}

/// The fan-out benchmark crosses a chunk boundary without disturbing the
/// merge order.
#[test]
fn chunk_boundary_is_seamless() {
    let bench = image_processing(InputSize::Small);
    let n = CHUNK_INVOCATIONS + 37;
    let mk = |workers| config(n, 7, workers, ArrivalProcess::Poisson { rate_per_s: 50.0 });
    let a = run_loadgen(&bench, &mk(1)).unwrap();
    let b = run_loadgen(&bench, &mk(4)).unwrap();
    assert_eq!(a.invocations(), n as u64);
    assert_identical(&a, &b);
    assert_eq!(a.completed, n as u64);
}

/// The sketch in a real report tracks the exact per-invocation latency
/// vector (captured on the side) to within one bucket's relative error.
#[test]
fn report_sketch_matches_captured_latencies() {
    let bench = text2speech_censoring(InputSize::Small);
    let cfg = LoadgenConfig {
        capture_latencies: true,
        ..config(1500, 3, 2, ArrivalProcess::Poisson { rate_per_s: 50.0 })
    };
    let report = run_loadgen(&bench, &cfg).unwrap();
    let mut exact = report.exact_latencies_s.clone().expect("captured");
    assert_eq!(exact.len(), 1500);
    exact.sort_by(f64::total_cmp);
    for q in [0.5, 0.95, 0.99] {
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let truth = exact[rank - 1];
        let est = report.latency_quantile(q);
        let rel = (est - truth).abs() / truth;
        assert!(
            rel <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
            "q={q} est={est} truth={truth} rel={rel}"
        );
    }
    // The running moments are exact, not sketched.
    let mean = exact.iter().sum::<f64>() / exact.len() as f64;
    assert!((report.mean_latency_s() - mean).abs() < 1e-9);
}

/// Hand-computed cold-start schedule: with an effectively infinite
/// keep-alive every container goes cold exactly once per persistent shard
/// that has to warm it, no matter how many chunks the run spans.
#[test]
fn persistent_shards_pay_cold_starts_once_not_per_chunk() {
    let bench = text2speech_censoring(InputSize::Small);
    let nodes = bench.dag.node_count() as u64;
    // (chunks, shards, seed). One shard keeps one warm pool across every
    // chunk. With two shards, each shard's round-0 chunk warms its own
    // pool before the first exchange, so each pays `nodes` once.
    for (chunks, shards, seed) in [(2, 1, 11), (3, 1, 13), (2, 2, 11)] {
        let n = CHUNK_INVOCATIONS * chunks;
        let report = run_loadgen(
            &bench,
            &LoadgenConfig {
                shards,
                keep_alive_s: 1e9,
                ..config(n, seed, 2, ArrivalProcess::Poisson { rate_per_s: 200.0 })
            },
        )
        .unwrap();
        assert_eq!(
            report.cold_starts,
            shards as u64 * nodes,
            "{chunks} chunks over {shards} shard(s)"
        );
        // Every node of every invocation executed.
        assert_eq!(report.cold_starts + report.warm_starts, n as u64 * nodes);
    }
}

/// Arrival times are part of the contract: a different seed must change
/// the report (sanity check that determinism is not degeneracy).
#[test]
fn different_seeds_differ() {
    let a = run(200, 1, 1, ArrivalProcess::Poisson { rate_per_s: 20.0 });
    let b = run(200, 2, 1, ArrivalProcess::Poisson { rate_per_s: 20.0 });
    assert_ne!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
    assert_ne!(a.mean_latency_s().to_bits(), b.mean_latency_s().to_bits());
}
