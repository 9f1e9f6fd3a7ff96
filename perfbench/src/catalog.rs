//! The benchmark's workloads and metrics, with units, directions and
//! bounds. `BENCHMARK.json` at the repository root is this catalogue
//! rendered by `perfbench --describe`; a test keeps the two equal.

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end: share of the parent's median by which the metric may
    /// worsen. Per-layer: unused (0).
    pub bound: f64,
    /// Per-layer: the end-to-end metrics this layer metric should move.
    pub moves: &'static str,
    /// Per-layer: the workloads on which it should move them; it is idle
    /// (reads 0) where the layer never runs.
    pub on: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "loadgen-diurnal",
        why: "text2speech under an open-loop diurnal day on persistent shards: the data plane does all the work and the solver and router never run",
    },
    Workload {
        name: "fleet-replan",
        why: "400 seeded apps x 24 h solved cold, then re-planned after a multi-hour forecast revision: solver walk, estimate cache and estimator only",
    },
    Workload {
        name: "chaos-correlated",
        why: "32 correlated-fault campaigns with 3 contingency plans on aws+gcp: the failure path of the engine (breaker, failover, retry, stale carbon)",
    },
    Workload {
        name: "framework-week",
        why: "text2speech deployed through Caribou for 7 days fed to run_trace per day: the only run of the manager, tokens, migrator and learned profiles",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves: "",
        on: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
        on,
    }
}

/// End-to-end metrics: printed by every timed run of every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("completed_share", "ratio", "higher", 0.05),
    e2e("sim_latency_p50_s", "s", "lower", 0.1),
    e2e("sim_latency_p99_s", "s", "lower", 0.15),
    e2e("carbon_g_per_inv", "g", "lower", 0.25),
];

const LG: &str = "loadgen-diurnal";
const FL: &str = "fleet-replan";
const CH: &str = "chaos-correlated";
const FW: &str = "framework-week";
const LG_FW: &str = "loadgen-diurnal,framework-week";
const ALL: &str = "loadgen-diurnal,fleet-replan,chaos-correlated,framework-week";

/// Per-layer metrics: printed by every traced run of every workload.
pub const PER_LAYER: &[Metric] = &[
    // Workload-specific end-to-end quantities. They cannot be end-to-end
    // metrics because every end-to-end metric must be non-zero on every
    // workload; they read 0 where the workload has no such quantity.
    layer("e2e.failed_share", "ratio", "lower", "completed_share", ALL),
    layer(
        "e2e.fallback_share",
        "ratio",
        "lower",
        "sim_latency_p99_s",
        "chaos-correlated,framework-week",
    ),
    layer(
        "e2e.cost_usd_per_kinv",
        "USD",
        "lower",
        "carbon_g_per_inv",
        "loadgen-diurnal,fleet-replan,framework-week",
    ),
    layer(
        "e2e.cold_start_rate",
        "ratio",
        "lower",
        "sim_latency_p50_s",
        LG,
    ),
    layer(
        "e2e.solve_carbon_g",
        "g",
        "lower",
        "carbon_g_per_inv",
        "fleet-replan,framework-week",
    ),
    layer("e2e.replan_s", "s", "lower", "ops_per_s", FL),
    // Data plane.
    layer(
        "workloads.arrivals.ns_per_arrival",
        "ns",
        "lower",
        "ops_per_s",
        LG,
    ),
    layer("exec.engine.invoke_ns.p50", "ns", "lower", "ops_per_s", LG),
    layer("exec.engine.invoke_ns.p99", "ns", "lower", "ops_per_s", LG),
    layer(
        "exec.engine.allocs_per_inv",
        "count",
        "lower",
        "ops_per_s,peak_rss_mb",
        LG,
    ),
    layer("exec.engine.wall_share", "ratio", "lower", "ops_per_s", LG),
    layer(
        "exec.router.route_ns",
        "ns",
        "lower",
        "ops_per_s,sim_latency_p99_s",
        "chaos-correlated,framework-week",
    ),
    layer(
        "exec.router.fallback_routed_share",
        "ratio",
        "lower",
        "sim_latency_p99_s,carbon_g_per_inv",
        CH,
    ),
    layer(
        "exec.router.probe_share",
        "ratio",
        "lower",
        "sim_latency_p99_s",
        CH,
    ),
    layer(
        "exec.router.breaker_reroute_share",
        "ratio",
        "lower",
        "sim_latency_p99_s",
        CH,
    ),
    layer(
        "simcloud.pubsub.publish_per_inv",
        "count",
        "lower",
        "completed_share,sim_latency_p99_s",
        CH,
    ),
    layer(
        "simcloud.pubsub.retry_per_inv",
        "count",
        "lower",
        "completed_share,sim_latency_p99_s",
        CH,
    ),
    layer(
        "simcloud.pubsub.dead_letter",
        "count",
        "lower",
        "completed_share,sim_latency_p99_s",
        CH,
    ),
    layer(
        "simcloud.kv.ops_per_inv",
        "count",
        "lower",
        "ops_per_s",
        LG_FW,
    ),
    layer(
        "simcloud.kv.rmw_conflict_per_inv",
        "count",
        "lower",
        "ops_per_s",
        LG_FW,
    ),
    layer(
        "simcloud.warm.hit_ratio",
        "ratio",
        "higher",
        "sim_latency_p50_s",
        LG,
    ),
    layer(
        "telemetry.sketch.observe_ns",
        "ns",
        "lower",
        "ops_per_s",
        LG,
    ),
    layer("telemetry.sketch.merge_ns", "ns", "lower", "ops_per_s", LG),
    layer("core.loadgen.rounds", "count", "lower", "ops_per_s", LG),
    layer(
        "core.loadgen.pool_utilization",
        "ratio",
        "higher",
        "ops_per_s",
        LG,
    ),
    layer("core.loadgen.barrier_s", "s", "lower", "ops_per_s", LG),
    layer(
        "core.loadgen.shard_busy_skew",
        "ratio",
        "lower",
        "ops_per_s",
        LG,
    ),
    layer(
        "core.loadgen.speedup_nproc",
        "ratio",
        "higher",
        "ops_per_s",
        LG,
    ),
    // Planner.
    layer(
        "core.fleet.full_solve_ops_per_s",
        "1/s",
        "higher",
        "ops_per_s",
        FL,
    ),
    layer("solver.cache.hit_ratio", "ratio", "higher", "ops_per_s", FL),
    layer(
        "solver.cache.hit_ratio.full_solve",
        "ratio",
        "higher",
        "ops_per_s",
        FL,
    ),
    layer(
        "solver.cache.hit_ratio.replan",
        "ratio",
        "higher",
        "ops_per_s,e2e.replan_s",
        FL,
    ),
    layer("solver.cache.misses", "count", "lower", "ops_per_s", FL),
    layer("solver.cache.evictions", "count", "lower", "ops_per_s", FL),
    layer(
        "solver.cache.invalidated",
        "count",
        "lower",
        "ops_per_s",
        FL,
    ),
    layer(
        "solver.engine.evaluate_ns.hit",
        "ns",
        "lower",
        "ops_per_s",
        FL,
    ),
    layer(
        "solver.engine.evaluate_ns.miss",
        "ns",
        "lower",
        "ops_per_s",
        FL,
    ),
    layer(
        "solver.pool.utilization",
        "ratio",
        "higher",
        "ops_per_s",
        FL,
    ),
    layer(
        "solver.pool.speedup_nproc",
        "ratio",
        "higher",
        "ops_per_s",
        FL,
    ),
    layer(
        "metrics.montecarlo.estimate_ns",
        "ns",
        "lower",
        "ops_per_s",
        FL,
    ),
    layer(
        "metrics.montecarlo.samples_per_estimate",
        "count",
        "lower",
        "ops_per_s",
        FL,
    ),
    layer("carbon.source.intensity_ns", "ns", "lower", "ops_per_s", FL),
    layer("solver.contingency.solve_s", "s", "lower", "ops_per_s", CH),
    layer(
        "carbon.stale.fresh_share",
        "ratio",
        "higher",
        "carbon_g_per_inv",
        CH,
    ),
    layer(
        "carbon.stale.last_known_good_share",
        "ratio",
        "lower",
        "carbon_g_per_inv",
        CH,
    ),
    layer(
        "carbon.stale.yearly_average_share",
        "ratio",
        "lower",
        "carbon_g_per_inv",
        CH,
    ),
    // Framework loop.
    layer(
        "core.framework.us_per_inv.first_day",
        "us",
        "lower",
        "ops_per_s",
        FW,
    ),
    layer(
        "core.framework.us_per_inv.last_day",
        "us",
        "lower",
        "ops_per_s",
        FW,
    ),
    layer(
        "core.framework.us_per_inv.max_day",
        "us",
        "lower",
        "ops_per_s",
        FW,
    ),
    layer("core.manager.solves", "count", "lower", "ops_per_s", FW),
    layer(
        "core.manager.solve_and_rollout_s",
        "s",
        "lower",
        "ops_per_s",
        FW,
    ),
    layer(
        "core.migrator.regions_deployed",
        "count",
        "lower",
        "ops_per_s",
        FW,
    ),
    layer(
        "core.migrator.egress_bytes",
        "bytes",
        "lower",
        "carbon_g_per_inv",
        FW,
    ),
    // The benchmark and the host.
    layer(
        "telemetry.counter_loss_share",
        "ratio",
        "lower",
        "none",
        ALL,
    ),
    layer("bench.trace_overhead_share", "ratio", "lower", "none", ALL),
    layer("bench.layer_sum_share", "ratio", "higher", "none", ALL),
    layer(
        "bench.latency_samples",
        "count",
        "higher",
        "sim_latency_p99_s",
        ALL,
    ),
    layer("host.nproc", "count", "higher", "none", ALL),
    layer("host.workers", "count", "higher", "none", ALL),
    layer("host.calibration_mops", "Mop/s", "higher", "none", ALL),
];

/// The run command recorded in `BENCHMARK.json`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--locked",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json` rendered from this catalogue.
pub fn benchmark_json() -> serde_json::Value {
    use serde_json::json;
    let metric = |m: &Metric, with_bound: bool| {
        if with_bound {
            json!({"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound})
        } else {
            json!({"name": m.name, "unit": m.unit, "better": m.better})
        }
    };
    json!({
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS
            .iter()
            .map(|w| json!({"name": w.name, "why": w.why}))
            .collect::<Vec<_>>(),
        "end_to_end": END_TO_END.iter().map(|m| metric(m, true)).collect::<Vec<_>>(),
        "per_layer": PER_LAYER.iter().map(|m| metric(m, false)).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.better == "higher" || m.better == "lower");
            assert!(m.unit.len() <= 16);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{} why too long", w.name);
        }
    }
}
