//! The four workloads. Each runs in two passes:
//!
//! * the timed pass (`--trace 0`) repeats the workload's timed phase with
//!   tracing off, checks every output, and fills the end-to-end metrics;
//! * the traced pass (`--trace 1`) runs the phase untraced and under the
//!   span tracer in alternation, plus the 1-worker reference and the layer
//!   probes, and fills the per-layer metrics.

use std::collections::BTreeMap;

use caribou_exec::router::InvocationRouter;
use caribou_model::plan::{DeploymentPlan, HourlyPlans};
use caribou_model::rng::SeedSplitter;
use caribou_simcloud::cloud::SimCloud;

use crate::stats::{median, timed};
use crate::trace::Tracer;

pub mod chaos;
pub mod fleet;
pub mod framework;
pub mod loadgen;

/// How one run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds the timed phase measures for.
    pub seconds: f64,
    /// Worker threads of the timed phase (`nproc`).
    pub workers: usize,
    /// Traced pass instead of timed pass.
    pub trace: bool,
}

impl RunSpec {
    /// A seed for input `label` of this run.
    pub fn derive(&self, label: u64) -> u64 {
        SeedSplitter::new(self.seed).absorb(label).seed()
    }
}

/// What a run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed, plus one per violated output check.
    pub failed: u64,
    /// Violated output checks.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
    /// The tracer of the traced pass.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a violation unless `ok`; a violation counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
            self.failed += 1;
        }
    }

    /// A note for standard error.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the trace overhead and layer coverage of a traced phase:
    /// `traced_s` against `untraced_s`, the same phase's wall seconds with
    /// tracing on and off, and the share of the root span `root` covered
    /// by its named child layers.
    pub fn trace_summary(&mut self, tracer: &Tracer, root: &str, untraced_s: f64, traced_s: f64) {
        let root_t = tracer.layer(root);
        let children_self: u64 = tracer
            .layers()
            .iter()
            .filter(|(name, _)| **name != root)
            .map(|(_, t)| t.self_ns)
            .sum();
        self.set("bench.trace_overhead_share", traced_s / untraced_s - 1.0);
        self.set(
            "bench.layer_sum_share",
            children_self as f64 / root_t.total_ns.max(1) as f64,
        );
        self.note(format!(
            "{root}: traced {traced_s:.3} s vs untraced {untraced_s:.3} s; self time by layer:"
        ));
        let mut rows: Vec<(&&str, &crate::trace::LayerTime)> = tracer.layers().iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        for (name, t) in rows {
            self.note(format!(
                "  {name:<36} self {:>9.4} s ({:>5.1}%)  calls {:>9}",
                t.self_ns as f64 * 1e-9,
                t.self_ns as f64 / root_t.total_ns.max(1) as f64 * 100.0,
                t.calls
            ));
        }
    }
}

/// Runs two variants of a phase (untraced and traced, or `nproc` and 1
/// worker), twice each in alternation so neither pays the process's
/// warm-up alone. Returns the faster wall seconds of each variant and the
/// results of the last run of each.
pub fn alternate<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64, A, B) {
    let (a1, _) = timed(&mut a);
    let (b1, _) = timed(&mut b);
    let (a2, a_out) = timed(&mut a);
    let (b2, b_out) = timed(&mut b);
    (a1.min(a2), b1.min(b2), a_out, b_out)
}

/// Route calls of the router probe.
const ROUTE_CALLS: usize = 200_000;

/// Median ns of `InvocationRouter::route` over a day of times, on a router
/// holding 24 hourly plans spread over the default catalog.
pub fn route_ns(seed: u64, nodes: usize) -> f64 {
    let cloud = SimCloud::aws(seed);
    let home = cloud
        .region("us-east-1")
        .expect("catalog includes us-east-1");
    let regions = cloud.regions.evaluation_regions();
    let plans: Vec<DeploymentPlan> = (0..24)
        .map(|h| DeploymentPlan::uniform(nodes, regions[h % regions.len()]))
        .collect();
    let mut router = InvocationRouter::new(home, nodes);
    router.activate(HourlyPlans::hourly(plans, 0.0, 1e12));
    let step = 86_400.0 / ROUTE_CALLS as f64;
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let (t, _) = timed(|| {
                for i in 0..ROUTE_CALLS {
                    std::hint::black_box(router.route(i as f64 * step));
                }
            });
            t * 1e9 / ROUTE_CALLS as f64
        })
        .collect();
    median(&trials)
}

/// Runs workload `name`, or returns an error for an unknown name.
pub fn run(name: &str, spec: &RunSpec) -> Result<Outcome, String> {
    match name {
        "loadgen-diurnal" => Ok(loadgen::run(spec)),
        "fleet-replan" => Ok(fleet::run(spec)),
        "chaos-correlated" => Ok(chaos::run(spec)),
        "framework-week" => Ok(framework::run(spec)),
        _ => Err(format!("unknown workload `{name}`")),
    }
}

/// Runs `f` under a fresh telemetry session on this thread (discarding
/// events as they arrive) and returns its result with the session's
/// recorder.
pub fn with_recorder<T>(f: impl FnOnce() -> T) -> (T, caribou_telemetry::Recorder) {
    caribou_telemetry::enable(Box::new(caribou_telemetry::NullSink));
    let out = f();
    let session = caribou_telemetry::finish().expect("session was enabled above");
    (out, session.recorder)
}

/// `1 - at_nproc / at_one` over the summed counters `keys`: the share of
/// recorder counts a multi-worker run loses against the 1-worker run of
/// the same, worker-count-invariant work.
pub fn counter_loss(
    keys: &[&str],
    at_nproc: &caribou_telemetry::Recorder,
    at_one: &caribou_telemetry::Recorder,
) -> f64 {
    let sum = |r: &caribou_telemetry::Recorder| keys.iter().map(|k| r.counter(k)).sum::<u64>();
    let reference = sum(at_one);
    if reference == 0 {
        return 0.0;
    }
    1.0 - sum(at_nproc) as f64 / reference as f64
}
