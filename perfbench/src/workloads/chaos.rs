//! `chaos-correlated`: correlated-fault campaigns (`run_correlated_campaign`)
//! with 3 precomputed contingency plans on aws+gcp.
//!
//! One campaign's fault plan is a single random draw, and its carbon and
//! fallback counts swing with that draw, so a run is a sweep of
//! [`CAMPAIGNS`] campaigns on seeds derived from the run seed: the sweep's
//! totals are steady across run seeds while each campaign stays a real
//! one-day campaign.

use caribou_core::chaos::{
    run_correlated_campaign, CorrelatedChaosReport, CorrelatedFaultCounts, FaultClassCounts,
};
use caribou_core::ChaosConfig;
use caribou_model::region::{Provider, ProviderSet, RegionId};
use caribou_simcloud::cloud::SimCloud;
use caribou_simcloud::faults::FaultPlan;

use super::{alternate, counter_loss, route_ns, with_recorder, Outcome, RunSpec};
use crate::stats::{median, median_time, timed};
use crate::trace::Tracer;

/// Campaigns per sweep.
pub const CAMPAIGNS: usize = 32;
/// Requests per campaign.
pub const REQUESTS: u32 = 3_000;
/// Simulated seconds per campaign.
pub const DURATION_S: f64 = 86_400.0;
/// Contingency plans precomputed per campaign.
pub const CONTINGENCY: usize = 3;
/// Campaigns timed with one request to isolate the contingency solve.
const SOLVE_PROBES: usize = 4;

/// The sweep's campaign configurations.
pub fn configs(spec: &RunSpec) -> Vec<ChaosConfig> {
    let providers = ProviderSet::parse("aws,gcp").expect("aws and gcp have backends");
    (0..CAMPAIGNS)
        .map(|k| ChaosConfig {
            seed: spec.derive(0xC4A05 + k as u64),
            requests: REQUESTS,
            duration_s: DURATION_S,
            providers,
            contingency: CONTINGENCY,
            workers: spec.workers,
            ..ChaosConfig::default()
        })
        .collect()
}

/// The fault classes a campaign injects: its plain counts and its
/// correlated counts.
pub type FaultCounts = (FaultClassCounts, CorrelatedFaultCounts);

/// Draws each campaign's fault plan the way `run_correlated_campaign`
/// does — same cloud, topology and seed — and counts its fault classes.
pub fn fault_counts(cfgs: &[ChaosConfig]) -> Vec<FaultCounts> {
    cfgs.iter()
        .map(|c| {
            let cloud =
                SimCloud::for_providers(c.providers, c.seed).expect("aws and gcp have backends");
            let home = cloud
                .region("us-east-1")
                .expect("catalog includes us-east-1");
            let topology: Vec<(RegionId, Provider)> = SimCloud::evaluation_universe(c.providers)
                .iter()
                .map(|n| {
                    let r = cloud.regions.resolve(n).expect("backend region present");
                    (r, cloud.regions.spec(r).provider)
                })
                .collect();
            let plan = FaultPlan::randomized_correlated(c.seed, &topology, home, c.duration_s);
            (
                FaultClassCounts {
                    outages: plan.outages.len(),
                    partitions: plan.partitions.len(),
                    gray_failures: plan.gray_failures.len(),
                    kv_throttles: plan.kv_throttles.len(),
                    cold_storms: plan.cold_storms.len(),
                },
                CorrelatedFaultCounts {
                    provider_outages: plan.provider_outages.len(),
                    failure_domains: plan.failure_domains.len(),
                    carbon_outages: plan.carbon_outages.len(),
                },
            )
        })
        .collect()
}

/// Set-up: the campaign configurations and their fault plans.
fn setup(spec: &RunSpec) -> (Vec<ChaosConfig>, Vec<FaultCounts>) {
    let cfgs = configs(spec);
    let faults = fault_counts(&cfgs);
    (cfgs, faults)
}

/// Runs every campaign, recording one span per campaign (id = campaign
/// index) under `core.chaos.sweep`, and returns each report with its wall
/// seconds.
pub fn sweep(cfgs: &[ChaosConfig], tracer: &mut Tracer) -> Vec<(f64, CorrelatedChaosReport)> {
    tracer.enter("core.chaos.sweep", 0);
    let out = cfgs
        .iter()
        .enumerate()
        .map(|(k, c)| {
            tracer.enter("core.chaos.run_correlated_campaign", k as u64);
            let r = timed(|| run_correlated_campaign(c));
            tracer.exit();
            r
        })
        .collect();
    tracer.exit();
    out
}

fn check_sweep(
    out: &mut Outcome,
    reports: &[(f64, CorrelatedChaosReport)],
    faults: &[FaultCounts],
) {
    for (k, ((_, r), f)) in reports.iter().zip(faults).enumerate() {
        let b = &r.base;
        out.check(b.faults == f.0 && r.correlated == f.1, || {
            format!("campaign {k}: injected faults differ from its drawn fault plan")
        });
        out.check(b.ok(), || {
            format!("campaign {k}: {}", b.violations.join("; "))
        });
        out.check(
            b.completed_clean + b.fell_back_home + b.failed == b.requests,
            || format!("campaign {k}: requests lost"),
        );
        out.check(r.contingency_entries == CONTINGENCY, || {
            format!(
                "campaign {k}: {} contingency entries",
                r.contingency_entries
            )
        });
    }
}

/// Sums over a sweep.
struct Totals {
    requests: f64,
    failed: u64,
    fell_back: f64,
    fallback_routed: f64,
    probes: f64,
    reroutes: f64,
    carbon_g: f64,
    stale: (f64, f64, f64),
}

fn totals(reports: &[(f64, CorrelatedChaosReport)]) -> Totals {
    let mut t = Totals {
        requests: 0.0,
        failed: 0,
        fell_back: 0.0,
        fallback_routed: 0.0,
        probes: 0.0,
        reroutes: 0.0,
        carbon_g: 0.0,
        stale: (0.0, 0.0, 0.0),
    };
    for (_, r) in reports {
        t.requests += f64::from(r.base.requests);
        t.failed += u64::from(r.base.failed);
        t.fell_back += f64::from(r.base.fell_back_home);
        t.fallback_routed += f64::from(r.fallback_routed);
        t.probes += f64::from(r.probe_requests);
        t.reroutes += f64::from(r.base.breaker_reroutes);
        t.carbon_g += r.total_carbon_g;
        t.stale.0 += r.stale_queries.0 as f64;
        t.stale.1 += r.stale_queries.1 as f64;
        t.stale.2 += r.stale_queries.2 as f64;
    }
    t
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, (cfgs, faults)) = median_time(25, 0.3, || setup(spec));
    out.set("setup_s", setup_s);
    out.attempted = u64::from(REQUESTS) * CAMPAIGNS as u64;
    if spec.trace {
        traced(&cfgs, &faults, &mut out);
        return out;
    }

    // The sweep, then its campaigns again in order until the time is up;
    // every repeat must reproduce the campaign's first report.
    let first = sweep(&cfgs, &mut Tracer::new(false));
    check_sweep(&mut out, &first, &faults);
    let mut rates: Vec<f64> = first
        .iter()
        .map(|(wall, r)| f64::from(r.base.requests) / wall)
        .collect();
    let start = std::time::Instant::now();
    let spent: f64 = first.iter().map(|(wall, _)| wall).sum();
    let mut k = 0;
    while spent + start.elapsed().as_secs_f64() < spec.seconds {
        let (wall, r) = timed(|| run_correlated_campaign(&cfgs[k]));
        out.check(r == first[k].1, || {
            format!("campaign {k} repeated differently")
        });
        rates.push(f64::from(r.base.requests) / wall);
        k = (k + 1) % cfgs.len();
    }
    let t = totals(&first);
    let p50: Vec<f64> = first.iter().map(|(_, r)| r.base.p50_latency_s).collect();
    let p99: Vec<f64> = first.iter().map(|(_, r)| r.base.p99_latency_s).collect();
    out.failed += t.failed;
    out.note(format!("requests/s per campaign run: {:.0?}", rates));
    out.set("ops_per_s", median(&rates));
    out.set("completed_share", 1.0 - out.failed as f64 / t.requests);
    out.set("sim_latency_p50_s", median(&p50));
    out.set("sim_latency_p99_s", median(&p99));
    out.set("carbon_g_per_inv", t.carbon_g / t.requests);
    out.note(format!(
        "{} campaign runs ({CAMPAIGNS} campaigns x {REQUESTS} requests): {:.0} requests/s median; \
         latency percentiles are medians over campaigns of {REQUESTS} samples each",
        rates.len(),
        median(&rates)
    ));
    out
}

fn traced(cfgs: &[ChaosConfig], faults: &[FaultCounts], out: &mut Outcome) {
    // Untraced and traced sweeps in alternation, the traced one with the
    // recorder on.
    let (untraced_s, traced_s, reports, (traced_reports, rec, mut tracer)) = alternate(
        || sweep(cfgs, &mut Tracer::new(false)),
        || {
            let mut tracer = Tracer::new(true);
            let (r, rec) = with_recorder(|| sweep(cfgs, &mut tracer));
            (r, rec, tracer)
        },
    );
    check_sweep(out, &reports, faults);
    let same = traced_reports
        .iter()
        .zip(&reports)
        .all(|((_, a), (_, b))| a == b);
    out.check(same, || {
        "the traced sweep differs from the untraced one".into()
    });
    out.trace_summary(&tracer, "core.chaos.sweep", untraced_s, traced_s);

    // The contingency solve dominates a one-request campaign.
    let solve: Vec<f64> = cfgs[..SOLVE_PROBES]
        .iter()
        .map(|c| {
            let one = ChaosConfig { requests: 1, ..*c };
            tracer.span("solver.contingency.one_request_campaign", 0, || {
                timed(|| run_correlated_campaign(&one)).0
            })
        })
        .collect();

    // Counter loss: the campaign's recorder counts at nproc against 1
    // worker (the contingency solve is the multi-worker part).
    let small = ChaosConfig {
        requests: 500,
        ..cfgs[0]
    };
    let (_, rec_n) = with_recorder(|| run_correlated_campaign(&small));
    let (_, rec_1) = with_recorder(|| {
        run_correlated_campaign(&ChaosConfig {
            workers: 1,
            ..small
        })
    });
    let loss = counter_loss(
        &["solver.iterations", "montecarlo.samples", "pubsub.publish"],
        &rec_n,
        &rec_1,
    );

    let t = totals(&reports);
    let queries = (t.stale.0 + t.stale.1 + t.stale.2).max(1.0);
    out.failed += t.failed;
    out.set("e2e.failed_share", t.failed as f64 / t.requests);
    out.set("e2e.fallback_share", t.fell_back / t.requests);
    out.set("exec.router.route_ns", route_ns(cfgs[0].seed, 4));
    out.set(
        "exec.router.fallback_routed_share",
        t.fallback_routed / t.requests,
    );
    out.set("exec.router.probe_share", t.probes / t.requests);
    out.set("exec.router.breaker_reroute_share", t.reroutes / t.requests);
    out.set(
        "simcloud.pubsub.publish_per_inv",
        rec.counter("pubsub.publish") as f64 / t.requests,
    );
    out.set(
        "simcloud.pubsub.retry_per_inv",
        rec.counter("pubsub.retry") as f64 / t.requests,
    );
    out.set(
        "simcloud.pubsub.dead_letter",
        rec.counter("pubsub.dead_letter") as f64,
    );
    out.set(
        "simcloud.kv.ops_per_inv",
        (rec.counter("kv.read") + rec.counter("kv.write") + rec.counter("kv.rmw")) as f64
            / t.requests,
    );
    out.set(
        "simcloud.kv.rmw_conflict_per_inv",
        rec.counter("kv.rmw_conflict") as f64 / t.requests,
    );
    out.set("solver.contingency.solve_s", median(&solve));
    out.set("carbon.stale.fresh_share", t.stale.0 / queries);
    out.set("carbon.stale.last_known_good_share", t.stale.1 / queries);
    out.set("carbon.stale.yearly_average_share", t.stale.2 / queries);
    out.set("telemetry.counter_loss_share", loss);
    out.set("bench.latency_samples", t.requests);
    out.note(format!(
        "sweep {untraced_s:.3} s untraced; contingency solve {:.3} s median",
        median(&solve)
    ));
    out.tracer = Some(tracer);
}
