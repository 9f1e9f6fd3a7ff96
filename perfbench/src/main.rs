//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --describe
//! ```
//!
//! Prints the host record and a human-readable table on standard error
//! and, as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics. Exits 1 when an
//! output check fails and 2 on a usage error.

use std::process::ExitCode;

use perfbench::catalog::{self, Metric};
use perfbench::workloads::{self, RunSpec};

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --describe";

struct Args {
    workload: String,
    spec: RunSpec,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !catalog::WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            names.join(", ")
        ));
    }
    let seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        spec: RunSpec {
            seed,
            seconds,
            workers: perfbench::host::nproc(),
            trace,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--describe") {
        println!(
            "{}",
            serde_json::to_string_pretty(&catalog::benchmark_json()).expect("catalog serializes")
        );
        return ExitCode::SUCCESS;
    }
    let Args { workload, spec } = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    perfbench::alloc::set_counting(spec.trace);
    let host = perfbench::host::probe();
    eprintln!(
        "host: fingerprint {} · {} · nproc {} · workers {} · calibration {:.1} Mop/s",
        host.fingerprint, host.cpu, host.nproc, spec.workers, host.calibration_mops
    );
    eprintln!(
        "workload {workload} · seed {} · {} s · {} pass",
        spec.seed,
        spec.seconds,
        if spec.trace { "traced" } else { "timed" }
    );
    let mut out = workloads::run(&workload, &spec).expect("workload name was validated");
    out.set("peak_rss_mb", perfbench::host::peak_rss_mb());
    out.set("host.nproc", host.nproc as f64);
    out.set("host.workers", spec.workers as f64);
    out.set("host.calibration_mops", host.calibration_mops);

    let catalogue: &[Metric] = if spec.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let mut metrics = serde_json::Map::new();
    for m in catalogue {
        // A per-layer metric the workload did not set belongs to a layer
        // that never ran on it, and reads 0. Every end-to-end metric must
        // be measured.
        let value = match out.metrics.get(m.name) {
            Some(v) => *v,
            None if spec.trace => 0.0,
            None => {
                out.violations
                    .push(format!("end-to-end metric {} was not measured", m.name));
                0.0
            }
        };
        if !value.is_finite() {
            out.violations
                .push(format!("metric {} is not finite", m.name));
        }
        let tag = if spec.trace {
            format!("  moves {} on {}", m.moves, m.on)
        } else {
            String::new()
        };
        eprintln!("{:<42}{:>18.6} {:<6}{tag}", m.name, value, m.unit);
        metrics.insert(
            m.name.to_string(),
            serde_json::json!({"value": if value.is_finite() { value } else { 0.0 }, "unit": m.unit}),
        );
    }
    for note in &out.notes {
        eprintln!("{note}");
    }
    if let Some(tracer) = &out.tracer {
        let path = std::path::Path::new(".bench_trace")
            .join(format!("{workload}-seed{}.jsonl", spec.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "trace: {} spans -> {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: not written ({e})"),
        }
    }
    for v in &out.violations {
        eprintln!("VIOLATION: {v}");
    }
    let correct = out.violations.is_empty();
    println!(
        "{}",
        serde_json::json!({
            "correct": correct,
            "attempted": out.attempted.max(1),
            "failed": out.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
