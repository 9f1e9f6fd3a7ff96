//! The host record printed with every result: a fingerprint, the core
//! count, the worker count, a fixed CPU-bound calibration score, and the
//! process's peak resident set.
//!
//! The calibration kernel does the same integer and floating-point work
//! on every run, so its score changes only with the machine. A result
//! that drops together with the score reads as a slower host, not as a
//! slower program.

use std::time::Instant;

use crate::stats::median;

/// One host's identity and speed.
#[derive(Debug, Clone)]
pub struct Host {
    /// FNV-1a hash of the CPU model, core count and kernel release.
    pub fingerprint: String,
    /// CPU model name, as `/proc/cpuinfo` reports it.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// Calibration kernel throughput, million steps per second (median
    /// of five trials).
    pub calibration_mops: f64,
}

/// Available parallelism (1 when it cannot be determined).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Steps of one calibration trial.
const CALIBRATION_STEPS: u64 = 4_000_000;

/// One trial of the calibration kernel: an xorshift stream feeding a
/// square root and an accumulate. Returns million steps per second.
fn calibration_trial() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64).sqrt();
    }
    std::hint::black_box(acc);
    CALIBRATION_STEPS as f64 / t0.elapsed().as_secs_f64() / 1e6
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Probes the host: identity from `/proc`, speed from five calibration
/// trials.
pub fn probe() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = nproc();
    let fingerprint = format!(
        "{:016x}",
        fnv1a(format!("{cpu}|{nproc}|{kernel}").as_bytes())
    );
    let trials: Vec<f64> = (0..5).map(|_| calibration_trial()).collect();
    Host {
        fingerprint,
        cpu,
        nproc,
        calibration_mops: median(&trials),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`; 0.0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
