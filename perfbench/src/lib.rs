//! End-to-end and per-layer benchmark of the Caribou stack.
//!
//! The benchmark drives the system only through public library calls
//! (`run_loadgen`, `solve_fleet`/`replan_incremental`,
//! `run_correlated_campaign`, `Caribou::deploy`/`run_trace`) plus the
//! public layer functions it times directly. A timed pass prints the
//! end-to-end metrics; a separate traced pass records spans around those
//! calls and prints the per-layer metrics. See `README.md`.

pub mod alloc;
pub mod catalog;
pub mod host;
pub mod stats;
pub mod trace;
pub mod workloads;
