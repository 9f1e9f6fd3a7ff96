//! Caribou: a framework for carbon-aware geospatial shifting of serverless
//! workflows.
//!
//! This crate is the control plane tying the workspace together, mirroring
//! the component architecture of Fig. 4 of the paper:
//!
//! * [`utility`] — the Deployment Utility: initial deployment of a
//!   declared workflow to its home region (DAG extraction, IAM roles,
//!   image push, topic creation, metadata upload — §6.1);
//! * [`migrator`] — the Deployment Migrator: crane-style image copies to
//!   new regions, all-or-nothing plan activation with home-region
//!   fallback, and periodic retry of non-activated plans (§6.1);
//! * [`tokens`] — the token-bucket self-regulation of deployment-plan
//!   generation: tokens represent the carbon budget earned from potential
//!   savings; solves consume budget proportional to DAG complexity; the
//!   next check time is sigmoid-smoothed onto the invocation rate (§5.2);
//! * [`manager`] — the Deployment Manager orchestrating the Fig. 6 loop;
//! * [`framework`] — the top-level [`framework::Caribou`] runtime that
//!   executes invocation traces end-to-end against the simulated cloud,
//!   learning, solving, migrating, and accounting as it goes;
//! * [`chaos`] — a seeded randomized fault-campaign harness checking the
//!   framework's robustness invariants (no invocation lost, routing stays
//!   deployable, metering stays honest) under composed fault classes;
//! * [`loadgen`] — the sustained-load harness driving a benchmark DAG
//!   with seeded open-loop arrivals, sharded across the worker pool with
//!   bit-identical results at any worker count;
//! * [`fleet`] — multi-tenant solving: a seeded fleet of heterogeneous
//!   DAG apps re-planned every simulated hour through one shared,
//!   cross-app estimate cache, with dependency-indexed incremental
//!   re-solve after forecast revisions.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete end-to-end run; the crate
//! root re-exports the types needed for typical use.

pub mod chaos;
pub mod error;
pub mod fleet;
pub mod framework;
pub mod loadgen;
pub mod manager;
pub mod migrator;
pub mod tokens;
pub mod utility;

pub use chaos::{ChaosConfig, ChaosReport};
pub use error::CoreError;
pub use fleet::{
    replan_incremental, solve_fleet, FleetConfig, FleetEnv, FleetReport, FleetSchedule,
};
pub use framework::{Caribou, CaribouConfig, RunReport};
pub use loadgen::{run_loadgen, LoadReport, LoadgenConfig};
pub use manager::DeploymentManager;
pub use migrator::{MigrationReport, Migrator};
pub use tokens::TokenBucket;
pub use utility::{DeployedWorkflow, DeploymentUtility};
