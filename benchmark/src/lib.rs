//! The repository benchmark.
//!
//! Two workloads (`darknet`, `vantage`) drive the aggressive-hitter
//! pipeline through its public entry points only. `--trace 0` times the
//! serial, sharded, durable and replay engines untraced and reports the
//! end-to-end metrics; `--trace 1` records the workload's traffic once
//! and times every layer on that stream, one layer at a time, and
//! reconciles the layers with the serial run. See `README.md` beside
//! this crate for the workloads, the metrics and the first ledger.

pub mod cli;
pub mod e2e;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workload;
