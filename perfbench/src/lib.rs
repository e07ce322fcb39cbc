//! The repository benchmark.
//!
//! One command runs a named workload with a seed for a number of host
//! seconds, checks every instance's trace, and prints each metric with
//! its unit; the last line of output is one JSON object. See
//! `perfbench/README.md` for the workloads, metrics and the
//! per-layer → end-to-end map.

pub mod check;
pub mod instance;
pub mod layers;
pub mod prod;
pub mod report;
pub mod workload;
