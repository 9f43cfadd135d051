//! End-to-end benchmark of the TLP workspace.
//!
//! One command runs one workload from a seed: it generates the input,
//! drives it through the crates' public functions (text parse, `.tlpg`
//! write and open, registry run, metrics, partition store, server open,
//! closed-loop TCP load, flush), checks the outputs, and prints the
//! end-to-end metrics. A traced run prints the per-layer metrics and a
//! self-time table instead. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod gate;
pub mod measure;
pub mod offline;
pub mod report;
pub mod serve;
pub mod trace;
pub mod workload;
