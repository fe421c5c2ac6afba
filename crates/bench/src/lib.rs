//! # symi-bench
//!
//! The experiment harness: shared machinery for regenerating every table
//! and figure of the paper (see DESIGN.md's experiment index). Each
//! `src/bin/*.rs` binary reproduces one artifact; this library holds the
//! pieces they share — system selection, training-run caching, latency
//! composition, and plain-text table/CSV output.

pub mod harness;
pub mod latency;
pub mod output;
pub mod plot;
pub mod runs;
pub mod transition;

pub use harness::{bench, group, BenchResult};
pub use latency::{average_iteration_latency, LatencyInputs};
pub use output::{write_csv, Table};
pub use runs::{load_or_run, run_system, SystemChoice};
pub use transition::Transition;
