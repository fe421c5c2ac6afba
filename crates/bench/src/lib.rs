//! # symi-bench
//!
//! The experiment harness: the `repro` binary regenerates every table and
//! figure of the paper (see DESIGN.md's experiment index) from the
//! artifacts in [`convergence`] (read from training runs) and [`comm`]
//! (communication bytes and the cost model); this library also holds what
//! they share — system selection, training-run caching, latency
//! composition, plain-text table/CSV output — and the micro-benchmarks'
//! timer.

pub mod comm;
pub mod convergence;
pub mod harness;
pub mod latency;
pub mod output;
pub mod runs;
pub mod transition;

pub use harness::{bench, group, BenchResult};
pub use latency::{average_iteration_latency, LatencyInputs};
pub use output::{write_csv, Table};
pub use runs::{load_or_run, run_system, SystemChoice};
pub use transition::Transition;
