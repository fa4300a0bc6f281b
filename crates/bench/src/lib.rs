//! Experiment harness: regenerates every table and figure of the paper's
//! Section VIII at laptop scale.
//!
//! Each `fig*` module mirrors one figure: it builds the paper's workload
//! (scaled — see [`figures::table1_text`]), sweeps the same x-axis, runs the same
//! algorithms, and prints two series per figure (wall time and counted block
//! I/Os) the way the paper plots Figures 6–9. Entries that exceed the run's
//! I/O or time budget print as `INF`, matching the paper's 24-hour cutoff;
//! EM-SCC stalls print as `DNF` (the paper omits EM-SCC "since it cannot
//! stop in all cases").
//!
//! Binaries (`cargo run --release -p ce-bench --bin fig6` etc.) run
//! full-size experiments; `cargo bench` runs quick versions of all of them
//! plus Criterion micro-benchmarks of the substrates.

pub mod figures;
pub mod runner;

pub use runner::{human_count, Measurement, Outcome, RunBudget, Scale, SweepTable};
