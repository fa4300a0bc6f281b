//! Shared machinery: run one [`SccAlgorithm`] on one graph under one budget
//! and record (outcome, wall time, I/Os); format sweeps as the paper's
//! series.
//!
//! All dispatch goes through the unified `SccAlgorithm` trait — there is no
//! per-algorithm plumbing here, and every table column is labelled by the
//! trait's `name()` so bench tables and harness reports cannot drift.

use std::fmt;
use std::time::{Duration, Instant};

use ce_extmem::{DiskEnv, IoConfig};
use ce_graph::algo::{AlgoBudget, AlgoError, SccAlgorithm};
use ce_graph::EdgeListGraph;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale runs used by `cargo bench` and CI.
    Quick,
    /// The scaled paper defaults printed by [`crate::figures::table1_text`].
    Full,
}

impl Scale {
    /// Parses `--quick`/`--full` from process args; defaults to `Full`.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Picks `q` under `Quick` and `f` under `Full`.
    pub fn pick<T>(&self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// Result class of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Completed; payload = number of SCCs.
    Ok(u64),
    /// Exceeded its time/I-O budget (the paper's INF).
    Inf,
    /// Stalled / failed structurally (the paper's "cannot stop" EM-SCC).
    Dnf(String),
}

/// One measured cell of a figure.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm label (the trait's `name()`).
    pub algo: &'static str,
    /// What happened.
    pub outcome: Outcome,
    /// Total block I/Os consumed.
    pub ios: u64,
    /// Random block I/Os.
    pub rand_ios: u64,
    /// Wall time.
    pub wall: Duration,
    /// Contraction iterations (Ext-SCC family only).
    pub iterations: Option<usize>,
}

/// Cost model of the paper's 2007-era testbed disk: a sequential 8 KiB block
/// at ~100 MB/s versus a random block dominated by seek + rotational delay.
/// Wall time on a modern page-cached SSD hides exactly the asymmetry the
/// paper's time panels show, so the figures print *modeled disk time*
/// alongside measured wall time and raw I/O counts.
pub const SEQ_BLOCK_MS: f64 = 0.08;
/// Random-block cost of the model (see [`SEQ_BLOCK_MS`]).
pub const RAND_BLOCK_MS: f64 = 8.0;

impl Measurement {
    /// Measured wall time cell.
    pub fn time_cell(&self) -> String {
        match self.outcome {
            Outcome::Ok(_) => format!("{:.2}s", self.wall.as_secs_f64()),
            Outcome::Inf => "INF".into(),
            Outcome::Dnf(_) => "DNF".into(),
        }
    }

    /// Modeled 2007-HDD time for the run's I/O mix.
    pub fn modeled_disk(&self) -> Duration {
        let seq = (self.ios - self.rand_ios) as f64 * SEQ_BLOCK_MS;
        let rand = self.rand_ios as f64 * RAND_BLOCK_MS;
        Duration::from_secs_f64((seq + rand) / 1e3)
    }

    /// Modeled disk-time cell — the reproduction of the paper's time axis.
    pub fn disk_cell(&self) -> String {
        match self.outcome {
            Outcome::Ok(_) => {
                let s = self.modeled_disk().as_secs_f64();
                if s >= 60.0 {
                    format!("{:.1}m", s / 60.0)
                } else {
                    format!("{s:.2}s")
                }
            }
            Outcome::Inf => "INF".into(),
            Outcome::Dnf(_) => "DNF".into(),
        }
    }

    /// The value plotted on the paper's I/O axis.
    pub fn io_cell(&self) -> String {
        match self.outcome {
            Outcome::Ok(_) => human_count(self.ios),
            Outcome::Inf => "INF".into(),
            Outcome::Dnf(_) => "DNF".into(),
        }
    }
}

/// Renders counts the way the paper's axes do (200K, 1.2M, ...).
pub fn human_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.0}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Per-run budget standing in for the paper's 24-hour limit (re-exported
/// from the unified algorithm interface).
pub type RunBudget = AlgoBudget;

/// Runs any [`SccAlgorithm`] under `budget` and classifies the outcome the
/// way the paper's tables do: completion, INF (budget exceeded) or DNF
/// (structural failure). I/Os and wall time are recorded either way.
pub fn run_algo(
    env: &DiskEnv,
    g: &EdgeListGraph,
    algo: &dyn SccAlgorithm,
    budget: &RunBudget,
) -> Measurement {
    let before = env.stats().snapshot();
    let t = Instant::now();
    let result = algo.run_budgeted(env, g, budget);
    let d = env.stats().snapshot().since(&before);
    let (outcome, iterations) = match result {
        Ok(run) => (Outcome::Ok(run.n_sccs), run.iterations),
        Err(AlgoError::Budget(_)) => (Outcome::Inf, None),
        Err(e) => (Outcome::Dnf(e.to_string()), None),
    };
    Measurement {
        algo: algo.name(),
        outcome,
        ios: d.total_ios(),
        rand_ios: d.random_ios(),
        wall: t.elapsed(),
        iterations,
    }
}

/// Creates the standard experiment environment: `block_size` plus a memory
/// budget expressed directly (the figures sweep it).
pub fn bench_env(block_size: usize, mem_budget: usize) -> DiskEnv {
    DiskEnv::new_temp(IoConfig::new(block_size, mem_budget)).expect("scratch dir")
}

/// A sweep result: one row per x-axis point, one column pair per algorithm —
/// the tabular form of one paper figure (its (a) time and (b) I/O panels).
pub struct SweepTable {
    /// Figure title, e.g. "Fig. 6 — WEBSPAM substitute: vary edge fraction".
    pub title: String,
    /// X-axis label, e.g. "edges %".
    pub x_label: String,
    /// Algorithm labels, fixed order (taken from `SccAlgorithm::name()`).
    pub algos: Vec<&'static str>,
    /// `(x value, measurements in algo order)`.
    pub rows: Vec<(String, Vec<Measurement>)>,
}

impl SweepTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, algos: Vec<&'static str>) -> Self {
        SweepTable {
            title: title.into(),
            x_label: x_label.into(),
            algos,
            rows: Vec::new(),
        }
    }

    /// Creates an empty table with columns labelled by the given algorithms.
    pub fn for_algos(
        title: impl Into<String>,
        x_label: impl Into<String>,
        algos: &[Box<dyn SccAlgorithm>],
    ) -> Self {
        SweepTable::new(title, x_label, algos.iter().map(|a| a.name()).collect())
    }

    /// Appends one x-axis point.
    pub fn push_row(&mut self, x: impl Into<String>, row: Vec<Measurement>) {
        assert_eq!(row.len(), self.algos.len(), "row width mismatch");
        self.rows.push((x.into(), row));
    }

    fn panel(&self, f: &mut fmt::Formatter<'_>, which: &str) -> fmt::Result {
        writeln!(f, "  ({which})")?;
        write!(f, "  {:>12}", self.x_label)?;
        for a in &self.algos {
            write!(f, " {a:>14}")?;
        }
        writeln!(f)?;
        for (x, row) in &self.rows {
            write!(f, "  {x:>12}")?;
            for m in row {
                let cell = match which {
                    "wall time" => m.time_cell(),
                    "modeled disk time" => m.disk_cell(),
                    _ => m.io_cell(),
                };
                write!(f, " {cell:>14}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Display for SweepTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        self.panel(f, "modeled disk time")?;
        self.panel(f, "I/Os")?;
        self.panel(f, "wall time")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_core::ExtSccAlgo;
    use ce_dfs_scc::{DfsMode, DfsSccAlgo};
    use ce_graph::gen;

    #[test]
    fn human_count_formats() {
        assert_eq!(human_count(999), "999");
        assert_eq!(human_count(42_000), "42K");
        assert_eq!(human_count(1_230_000), "1.23M");
        assert_eq!(human_count(12_300_000), "12.3M");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn run_algo_measures_and_labels() {
        let env = bench_env(1 << 12, 1 << 20);
        let g = gen::cycle(&env, 500).unwrap();
        let m = run_algo(&env, &g, &ExtSccAlgo::optimized(), &RunBudget::unlimited());
        assert_eq!(m.algo, "Ext-SCC-Op");
        assert_eq!(m.outcome, Outcome::Ok(1));
        assert!(m.ios > 0);
        assert_eq!(m.iterations, Some(0), "roomy budget: no contraction");
    }

    #[test]
    fn inf_outcome_from_io_cap() {
        let env = bench_env(1 << 10, 16 << 10);
        let g = gen::permuted_cycle(&env, 3000, 1).unwrap();
        let m = run_algo(
            &env,
            &g,
            &DfsSccAlgo::new(DfsMode::Naive),
            &RunBudget::capped(50, Duration::from_secs(60)),
        );
        assert_eq!(m.algo, "DFS-SCC");
        assert_eq!(m.outcome, Outcome::Inf);
        assert_eq!(m.time_cell(), "INF");
        assert_eq!(m.io_cell(), "INF");
    }

    #[test]
    fn sweep_table_renders_both_panels() {
        let mut t = SweepTable::new("Fig. X", "mem", vec!["a", "b"]);
        let m = Measurement {
            algo: "a",
            outcome: Outcome::Ok(3),
            ios: 1234,
            rand_ios: 5,
            wall: Duration::from_millis(250),
            iterations: Some(2),
        };
        t.push_row("400M", vec![m.clone(), m]);
        let text = t.to_string();
        assert!(text.contains("(wall time)"));
        assert!(text.contains("(modeled disk time)"));
        assert!(text.contains("(I/Os)"));
        assert!(text.contains("0.25s"));
        assert!(text.contains("1K") || text.contains("1234"));
    }

    #[test]
    fn table_columns_from_trait_names() {
        let algos: Vec<Box<dyn SccAlgorithm>> =
            vec![Box::new(ExtSccAlgo::optimized()), Box::new(ExtSccAlgo::baseline())];
        let t = SweepTable::for_algos("t", "x", &algos);
        assert_eq!(t.algos, vec!["Ext-SCC-Op", "Ext-SCC"]);
    }
}
