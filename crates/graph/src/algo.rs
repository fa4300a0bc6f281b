//! The unified algorithm interface every SCC engine in the workspace
//! implements.
//!
//! The paper's claim is differential by nature: Ext-SCC / Ext-SCC-Op compute
//! the *same* SCC partition as the classical algorithms at a fraction of the
//! I/O. [`SccAlgorithm`] is the contract that makes the claim testable: one
//! `run(&DiskEnv, &EdgeListGraph)` entry point per engine, one result shape
//! ([`SccRun`]: the label partition plus logical [`IoSnapshot`] and physical
//! [`PhysSnapshot`] counters), one error taxonomy ([`AlgoError`]). The
//! `ce-harness` crate sweeps a scenario matrix over every registered
//! implementation and asserts partition equivalence; `ce-bench` renders
//! figures through the same interface.
//!
//! This module also provides the two **in-memory oracles** —
//! [`TarjanOracle`] and [`KosarajuOracle`] — which load the edge list into
//! memory and are therefore only suitable as ground truth at test scale.

use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use ce_extmem::{DiskEnv, ExtFile, IoSnapshot, PhysSnapshot};

use crate::csr::CsrGraph;
use crate::edgelist::EdgeListGraph;
use crate::kosaraju::kosaraju_scc;
use crate::tarjan::{tarjan_scc, SccResult};
use crate::types::SccLabel;

/// Per-run resource budget, standing in for the paper's 24-hour wall: an
/// algorithm that exceeds it aborts with [`AlgoError::Budget`] (rendered as
/// `INF` by the bench tables).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlgoBudget {
    /// Wall-clock limit.
    pub deadline: Option<Duration>,
    /// Logical block-I/O limit (deterministic across machines, preferred for
    /// INF detection).
    pub io_limit: Option<u64>,
}

impl AlgoBudget {
    /// No limits.
    pub fn unlimited() -> AlgoBudget {
        AlgoBudget::default()
    }

    /// An I/O ceiling plus a wall-clock backstop.
    pub fn capped(io_limit: u64, deadline: Duration) -> AlgoBudget {
        AlgoBudget {
            deadline: Some(deadline),
            io_limit: Some(io_limit),
        }
    }
}

/// Why an [`SccAlgorithm`] run did not produce a labeling.
#[derive(Debug)]
pub enum AlgoError {
    /// Underlying I/O failure (including injected faults).
    Io(io::Error),
    /// The [`AlgoBudget`] was exceeded — the paper's INF.
    Budget(String),
    /// The algorithm failed structurally: it stalled, hit an iteration cap,
    /// or cannot run under the given configuration — the paper's DNF
    /// ("cannot stop" EM-SCC). Expected for algorithms whose
    /// [`SccAlgorithm::may_stall`] is true.
    Stalled(String),
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::Io(e) => write!(f, "I/O error: {e}"),
            AlgoError::Budget(why) => write!(f, "budget exceeded (INF): {why}"),
            AlgoError::Stalled(why) => write!(f, "did not finish (DNF): {why}"),
        }
    }
}

impl std::error::Error for AlgoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for AlgoError {
    fn from(e: io::Error) -> Self {
        AlgoError::Io(e)
    }
}

/// The un-measured payload an implementation returns from
/// [`SccAlgorithm::solve`]; the provided [`SccAlgorithm::run_budgeted`]
/// wraps it with counters.
#[derive(Debug)]
pub struct SccSolution {
    /// `SCC(v)` for every `v ∈ V(G)`: one record per node, sorted by node id.
    pub labels: ExtFile<SccLabel>,
    /// Number of distinct SCCs in `labels`.
    pub n_sccs: u64,
    /// Contraction iterations, for algorithms that have them.
    pub iterations: Option<usize>,
}

/// The measured result of one [`SccAlgorithm`] run: the label partition plus
/// the logical and physical I/O it cost.
#[derive(Debug)]
pub struct SccRun {
    /// `SCC(v)` for every `v ∈ V(G)`: one record per node, sorted by node id.
    pub labels: ExtFile<SccLabel>,
    /// Number of distinct SCCs.
    pub n_sccs: u64,
    /// Contraction iterations (Ext-SCC / EM-SCC families), if applicable.
    pub iterations: Option<usize>,
    /// **Logical** block I/Os consumed (the paper's "Number of I/Os").
    pub ios: IoSnapshot,
    /// **Physical** block transfers consumed (pager counters).
    pub phys: PhysSnapshot,
    /// Wall time.
    pub wall: Duration,
}

impl SccRun {
    /// Loads the labels into a [`crate::labels::SccLabeling`] (checks that
    /// the file is dense and sorted over `0..n_nodes`).
    pub fn labeling(&self, n_nodes: u64) -> io::Result<crate::labels::SccLabeling> {
        crate::labels::SccLabeling::from_file(&self.labels, n_nodes)
    }
}

/// One SCC engine behind the unified entry point.
///
/// Implementations provide [`SccAlgorithm::solve`]; callers use
/// [`SccAlgorithm::run`] / [`SccAlgorithm::run_budgeted`], which measure the
/// logical/physical I/O and wall time around the solve. The trait is
/// object-safe so harnesses and benches can hold `Box<dyn SccAlgorithm>`
/// registries.
pub trait SccAlgorithm {
    /// Display name — the *single source* for report columns, bench tables
    /// and harness rows (duplicated string literals drift).
    fn name(&self) -> &'static str;

    /// True if the algorithm can fail to terminate on valid inputs by
    /// design (the paper's EM-SCC). Harnesses treat [`AlgoError::Stalled`]
    /// from such algorithms as a recorded DNF, not a test failure.
    fn may_stall(&self) -> bool {
        false
    }

    /// Computes the labeling. Implementations should honour `budget` where
    /// their underlying engine supports deadlines/I-O caps, and surface
    /// overruns as [`AlgoError::Budget`].
    fn solve(
        &self,
        env: &DiskEnv,
        g: &EdgeListGraph,
        budget: &AlgoBudget,
    ) -> Result<SccSolution, AlgoError>;

    /// Runs without limits and measures I/O and wall time.
    fn run(&self, env: &DiskEnv, g: &EdgeListGraph) -> Result<SccRun, AlgoError> {
        self.run_budgeted(env, g, &AlgoBudget::unlimited())
    }

    /// Runs under `budget`, measuring logical I/Os, physical transfers and
    /// wall time around the solve.
    fn run_budgeted(
        &self,
        env: &DiskEnv,
        g: &EdgeListGraph,
        budget: &AlgoBudget,
    ) -> Result<SccRun, AlgoError> {
        let io0 = env.stats().snapshot();
        let phys0 = env.phys();
        let t = Instant::now();
        let s = self.solve(env, g, budget)?;
        Ok(SccRun {
            labels: s.labels,
            n_sccs: s.n_sccs,
            iterations: s.iterations,
            ios: env.stats().snapshot().since(&io0),
            phys: env.phys().since(&phys0),
            wall: t.elapsed(),
        })
    }
}

/// Writes an in-memory [`SccResult`] as the workspace's canonical label file:
/// one `(node, min-member-representative)` record per node, sorted by node.
fn write_oracle_labels(
    env: &DiskEnv,
    label: &str,
    r: &SccResult,
) -> io::Result<SccSolution> {
    let reps = r.canonical_reps();
    let mut w = env.writer::<SccLabel>(label)?;
    for (v, &rep) in reps.iter().enumerate() {
        w.push(SccLabel::new(v as u32, rep))?;
    }
    Ok(SccSolution {
        labels: w.finish()?,
        n_sccs: r.count as u64,
        iterations: None,
    })
}

/// In-memory Tarjan oracle: loads the whole edge list into memory — ground
/// truth for differential tests, not an external algorithm. Ignores the
/// budget (oracle runs are test-scale by construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct TarjanOracle;

impl SccAlgorithm for TarjanOracle {
    fn name(&self) -> &'static str {
        "Tarjan"
    }

    fn solve(
        &self,
        env: &DiskEnv,
        g: &EdgeListGraph,
        _budget: &AlgoBudget,
    ) -> Result<SccSolution, AlgoError> {
        let edges = g.edges_in_memory()?;
        let r = tarjan_scc(&CsrGraph::from_edges(g.n_nodes(), &edges));
        Ok(write_oracle_labels(env, "tarjan-labels", &r)?)
    }
}

/// In-memory Kosaraju–Sharir oracle (the traversal DFS-SCC externalizes).
/// Same caveats as [`TarjanOracle`].
#[derive(Debug, Clone, Copy, Default)]
pub struct KosarajuOracle;

impl SccAlgorithm for KosarajuOracle {
    fn name(&self) -> &'static str {
        "Kosaraju"
    }

    fn solve(
        &self,
        env: &DiskEnv,
        g: &EdgeListGraph,
        _budget: &AlgoBudget,
    ) -> Result<SccSolution, AlgoError> {
        let edges = g.edges_in_memory()?;
        let r = kosaraju_scc(g.n_nodes(), &edges);
        Ok(write_oracle_labels(env, "kosaraju-labels", &r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::labels::same_partition;
    use ce_extmem::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(512, 8 << 10)).unwrap()
    }

    #[test]
    fn oracles_agree_and_measure() {
        let env = env();
        let g = gen::disjoint_cycles(&env, &[3, 4, 5]).unwrap();
        let t = TarjanOracle.run(&env, &g).unwrap();
        let k = KosarajuOracle.run(&env, &g).unwrap();
        assert_eq!(t.n_sccs, 3);
        assert_eq!(k.n_sccs, 3);
        let lt = t.labeling(g.n_nodes()).unwrap();
        let lk = k.labeling(g.n_nodes()).unwrap();
        assert!(same_partition(&lt.rep, &lk.rep));
        assert!(lt.reps_are_members());
        assert!(t.ios.total_ios() > 0, "oracle I/O is counted");
        assert_eq!(TarjanOracle.name(), "Tarjan");
        assert!(!TarjanOracle.may_stall());
    }

    #[test]
    fn budget_constructors() {
        let b = AlgoBudget::capped(100, Duration::from_secs(1));
        assert_eq!(b.io_limit, Some(100));
        assert!(b.deadline.is_some());
        assert!(AlgoBudget::unlimited().io_limit.is_none());
    }

    #[test]
    fn error_display_and_source() {
        let e = AlgoError::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(AlgoError::Budget("x".into()).to_string().contains("INF"));
        assert!(AlgoError::Stalled("y".into()).to_string().contains("DNF"));
    }
}
