//! Graph substrate for the Contract & Expand SCC workspace.
//!
//! Provides:
//!
//! * [`algo`] — the unified [`algo::SccAlgorithm`] trait every SCC engine in
//!   the workspace implements (plus the in-memory Tarjan/Kosaraju oracles),
//!   the interface the conformance harness and the bench tables dispatch
//!   through;
//! * [`types`] — node ids, the on-disk [`types::Edge`] record and the
//!   [`types::SccLabel`] record `(node, scc)` shared by every algorithm;
//! * [`edgelist`] — [`edgelist::EdgeListGraph`]: a directed graph stored as an
//!   external edge file plus a node count, with the external transforms
//!   (reverse, sort, dedup, degree table) all algorithms share;
//! * [`csr`] — an in-memory compressed-sparse-row view, for the in-memory
//!   kernels and for verification;
//! * [`tarjan`] / [`kosaraju`] — iterative in-memory SCC algorithms; Tarjan is
//!   the ground truth every external algorithm is tested against, Kosaraju is
//!   the algorithm DFS-SCC externalizes (Algorithm 1 of the paper);
//! * [`gen`] — deterministic workload generators: the Table-I synthetic
//!   family (Massive-/Large-/Small-SCC), the web-like bow-tie graph standing
//!   in for WEBSPAM-UK2007, and assorted structured graphs;
//! * [`labels`] — utilities over SCC labelings (canonicalization, partition
//!   comparison, histograms, condensation — in memory and external);
//! * [`planner`] — the engine [`planner::Planner`]: deterministic,
//!   explainable selection of Semi-SCC vs Ext-SCC(-Op) from
//!   `(|V|, M, B)`, returning a [`planner::Plan`] with the reason;
//! * [`index`] — the persistent, checksummed, block-budgeted queryable
//!   artifact an SCC computation materializes: [`index::SccIndex`] builds
//!   and opens it, and [`index::SccIndexReader`] is the one handle that
//!   queries it;
//! * [`stats`] — external graph statistics (degree distribution,
//!   sources/sinks/isolated counts) in `O(sort(|E|))` I/Os;
//! * [`delta`] — [`delta::DeltaEngine`]: incremental maintenance of a stored
//!   index under edge insertions/deletions (classification against the
//!   condensation DAG, localized merges, lazy re-verification, crash-safe
//!   generation swaps).

pub mod algo;
pub mod delta;
pub mod csr;
pub mod edgelist;
pub mod gen;
pub mod index;
pub mod kosaraju;
pub mod labels;
pub mod planner;
pub mod stats;
pub mod tarjan;
pub mod types;

pub use algo::{AlgoBudget, AlgoError, KosarajuOracle, SccAlgorithm, SccRun, SccSolution, TarjanOracle};
pub use csr::CsrGraph;
pub use delta::{CompactReport, DeltaBatch, DeltaEngine, DeltaReport};
pub use edgelist::EdgeListGraph;
pub use index::{SccIndex, SccIndexReader};
pub use labels::SccLabeling;
pub use planner::{Engine, Plan, Planner};
pub use types::{CountedEdge, Edge, NodeId, SccLabel};
