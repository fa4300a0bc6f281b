//! # Contract & Expand: I/O-efficient SCC computation
//!
//! Implementation of **Ext-SCC** and **Ext-SCC-Op** from *"Contract & Expand:
//! I/O Efficient SCCs Computing"* (Zhang, Qin, Yu — ICDE 2014): computing all
//! strongly connected components of a directed graph whose **node set does
//! not fit in main memory**, using only sequential scans and external sorts.
//!
//! The algorithm runs in two phases (Algorithm 2):
//!
//! 1. **Graph contraction** — repeatedly shrink `G_i` to `G_{i+1}` whose node
//!    set is a degree-selected vertex cover of `G_i` ([`get_v()`], Algorithm 3)
//!    and whose edge set preserves strong connectivity among surviving nodes
//!    via bypass edges ([`get_e()`], Algorithm 4), until all nodes fit in
//!    memory;
//! 2. **Graph expansion** — solve the small graph with a semi-external
//!    algorithm (`ce-semi-scc`), then put removed node batches back in
//!    reverse order, labelling each removed node from the SCC labels of its
//!    neighbours ([`expand()`], Algorithm 5).
//!
//! [`ExtSccConfig::baseline`] is the paper's Ext-SCC; [`ExtSccConfig::optimized`]
//! enables the Section-VII node/edge reductions (Ext-SCC-Op). Every run
//! produces a [`RunReport`] with the per-iteration `|V_i|`/`|E_i|` trajectory
//! and exact counted I/Os.
//!
//! ```
//! use ce_extmem::{DiskEnv, IoConfig};
//! use ce_core::{ExtScc, ExtSccConfig};
//! use ce_graph::gen;
//!
//! // 2 KiB blocks and a 32 KiB budget: the 5000-node cycle's node state
//! // (~40 KB) does not fit, so contraction actually runs.
//! let env = DiskEnv::new_temp(IoConfig::new(2 << 10, 32 << 10)).unwrap();
//! let graph = gen::cycle(&env, 5000).unwrap();
//! let out = ExtScc::new(&env, ExtSccConfig::optimized()).run(&graph).unwrap();
//! assert_eq!(out.report.n_sccs, 1); // a cycle is one SCC
//! assert!(out.report.iterations() >= 1);
//! ```

pub mod algo;
pub mod driver;
pub mod expand;
pub mod get_e;
pub mod get_v;
pub mod invariants;
pub mod ops;
pub mod order;

pub use algo::ExtSccAlgo;
pub use driver::{
    ExpansionStats, ExtScc, ExtSccConfig, ExtSccError, IterationStats, RunReport, SccOutput,
};
pub use expand::{expand, ExpandCounts, LevelFiles};
pub use get_e::{get_e, GetEOptions, GetEResult};
pub use get_v::{get_v, CoverStats, GetVOptions};
pub use ops::{build_orders, EdgeOrders};
pub use order::{node_greater, spread, NodeKey, OrderKind};
