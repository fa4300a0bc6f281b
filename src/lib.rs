//! # contract-expand
//!
//! I/O-efficient strongly connected component (SCC) computation for directed
//! graphs **whose node set does not fit in main memory** — a from-scratch
//! implementation of *"Contract & Expand: I/O Efficient SCCs Computing"*
//! (Zhiwei Zhang, Lu Qin, Jeffrey Xu Yu — ICDE 2014), together with every
//! substrate and baseline its evaluation depends on.
//!
//! ## Quick start
//!
//! Computing SCCs is the *indexing step* of a [`session::SccSession`]: pick
//! an I/O environment, point it at a graph, let the planner choose the
//! regime (semi-external when the node array fits `M`, contraction
//! otherwise), and materialize a persistent, queryable [`prelude::SccIndex`]
//! that answers component queries in a bounded number of block reads —
//! without ever recomputing SCCs.
//!
//! ```
//! use contract_expand::prelude::*;
//!
//! // An I/O environment: 4 KiB blocks, 128 KiB of "main memory", pooled.
//! let cfg = IoConfig::new(4 << 10, 128 << 10);
//! let mut session = SccSession::open(cfg, EnvOptions::pooled(&cfg)).unwrap()
//!     // 20k nodes need ~160 KB of node state: contraction must run.
//!     .source(GraphSource::generator(|env| gen::web_like(env, 20_000, 4.0, 42)))
//!     .unwrap();
//!
//! // The planner explains its engine choice before any I/O is spent.
//! let plan = session.plan().unwrap();
//! assert_eq!(plan.engine, Engine::ExtSccOp);
//! assert!(plan.reason.contains("exceeds"));
//!
//! // Build the persistent index (runs Ext-SCC-Op, writes the artifact,
//! // reopens it through its checksum validation).
//! let path = std::env::temp_dir().join(format!("ce-doc-{}.sccidx", std::process::id()));
//! let built = session.build_index(&path).unwrap();
//! assert_eq!(built.run.n_sccs, built.index.n_sccs());
//!
//! // Point queries cost at most two block reads each (one for
//! // `component_of`, zero/one/two for `same_component`), counted in the
//! // same logical I/O model as the build.
//! let rep = built.index.component_of(7).unwrap();
//! assert!(built.index.same_component(7, rep).unwrap());
//! assert!(built.index.component_size(7).unwrap() >= 1);
//! std::fs::remove_file(&path).unwrap();
//! ```
//!
//! The flat engine API is still there underneath — `ExtScc::new(&env,
//! ExtSccConfig::optimized()).run(&graph)` — for ablations and benches that
//! must pin a configuration.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`obs`] | observability substrate: RAII spans, metrics registry, pluggable sinks (null / in-memory / JSON lines), zero-cost when disabled |
//! | [`pager`] | storage substrate: counted buffer pools over files — the owned pool for scratch and artifact writes (LRU, dirty write-back, fault injection) and the shared read-only pool for index readers |
//! | [`extmem`] | I/O model: counted block files, external sort, merge joins, buffered repository tree |
//! | [`graph`] | edge-list graphs, CSR, Tarjan/Kosaraju, workload generators, **engine planner** ([`graph::planner`]) and the **persistent [`graph::index::SccIndex`]** artifact |
//! | [`semi_scc`] | semi-external base case (coloring and spanning-tree variants) + [`semi_scc::planner_for`] |
//! | [`core`] | **the paper's contribution**: Ext-SCC / Ext-SCC-Op |
//! | [`dfs_scc`] | external-DFS baseline (naive + BRT) |
//! | [`em_scc`] | contraction-heuristic baseline with stall detection |
//! | [`harness`] | differential conformance: a scenario matrix running every engine through the unified `SccAlgorithm` trait against in-memory oracles, plus planner-agreement and index round-trip checks (`scc verify`) |
//! | [`session`] | the user-facing layer: [`session::SccSession`] (source → plan → build_index) over the planner and the index |
//! | [`util`] | shared helpers ([`util::parse_size`]) |
//!
//! The model's **logical** I/O counters (`IoStats`, what the paper's figures
//! plot) are independent of the storage substrate: pick a buffer-pool size
//! per environment via [`prelude::EnvOptions`] (or split
//! one strict `M`-byte budget between pool and algorithm with
//! `EnvOptions::strict`), read the **physical** transfer counters via
//! `DiskEnv::phys()`, and the logical numbers stay bit-for-bit identical
//! while wall-clock and physical transfers drop.
//!
//! Both counter families are *attributable*: install an [`obs`] sink (what
//! `scc run --trace human|json` does) and every contraction iteration and
//! phase — Get-V, Get-E, expansion, sort passes, coloring rounds — closes a
//! span carrying exactly the logical/physical I/O delta it consumed, with
//! leaf deltas summing to the run totals. The disabled path (no sink, or
//! [`obs::NullSink`]) costs one thread-local branch and zero allocations.
//!
//! The `ce-bench` crate reproduces every table and figure of the paper's
//! evaluation; `perfbench/` measures the system end to end.

pub use ce_core as core;
pub use ce_dfs_scc as dfs_scc;
pub use ce_em_scc as em_scc;
pub use ce_extmem as extmem;
pub use ce_graph as graph;
pub use ce_harness as harness;
pub use ce_obs as obs;
pub use ce_pager as pager;
pub use ce_semi_scc as semi_scc;

pub mod session;
pub mod util;

/// The common imports for applications.
pub mod prelude {
    pub use ce_core::{ExtScc, ExtSccAlgo, ExtSccConfig, ExtSccError, RunReport, SccOutput};
    pub use ce_dfs_scc::DfsSccAlgo;
    pub use ce_em_scc::EmSccAlgo;
    pub use ce_extmem::{DiskEnv, EnvOptions, IoConfig, IoSnapshot, PhysSnapshot};
    pub use ce_graph::algo::{AlgoBudget, AlgoError, SccAlgorithm, SccRun};
    pub use ce_graph::gen;
    pub use ce_graph::planner::{Engine, Plan, Planner};
    pub use ce_graph::{
        CompactReport, CountedEdge, CsrGraph, DeltaBatch, DeltaEngine, DeltaReport, Edge,
        EdgeListGraph, KosarajuOracle, NodeId, SccIndex, SccIndexReader, SccLabel, SccLabeling,
        TarjanOracle,
    };
    pub use ce_harness::HarnessScale;
    pub use ce_semi_scc::{planner_for, SemiSccAlgo, SemiSccKind};

    pub use crate::session::{GraphSource, IndexBuild, SccSession};
    pub use crate::util::parse_size;
}
