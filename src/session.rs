//! `SccSession` — the builder-style front door of the workspace.
//!
//! The paper's whole point is choosing the right regime: semi-external when
//! the node array fits in `M`, Ext-SCC(-Op) when it does not. A session
//! packages that choice so callers never pick an engine by hand:
//!
//! ```text
//! SccSession::open(cfg, opts)      an I/O environment (M, B, backend, pool)
//!     .source(GraphSource::...)    text / binary / in-memory / generator
//!     .plan()                      explainable engine choice (no I/O spent)
//!     .build_index(path)           run the planned engine, materialize a
//!                                  persistent queryable SccIndex
//! ```
//!
//! [`SccSession::plan`] consults the [`Planner`] wired to the semi-external
//! implementation's actual memory footprint
//! ([`ce_semi_scc::planner_for`]), so the session's decision is exactly the
//! regime test the Ext-SCC driver itself applies; [`SccSession::engine`]
//! overrides it. [`SccSession::build_index`] turns the computation into the
//! *indexing step* of the session: its product is not a throwaway label
//! file but a reopenable [`SccIndex`] artifact answering `component_of` /
//! `same_component` / `component_size` point queries in a bounded number of
//! block reads, all priced in the same logical I/O model as the build.

use std::io;
use std::path::{Path, PathBuf};

use ce_extmem::{DiskEnv, EnvOptions, IoConfig, IoSnapshot};
use ce_graph::algo::{AlgoBudget, AlgoError, SccAlgorithm, SccRun};
use ce_graph::delta::{CompactReport, DeltaBatch, DeltaEngine, DeltaReport};
use ce_graph::labels::condense_counted;
use ce_graph::planner::{Engine, Plan, Planner};
use ce_graph::{EdgeListGraph, SccIndex, SccIndexReader};
use ce_semi_scc::{SemiSccAlgo, SemiSccKind};

/// A deferred graph builder run against the session's environment (the
/// payload of [`GraphSource::Generator`]).
pub type GeneratorFn = Box<dyn FnOnce(&DiskEnv) -> io::Result<EdgeListGraph>>;

/// Where a session's graph comes from.
pub enum GraphSource {
    /// Whitespace-separated `src dst` text file (`#`/`%` comments allowed).
    Text(PathBuf),
    /// Compact `CEG1` binary file (see
    /// [`EdgeListGraph::save_binary`]).
    Binary(PathBuf),
    /// An in-memory edge list over the node universe `0..n_nodes`.
    InMemory {
        /// Number of nodes (`|V|`; must exceed every id used).
        n_nodes: u64,
        /// The edges.
        edges: Vec<(u32, u32)>,
    },
    /// A workload generator (e.g. the closures around
    /// [`ce_graph::gen`]) run against the session's environment.
    Generator(GeneratorFn),
}

impl GraphSource {
    /// Text-file source (see [`GraphSource::Text`]).
    pub fn text(path: impl Into<PathBuf>) -> GraphSource {
        GraphSource::Text(path.into())
    }

    /// Binary-file source (see [`GraphSource::Binary`]).
    pub fn binary(path: impl Into<PathBuf>) -> GraphSource {
        GraphSource::Binary(path.into())
    }

    /// In-memory source (see [`GraphSource::InMemory`]).
    pub fn in_memory(n_nodes: u64, edges: Vec<(u32, u32)>) -> GraphSource {
        GraphSource::InMemory { n_nodes, edges }
    }

    /// Generator source (see [`GraphSource::Generator`]).
    pub fn generator(
        f: impl FnOnce(&DiskEnv) -> io::Result<EdgeListGraph> + 'static,
    ) -> GraphSource {
        GraphSource::Generator(Box::new(f))
    }

    /// Picks [`GraphSource::Binary`] for `.ceg` paths and
    /// [`GraphSource::Text`] otherwise — the CLI's input convention.
    pub fn from_path(path: impl Into<PathBuf>) -> GraphSource {
        let path = path.into();
        if path.extension().is_some_and(|e| e == "ceg") {
            GraphSource::Binary(path)
        } else {
            GraphSource::Text(path)
        }
    }
}

/// Everything [`SccSession::build_index`] produced.
pub struct IndexBuild {
    /// The plan that chose the engine (also printed by `scc plan`).
    pub plan: Plan,
    /// The engine run: label partition plus its logical/physical I/O cost.
    pub run: SccRun,
    /// The reopened artifact, ready for queries; priced in the session's
    /// environment, and cloneable into other threads.
    pub index: SccIndexReader,
    /// Logical I/O spent materializing the artifact (over and above
    /// `run.ios`), including the optional condensation.
    pub build_ios: IoSnapshot,
}

/// A builder-style SCC computation session. See the module docs.
pub struct SccSession {
    env: DiskEnv,
    graph: Option<EdgeListGraph>,
    engine_override: Option<Engine>,
    condense: bool,
    index_path: Option<PathBuf>,
}

impl SccSession {
    /// Opens a session over a fresh temporary scratch environment.
    pub fn open(cfg: IoConfig, opts: EnvOptions) -> io::Result<SccSession> {
        Ok(SccSession::wrap(DiskEnv::new_temp_with(cfg, opts)?))
    }

    /// Opens a session whose scratch space lives in `dir` (kept on exit).
    pub fn open_in(dir: &Path, cfg: IoConfig, opts: EnvOptions) -> io::Result<SccSession> {
        Ok(SccSession::wrap(DiskEnv::new_in_with(dir, cfg, opts)?))
    }

    /// Wraps an existing environment (shared scratch / custom lifecycle).
    pub fn wrap(env: DiskEnv) -> SccSession {
        SccSession {
            env,
            graph: None,
            engine_override: None,
            condense: false,
            index_path: None,
        }
    }

    /// The session's I/O environment (for direct scratch access, stats
    /// snapshots and physical counters).
    pub fn env(&self) -> &DiskEnv {
        &self.env
    }

    /// Loads the graph. Consumes and returns the session so sourcing chains
    /// off [`SccSession::open`].
    pub fn source(mut self, source: GraphSource) -> io::Result<SccSession> {
        let g = match source {
            GraphSource::Text(path) => EdgeListGraph::from_text(&self.env, &path, None)?,
            GraphSource::Binary(path) => EdgeListGraph::open_binary(&self.env, &path)?,
            GraphSource::InMemory { n_nodes, edges } => {
                EdgeListGraph::from_slice(&self.env, n_nodes, &edges)?
            }
            GraphSource::Generator(f) => f(&self.env)?,
        };
        self.graph = Some(g);
        Ok(self)
    }

    /// Forces an engine instead of the planner's choice (the plan's reason
    /// records the override).
    pub fn engine(mut self, engine: Engine) -> SccSession {
        self.engine_override = Some(engine);
        self
    }

    /// Embeds the condensation DAG in the artifact built by
    /// [`SccSession::build_index`] (computed externally, `O(sort(|E|))`).
    pub fn condensation(mut self, yes: bool) -> SccSession {
        self.condense = yes;
        self
    }

    /// The loaded graph, if a source has been set.
    pub fn graph(&self) -> Option<&EdgeListGraph> {
        self.graph.as_ref()
    }

    /// The planner this session consults — wired to the semi-external
    /// implementation's actual memory footprint.
    pub fn planner(&self) -> Planner {
        ce_semi_scc::planner_for(self.env.config())
    }

    /// Plans the run: deterministic engine choice with the reason and the
    /// predicted contraction passes. Costs no I/O beyond the source load.
    pub fn plan(&self) -> io::Result<Plan> {
        let g = self.require_graph()?;
        Ok(self
            .planner()
            .plan_with_override(g.n_nodes(), self.engine_override))
    }

    /// Runs the planned engine and returns the measured run (labels +
    /// logical/physical I/O). Prefer [`SccSession::build_index`] when the
    /// answers should outlive the session.
    pub fn run(&self) -> Result<SccRun, AlgoError> {
        self.run_budgeted(&AlgoBudget::unlimited())
    }

    /// [`SccSession::run`] under a resource budget.
    pub fn run_budgeted(&self, budget: &AlgoBudget) -> Result<SccRun, AlgoError> {
        let plan = self.plan()?;
        let g = self.require_graph()?;
        engine_algorithm(plan.engine).run_budgeted(&self.env, g, budget)
    }

    /// Runs the planned engine and materializes the persistent queryable
    /// [`SccIndex`] at `path` (truncating any previous artifact there), then
    /// reopens it — so the returned index has already survived one
    /// close/reopen round trip including its checksum validation. The path
    /// is remembered as the session's live index, the target of
    /// [`SccSession::apply_delta`] / [`SccSession::compact_index`].
    ///
    /// With [`SccSession::condensation`] enabled the artifact embeds the
    /// **counted** condensation DAG (multiplicity per component edge) — the
    /// form the delta engine requires.
    pub fn build_index(&mut self, path: &Path) -> Result<IndexBuild, AlgoError> {
        let plan = self.plan()?;
        let g = self.require_graph()?;
        let run = engine_algorithm(plan.engine).run(&self.env, g)?;
        let before = self.env.stats().snapshot();
        let dag = if self.condense {
            let _sp = ce_extmem::io_span!(&self.env, "condense", nodes = g.n_nodes());
            Some(condense_counted(&self.env, g, &run.labels)?)
        } else {
            None
        };
        let n_sccs = SccIndex::build(&self.env, path, &run.labels, g.n_nodes(), dag.as_ref())?;
        if n_sccs != run.n_sccs {
            return Err(AlgoError::Io(io::Error::other(format!(
                "index found {n_sccs} components, engine reported {}",
                run.n_sccs
            ))));
        }
        let index = SccIndex::open(&self.env, path)?;
        let build_ios = self.env.stats().snapshot().since(&before);
        self.index_path = Some(path.to_path_buf());
        Ok(IndexBuild {
            plan,
            run,
            index,
            build_ios,
        })
    }

    /// Attaches a pre-existing [`SccIndex`] artifact (built earlier, perhaps
    /// by another process) as the session's live index. Validates it opens
    /// against this session's environment. The session's graph must be the
    /// one the artifact was built from — the delta engine checks the node
    /// universe and re-derives induced subgraphs from it during
    /// re-verification.
    pub fn attach_index(&mut self, path: &Path) -> io::Result<()> {
        SccIndex::open(&self.env, path)?;
        self.index_path = Some(path.to_path_buf());
        Ok(())
    }

    /// The session's live index artifact, if one was built or attached.
    pub fn index_path(&self) -> Option<&Path> {
        self.index_path.as_deref()
    }

    /// Opens the incremental-maintenance engine over the session's live
    /// index (see [`DeltaEngine`]). The open re-validates the artifact and
    /// the journal sidecar; hold the engine across a stream of batches to
    /// pay that once. Requires an index built with
    /// [`SccSession::condensation`] (the CLI flag `--with-condensation`).
    pub fn delta_engine(&self) -> io::Result<DeltaEngine<'_>> {
        let g = self.require_graph()?;
        let path = self.index_path.as_deref().ok_or_else(|| {
            io::Error::other(
                "session has no index: call .build_index(path) or .attach_index(path) first",
            )
        })?;
        DeltaEngine::open(&self.env, g, path)
    }

    /// Applies one [`DeltaBatch`] of edge insertions/deletions to the
    /// session's live index, committing a new crash-safe generation.
    /// Convenience over [`SccSession::delta_engine`] — opens the engine,
    /// applies, drops it (per-batch validation cost; stream through
    /// [`SccSession::delta_engine`] to amortize).
    pub fn apply_delta(&self, batch: &DeltaBatch) -> io::Result<DeltaReport> {
        self.delta_engine()?.apply(batch)
    }

    /// Re-verifies every dirty component of the session's live index (the
    /// explicit form of the lazy re-verification queries perform) and
    /// folds the journal tail into a checkpoint.
    pub fn compact_index(&self) -> io::Result<CompactReport> {
        self.delta_engine()?.compact()
    }

    fn require_graph(&self) -> io::Result<&EdgeListGraph> {
        self.graph
            .as_ref()
            .ok_or_else(|| io::Error::other("session has no source: call .source(...) first"))
    }
}

/// The [`SccAlgorithm`] implementation behind each planner [`Engine`].
pub fn engine_algorithm(engine: Engine) -> Box<dyn SccAlgorithm> {
    match engine {
        Engine::SemiScc => Box::new(SemiSccAlgo::new(SemiSccKind::Coloring)),
        Engine::ExtScc => Box::new(ce_core::ExtSccAlgo::baseline()),
        Engine::ExtSccOp => Box::new(ce_core::ExtSccAlgo::optimized()),
    }
}
