//! Algorithm 2 — the Ext-SCC driver: contract until the node set fits in
//! memory, solve the base case semi-externally, expand back out.

use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use ce_extmem::{anti_join, io_span, sort_dedup_streaming_by_key, DiskEnv, ExtFile, IoSnapshot};
use ce_graph::types::SccLabel;
use ce_graph::EdgeListGraph;
use ce_semi_scc::{mem_required, semi_scc, NodeSet, SemiSccKind, SemiSccReport};

use crate::expand::{expand, LevelFiles};
use crate::get_e::{get_e, GetEOptions};
use crate::get_v::{get_v, GetVOptions};
use crate::ops::build_orders;
use crate::order::OrderKind;

/// Complete configuration of an Ext-SCC run. Use [`ExtSccConfig::baseline`]
/// for the paper's Ext-SCC and [`ExtSccConfig::optimized`] for Ext-SCC-Op;
/// individual flags can be toggled for ablations.
#[derive(Debug, Clone)]
pub struct ExtSccConfig {
    /// The `>` operator (Definition 5.1 vs 7.1).
    pub order: OrderKind,
    /// Type-1 node reduction (drop sources/sinks from the cover).
    pub type1: bool,
    /// Type-2 dictionary capacity in entries; 0 disables, `None` derives a
    /// capacity from the memory budget (budget/64 bytes-per-entry estimate).
    pub type2_capacity: Option<usize>,
    /// Lazy parallel-edge elimination when building each iteration's orders.
    pub lazy_dedup: bool,
    /// Drop bypass self-loops.
    pub drop_self_loops: bool,
    /// Semi-external algorithm for the base case.
    pub semi: SemiSccKind,
    /// Hard cap on contraction iterations (defensive; the paper's cover
    /// construction removes at least one node per iteration).
    pub max_iterations: usize,
    /// Abort the run after this much wall time (the paper's 24h budget).
    pub deadline: Option<Duration>,
    /// Abort after this many block I/Os.
    pub io_limit: Option<u64>,
    /// If `|E_i|` exceeds this multiple of `|E_1|` in a non-dedup run, force
    /// deduplication from then on (robustness valve, reported in the
    /// [`RunReport`]). `None` disables the valve.
    pub edge_blowup_guard: Option<f64>,
}

impl ExtSccConfig {
    /// The paper's plain Ext-SCC (Algorithms 2–5, Definition-5.1 order, no
    /// Section-VII *node* reductions).
    ///
    /// Parallel-edge and self-loop elimination are enabled here too: the
    /// paper's own baseline walkthrough (Example 5.1, "G2 has 9 nodes and 14
    /// edges by removing parallel edges and self circles") performs them, and
    /// without them the contraction provably cannot terminate on some inputs
    /// (a self-loop pins its node in every subsequent cover). The ablation
    /// benches expose configurations with them disabled.
    pub fn baseline() -> ExtSccConfig {
        ExtSccConfig {
            order: OrderKind::Degree,
            type1: false,
            type2_capacity: Some(0),
            lazy_dedup: true,
            drop_self_loops: true,
            semi: SemiSccKind::Coloring,
            max_iterations: 256,
            deadline: None,
            io_limit: None,
            edge_blowup_guard: Some(64.0),
        }
    }

    /// Ext-SCC-Op: Section-VII node reductions (Type-1 and Type-2) plus the
    /// Definition-7.1 `>` operator on top of [`ExtSccConfig::baseline`].
    pub fn optimized() -> ExtSccConfig {
        ExtSccConfig {
            order: OrderKind::DegreeProduct,
            type1: true,
            type2_capacity: None,
            lazy_dedup: true,
            drop_self_loops: true,
            semi: SemiSccKind::Coloring,
            max_iterations: 256,
            deadline: None,
            io_limit: None,
            edge_blowup_guard: Some(64.0),
        }
    }
}

/// Errors an Ext-SCC run can surface.
#[derive(Debug)]
pub enum ExtSccError {
    /// Underlying I/O failure (including injected faults).
    Io(io::Error),
    /// The memory budget cannot even hold the base case of a 2-node graph.
    MemoryTooSmall {
        /// Configured budget in bytes.
        budget: u64,
        /// Minimum bytes required.
        needed: u64,
    },
    /// Contraction did not reach the fit threshold within the iteration cap.
    IterationLimit {
        /// Iterations performed.
        iterations: usize,
        /// Nodes still above the threshold.
        remaining_nodes: u64,
    },
    /// Wall-clock deadline exceeded (reported as INF in the paper's plots).
    DeadlineExceeded {
        /// Time spent before giving up.
        elapsed: Duration,
    },
    /// I/O budget exceeded.
    IoLimitExceeded {
        /// Block I/Os consumed before giving up.
        ios: u64,
    },
    /// The cover failed to shrink the node set (cannot happen per Lemma 5.2;
    /// kept as a defensive invariant check).
    Stalled {
        /// Contraction level at which progress stopped.
        level: usize,
    },
}

impl fmt::Display for ExtSccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtSccError::Io(e) => write!(f, "I/O error: {e}"),
            ExtSccError::MemoryTooSmall { budget, needed } => {
                write!(f, "memory budget {budget} B below the {needed} B base-case minimum")
            }
            ExtSccError::IterationLimit {
                iterations,
                remaining_nodes,
            } => write!(
                f,
                "contraction did not converge after {iterations} iterations ({remaining_nodes} nodes left)"
            ),
            ExtSccError::DeadlineExceeded { elapsed } => {
                write!(f, "deadline exceeded after {elapsed:?} (INF)")
            }
            ExtSccError::IoLimitExceeded { ios } => {
                write!(f, "I/O limit exceeded after {ios} block transfers (INF)")
            }
            ExtSccError::Stalled { level } => {
                write!(f, "cover did not shrink the graph at level {level}")
            }
        }
    }
}

impl std::error::Error for ExtSccError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtSccError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ExtSccError {
    fn from(e: io::Error) -> Self {
        ExtSccError::Io(e)
    }
}

/// Per-contraction-iteration statistics — the `|V_i|`, `|E_i|` trajectory the
/// paper discusses in Sections V and VII.
#[derive(Debug, Clone, Copy)]
pub struct IterationStats {
    /// Contraction level `i` (1-based; `G_1 = G`).
    pub level: usize,
    /// `|V_i|`.
    pub n_nodes: u64,
    /// `|E_i|` (after lazy dedup, if enabled).
    pub n_edges: u64,
    /// `|V_{i+1}|` (cover size).
    pub cover_size: u64,
    /// Nodes removed this iteration.
    pub removed: u64,
    /// Preserved edges `|E_pre|`.
    pub edges_pre: u64,
    /// Bypass edges `|E_add|`.
    pub edges_add: u64,
    /// Type-2 dictionary skips.
    pub type2_skips: u64,
    /// Block I/Os consumed by this iteration.
    pub ios: IoSnapshot,
    /// Wall time of this iteration.
    pub wall: Duration,
}

/// Statistics of one expansion step.
#[derive(Debug, Clone, Copy)]
pub struct ExpansionStats {
    /// Level being re-expanded (matches the contraction level).
    pub level: usize,
    /// Removed nodes labelled.
    pub removed: u64,
    /// Singleton SCCs discovered.
    pub singletons: u64,
    /// Block I/Os consumed.
    pub ios: IoSnapshot,
    /// Wall time.
    pub wall: Duration,
}

/// Full report of one Ext-SCC run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// One entry per contraction iteration, in order.
    pub contraction: Vec<IterationStats>,
    /// Base-case node count handed to the semi-external algorithm.
    pub base_nodes: u64,
    /// Base-case edge count.
    pub base_edges: u64,
    /// Semi-external algorithm counters.
    pub semi: SemiSccReport,
    /// I/Os of the base case.
    pub semi_ios: IoSnapshot,
    /// Wall time of the base case.
    pub semi_wall: Duration,
    /// One entry per expansion step, in order (deepest level first).
    pub expansion: Vec<ExpansionStats>,
    /// Total I/Os of the run.
    pub total_ios: IoSnapshot,
    /// Total wall time.
    pub total_wall: Duration,
    /// Number of SCCs in the final labeling.
    pub n_sccs: u64,
    /// True if the edge-blowup valve forced deduplication mid-run.
    pub forced_dedup: bool,
}

impl RunReport {
    /// Contraction iterations performed.
    pub fn iterations(&self) -> usize {
        self.contraction.len()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ext-SCC run: {} iterations, {} SCCs, {} I/Os, {:.2?}",
            self.iterations(),
            self.n_sccs,
            self.total_ios.total_ios(),
            self.total_wall
        )?;
        writeln!(
            f,
            "  {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}",
            "level", "|V_i|", "|E_i|", "|V_i+1|", "E_pre", "E_add", "I/Os"
        )?;
        for it in &self.contraction {
            writeln!(
                f,
                "  {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}",
                it.level,
                it.n_nodes,
                it.n_edges,
                it.cover_size,
                it.edges_pre,
                it.edges_add,
                it.ios.total_ios()
            )?;
        }
        writeln!(
            f,
            "  base case: {} nodes, {} edges, {} passes, {} I/Os ({})",
            self.base_nodes,
            self.base_edges,
            self.semi.edge_passes,
            self.semi_ios.total_ios(),
            if self.forced_dedup { "forced dedup" } else { "ok" }
        )?;
        for ex in &self.expansion {
            writeln!(
                f,
                "  expand level {}: {} removed, {} singletons, {} I/Os",
                ex.level,
                ex.removed,
                ex.singletons,
                ex.ios.total_ios()
            )?;
        }
        Ok(())
    }
}

/// Result of a successful run: the labels (sorted by node, one record per
/// node of the input graph) plus the full report.
#[derive(Debug)]
pub struct SccOutput {
    /// `SCC(v)` for every `v ∈ V(G)`, sorted by node id.
    pub labels: ExtFile<SccLabel>,
    /// Run statistics.
    pub report: RunReport,
}

/// The contraction–expansion SCC solver (Algorithm 2).
#[derive(Debug, Clone)]
pub struct ExtScc {
    env: DiskEnv,
    cfg: ExtSccConfig,
}

struct Level {
    files: LevelFiles,
}

impl ExtScc {
    /// Creates a solver bound to a disk environment.
    pub fn new(env: &DiskEnv, cfg: ExtSccConfig) -> ExtScc {
        ExtScc {
            env: env.clone(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExtSccConfig {
        &self.cfg
    }

    fn type2_capacity(&self) -> usize {
        match self.cfg.type2_capacity {
            Some(c) => c,
            None => (self.env.config().mem_budget / 64).clamp(1024, 1 << 22),
        }
    }

    fn check_limits(&self, start: Instant, io0: &IoSnapshot) -> Result<(), ExtSccError> {
        if let Some(deadline) = self.cfg.deadline {
            let elapsed = start.elapsed();
            if elapsed > deadline {
                return Err(ExtSccError::DeadlineExceeded { elapsed });
            }
        }
        if let Some(limit) = self.cfg.io_limit {
            let ios = self.env.stats().snapshot().since(io0).total_ios();
            if ios > limit {
                return Err(ExtSccError::IoLimitExceeded { ios });
            }
        }
        Ok(())
    }

    /// Computes all SCCs of `g`.
    pub fn run(&self, g: &EdgeListGraph) -> Result<SccOutput, ExtSccError> {
        let env = &self.env;
        let io_cfg = env.config();
        let budget = io_cfg.mem_budget as u64;
        let start = Instant::now();
        let io0 = env.stats().snapshot();
        // Root of the trace tree; declared first so it closes (and reports
        // the whole run's counter deltas) after every phase span below.
        let _run_span = io_span!(env, "run", nodes = g.n_nodes(), edges = g.n_edges());

        if mem_required(self.cfg.semi, 2, &io_cfg) > budget {
            return Err(ExtSccError::MemoryTooSmall {
                budget,
                needed: mem_required(self.cfg.semi, 2, &io_cfg),
            });
        }

        let gv_opts = GetVOptions {
            order: self.cfg.order,
            type1: self.cfg.type1,
            type2_capacity: self.type2_capacity(),
        };
        let ge_opts = GetEOptions {
            filter_endpoints: self.cfg.type1,
            drop_self_loops: self.cfg.drop_self_loops,
        };

        // G_1 = G. V_1 is the full universe 0..n; it is written to disk only
        // if the first iteration needs it for the removed-node anti-join.
        let mut cur_edges = g.edges().clone();
        let mut cur_nodes: Option<ExtFile<u32>> = None;
        let mut n_cur = g.n_nodes();
        let e1 = g.n_edges().max(1);

        let mut levels: Vec<Level> = Vec::new();
        let mut contraction: Vec<IterationStats> = Vec::new();
        let mut forced_dedup = false;

        // Graph contraction (Algorithm 2 lines 2-4).
        while mem_required(self.cfg.semi, n_cur, &io_cfg) > budget {
            self.check_limits(start, &io0)?;
            if levels.len() >= self.cfg.max_iterations {
                return Err(ExtSccError::IterationLimit {
                    iterations: levels.len(),
                    remaining_nodes: n_cur,
                });
            }
            let it_io = env.stats().snapshot();
            let it_t = Instant::now();
            let _sp = io_span!(env, "iter", level = levels.len() + 1, nodes = n_cur);

            let mut lazy = self.cfg.lazy_dedup;
            if let Some(guard) = self.cfg.edge_blowup_guard {
                if !lazy && cur_edges.len() as f64 > guard * e1 as f64 {
                    lazy = true;
                    forced_dedup = true;
                }
            }
            let orders = build_orders(env, &cur_edges, lazy)?;
            drop(cur_edges);
            let (cover, cover_stats) = get_v(env, &orders, &gv_opts)?;
            if cover.len() >= n_cur {
                return Err(ExtSccError::Stalled {
                    level: levels.len() + 1,
                });
            }
            let removed = {
                let _sp = io_span!(env, "removed");
                let nodes = match cur_nodes.take() {
                    Some(f) => f,
                    None => {
                        let mut w = env.writer::<u32>("v1")?;
                        for v in 0..n_cur {
                            w.push(v as u32)?;
                        }
                        w.finish()?
                    }
                };
                anti_join(env, "removed", &nodes, |&v| v, &cover, |&v| v)?
            };
            let ge = get_e(env, &orders, &cover, &ge_opts)?;

            contraction.push(IterationStats {
                level: levels.len() + 1,
                n_nodes: n_cur,
                n_edges: orders.n_edges,
                cover_size: cover.len(),
                removed: removed.len(),
                edges_pre: ge.n_pre,
                edges_add: ge.n_add,
                type2_skips: cover_stats.type2_skips,
                ios: env.stats().snapshot().since(&it_io),
                wall: it_t.elapsed(),
            });
            levels.push(Level {
                files: LevelFiles {
                    removed,
                    edel_in: ge.edel_in,
                    odel: ge.odel,
                },
            });
            n_cur = cover.len();
            cur_nodes = Some(cover);
            cur_edges = ge.edges;
        }

        // Semi-external base case (line 5).
        self.check_limits(start, &io0)?;
        let semi_io = env.stats().snapshot();
        let semi_t = Instant::now();
        let base_edges = cur_edges.len();
        let (mut scc_cur, semi_report) = {
            let _sp = io_span!(env, "semi", nodes = n_cur, edges = base_edges);
            ce_obs::metrics::gauge_set("semi.base_nodes", n_cur);
            let nodes = match &cur_nodes {
                None => NodeSet::Dense(n_cur),
                Some(f) => NodeSet::Sorted(f),
            };
            let out = semi_scc(env, self.cfg.semi, &cur_edges, nodes)?;
            drop(cur_edges);
            out
        };
        let semi_ios = env.stats().snapshot().since(&semi_io);
        let semi_wall = semi_t.elapsed();

        // Graph expansion (lines 6-9).
        let mut expansion: Vec<ExpansionStats> = Vec::new();
        for (idx, level) in levels.iter().enumerate().rev() {
            self.check_limits(start, &io0)?;
            let ex_io = env.stats().snapshot();
            let ex_t = Instant::now();
            let _sp = io_span!(env, "expand", level = idx + 1);
            let (next, counts) = expand(env, &level.files, &scc_cur)?;
            scc_cur = next;
            expansion.push(ExpansionStats {
                level: idx + 1,
                removed: counts.removed,
                singletons: counts.singletons,
                ios: env.stats().snapshot().since(&ex_io),
                wall: ex_t.elapsed(),
            });
        }

        // Count distinct SCCs: sort the |V| label records by SCC id but
        // leave the final merge streaming — the count consumes the merged
        // run heads directly, so no deduplicated file is ever written.
        let n_sccs = {
            let _sp = io_span!(env, "count_sccs");
            sort_dedup_streaming_by_key(env, &scc_cur, "scc-ids", |l: &SccLabel| l.scc)?.count()?
        };

        let report = RunReport {
            contraction,
            base_nodes: n_cur,
            base_edges,
            semi: semi_report,
            semi_ios,
            semi_wall,
            expansion,
            total_ios: env.stats().snapshot().since(&io0),
            total_wall: start.elapsed(),
            n_sccs,
            forced_dedup,
        };
        Ok(SccOutput {
            labels: scc_cur,
            report,
        })
    }
}
