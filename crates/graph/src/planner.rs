//! The engine planner: which SCC engine should run for a given graph size
//! and memory budget.
//!
//! The paper's regimes are a function of `|V|`, `M` and `B` alone: when the
//! semi-external node state fits in `M`, the 1PB-SCC-style base case
//! ([Semi-SCC](Engine::SemiScc)) solves the graph directly; when it does
//! not, contraction must run first ([Ext-SCC-Op](Engine::ExtSccOp), or the
//! plain [Ext-SCC](Engine::ExtScc) baseline on request). A [`Planner`]
//! encodes that decision deterministically and *explainably*: the returned
//! [`Plan`] carries the chosen [`Engine`], a human-readable reason with the
//! exact byte arithmetic, and the predicted number of contraction passes —
//! so a CLI can print *why* an engine was chosen before spending any I/O.
//!
//! The planner's fit test is parameterized by the semi-external footprint
//! (bytes per node plus a fixed overhead), which [`Planner::new`] takes as
//! arguments. `ce_semi_scc::planner_for(cfg)` is the one place that supplies
//! the coefficients of the workspace's semi-external implementation (8 B per
//! node plus 2 blocks for its coloring base case), so planning and execution
//! cannot drift.

use std::fmt;

use ce_extmem::IoConfig;

/// An SCC engine the planner can select. Variant names match the
/// [`crate::algo::SccAlgorithm::name`] strings of the corresponding
/// implementations, so plans can be checked against conformance-matrix
/// columns by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Semi-external base case: `O(|V|)` words in memory, edges streamed.
    SemiScc,
    /// The paper's plain Ext-SCC (contract + expand, Definition-5.1 order).
    ExtScc,
    /// Ext-SCC-Op: Section-VII node/edge reductions enabled (the default
    /// when contraction is required).
    ExtSccOp,
}

impl Engine {
    /// Display name — identical to the engine's `SccAlgorithm::name()`.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::SemiScc => "Semi-SCC",
            Engine::ExtScc => "Ext-SCC",
            Engine::ExtSccOp => "Ext-SCC-Op",
        }
    }

    /// Parses the CLI spelling (`semi-scc` / `ext-scc` / `ext-scc-op`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "semi-scc" => Some(Engine::SemiScc),
            "ext-scc" => Some(Engine::ExtScc),
            "ext-scc-op" => Some(Engine::ExtSccOp),
            _ => None,
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The planner's explainable decision for one graph.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The engine to run.
    pub engine: Engine,
    /// Why — deterministic prose with the exact byte arithmetic.
    pub reason: String,
    /// Predicted contraction passes before the base case fits (0 when the
    /// graph is solved semi-externally right away). A model estimate —
    /// covers shrink by the paper's expected ≈ 1/3 of nodes per pass — not
    /// a promise.
    ///
    /// This counts *contraction iterations*, not sort passes, so it is
    /// unaffected by the streaming pipeline's last-merge-pass elision
    /// (`ce_extmem::sort`): elision lowers the I/O cost *per* contraction
    /// pass (each fused `sort → join` stage skips one `write + read` of its
    /// intermediate) but never changes how many passes contraction needs.
    pub predicted_passes: u32,
    /// Bytes of semi-external state the whole node set would need.
    pub semi_bytes_needed: u64,
    /// The memory budget the plan was made against.
    pub mem_budget: u64,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "engine: {}", self.engine)?;
        writeln!(f, "reason: {}", self.reason)?;
        write!(f, "predicted contraction passes: {}", self.predicted_passes)
    }
}

/// Iteration cap for the pass predictor — far above any real trajectory
/// (contraction shrinks geometrically), it only bounds degenerate budgets
/// that cannot hold even a 1-node base case.
const MAX_PREDICTED_PASSES: u32 = 64;

/// Deterministic engine selection from `(n_nodes, M, B)`. See the module
/// docs; construct via `ce_semi_scc::planner_for`.
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    cfg: IoConfig,
    semi_bytes_per_node: u64,
    semi_fixed_bytes: u64,
}

impl Planner {
    /// A planner for the given I/O configuration whose semi-external base
    /// case needs `bytes_per_node · n + fixed_bytes` bytes for `n` nodes.
    pub fn new(cfg: IoConfig, bytes_per_node: u64, fixed_bytes: u64) -> Planner {
        Planner {
            cfg,
            semi_bytes_per_node: bytes_per_node,
            semi_fixed_bytes: fixed_bytes,
        }
    }

    /// The I/O configuration plans are made against.
    pub fn config(&self) -> IoConfig {
        self.cfg
    }

    /// Bytes of semi-external state `n_nodes` nodes need.
    pub fn semi_bytes_needed(&self, n_nodes: u64) -> u64 {
        self.semi_bytes_per_node
            .saturating_mul(n_nodes)
            .saturating_add(self.semi_fixed_bytes)
    }

    /// True iff the semi-external base case fits the memory budget for
    /// `n_nodes` nodes — the paper's "all nodes fit in `M`" regime test.
    pub fn fits_semi(&self, n_nodes: u64) -> bool {
        self.semi_bytes_needed(n_nodes) <= self.cfg.mem_budget as u64
    }

    /// Predicted contraction passes until the node set fits, assuming the
    /// expected ≈ 1/3 shrink per pass (0 if it already fits).
    pub fn predicted_passes(&self, n_nodes: u64) -> u32 {
        let mut n = n_nodes;
        let mut passes = 0u32;
        while !self.fits_semi(n) && passes < MAX_PREDICTED_PASSES {
            n = (n * 2).div_ceil(3);
            passes += 1;
        }
        passes
    }

    /// Plans for a graph of `n_nodes` nodes.
    pub fn plan(&self, n_nodes: u64) -> Plan {
        self.plan_with_override(n_nodes, None)
    }

    /// Like [`Planner::plan`], honouring a caller-forced engine: the choice
    /// is replaced but the reason still records the regime arithmetic.
    pub fn plan_with_override(&self, n_nodes: u64, force: Option<Engine>) -> Plan {
        let need = self.semi_bytes_needed(n_nodes);
        let budget = self.cfg.mem_budget as u64;
        let fits = need <= budget;
        let regime = if fits {
            format!(
                "semi-external node state ({need} B for {n_nodes} nodes) fits the {budget} B budget"
            )
        } else {
            format!(
                "semi-external node state ({need} B for {n_nodes} nodes) exceeds the {budget} B budget; contract first"
            )
        };
        let (engine, reason) = match force {
            Some(e) => (e, format!("forced by caller override; {regime}")),
            None if fits => (Engine::SemiScc, regime),
            None => (Engine::ExtSccOp, format!("{regime} (Section-VII reductions on)")),
        };
        let predicted_passes = match engine {
            Engine::SemiScc => 0,
            _ => self.predicted_passes(n_nodes),
        };
        Plan {
            engine,
            reason,
            predicted_passes,
            semi_bytes_needed: need,
            mem_budget: budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8 B per node plus 2 blocks of 512 B, the coloring base case's
    /// footprint.
    fn planner(mem: usize) -> Planner {
        Planner::new(IoConfig::new(512, mem), 8, 1024)
    }

    #[test]
    fn picks_semi_exactly_at_the_fit_boundary() {
        // 8 B/node * 100 + 2 * 512 B = 1824 B.
        let boundary = 8 * 100 + 1024;
        assert_eq!(planner(boundary).plan(100).engine, Engine::SemiScc);
        assert_eq!(planner(boundary - 1).plan(100).engine, Engine::ExtSccOp);
        assert!(planner(boundary).fits_semi(100));
        assert!(!planner(boundary - 1).fits_semi(100));
    }

    #[test]
    fn predicted_passes_shrink_geometrically() {
        let p = planner(8 * 100 + 1024); // fits 100 nodes
        assert_eq!(p.predicted_passes(100), 0);
        assert_eq!(p.predicted_passes(150), 1); // 150 -> 100
        assert!(p.predicted_passes(100_000) >= 2);
        // Degenerate budget: nothing ever fits; the predictor still halts.
        let tiny = planner(1024); // fixed 1024 + 8/node > 1024
        assert_eq!(tiny.predicted_passes(u32::MAX as u64), MAX_PREDICTED_PASSES);
    }

    #[test]
    fn plan_is_explainable_and_deterministic() {
        let plan = planner(4096).plan(1000);
        assert_eq!(plan.engine, Engine::ExtSccOp);
        assert!(plan.reason.contains("exceeds"), "{}", plan.reason);
        assert!(plan.reason.contains("9024 B"), "{}", plan.reason);
        assert_eq!(plan.semi_bytes_needed, 8 * 1000 + 1024);
        assert_eq!(plan.to_string(), planner(4096).plan(1000).to_string());
        assert!(plan.to_string().starts_with("engine: Ext-SCC-Op\nreason: "));
    }

    #[test]
    fn override_wins_but_keeps_the_regime_arithmetic() {
        let plan = planner(1 << 20).plan_with_override(100, Some(Engine::ExtScc));
        assert_eq!(plan.engine, Engine::ExtScc);
        assert!(plan.reason.starts_with("forced by caller override"));
        assert!(plan.reason.contains("fits"), "{}", plan.reason);
        assert_eq!(plan.predicted_passes, 0, "already fits: contraction converges at once");
        let tight = planner(4096).plan_with_override(1000, Some(Engine::ExtScc));
        assert!(tight.predicted_passes >= 1, "forced engine keeps the pass prediction");
    }

    #[test]
    fn engine_names_round_trip() {
        for e in [Engine::SemiScc, Engine::ExtScc, Engine::ExtSccOp] {
            assert_eq!(Engine::parse(&e.name().to_lowercase()), Some(e));
            assert_eq!(e.to_string(), e.name());
        }
        assert_eq!(Engine::parse("auto"), None);
        assert_eq!(Engine::SemiScc.name(), "Semi-SCC");
    }

    #[test]
    fn custom_footprint_changes_the_boundary() {
        let p = Planner::new(IoConfig::new(512, 8 * 100 + 1024), 16, 1024);
        assert!(!p.fits_semi(100), "doubled per-node cost must not fit");
        assert_eq!(p.semi_bytes_needed(100), 16 * 100 + 1024);
    }
}
