//! Semi-external SCC computation.
//!
//! A *semi-external* algorithm may hold `O(|V|)` words in memory but must
//! stream edges from disk (`c·|V| ≤ M < ‖G‖`). The paper uses the 1PB-SCC
//! algorithm of Zhang et al. (SIGMOD'13) as the base case of Ext-SCC once
//! contraction has shrunk the node set enough to fit.
//!
//! This crate provides two interchangeable implementations of that contract:
//!
//! * [`coloring`] — forward–backward coloring with peeling: per round,
//!   propagate maximum node ids forward along edges to a fixpoint, pick the
//!   fixpoint roots, peel their SCCs off with backward propagation. Exact,
//!   simple, and edge passes are strictly sequential scans.
//! * [`sptree`] — a reconstruction of the SIGMOD'13 mechanism: an in-memory
//!   spanning forest with depth-based re-hanging and union-find contraction
//!   of partial SCCs discovered when an edge closes a tree ancestor cycle.
//!
//! Both are validated against in-memory Tarjan on the full test matrix, and
//! either can serve as the Ext-SCC base case (an ablation bench compares
//! them).

pub mod coloring;
pub mod sptree;

use std::io;

use ce_extmem::{DiskEnv, ExtFile, IoConfig};
use ce_graph::types::{Edge, SccLabel};

/// Which semi-external algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SemiSccKind {
    /// Forward–backward coloring with peeling (default).
    #[default]
    Coloring,
    /// Spanning-forest + union-find contraction (1PB-SCC-style).
    SpanningTree,
}

impl SemiSccKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SemiSccKind::Coloring => "coloring",
            SemiSccKind::SpanningTree => "sptree",
        }
    }
}

/// Counters describing one semi-external run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiSccReport {
    /// Sequential edge-file passes performed.
    pub edge_passes: u64,
    /// Peeling rounds (coloring) or contraction rounds (sptree).
    pub rounds: u64,
    /// Number of SCCs found.
    pub n_sccs: u64,
}

/// Bytes of main memory the given algorithm needs for `n` nodes under block
/// size `B` — the quantity the Ext-SCC driver compares against the memory
/// budget to decide when contraction may stop (the paper's
/// `M ≥ 4·(2·|V|) + B` check for 1PB-SCC, instantiated for our
/// implementations).
pub fn mem_required(kind: SemiSccKind, n_nodes: u64, cfg: &IoConfig) -> u64 {
    let per_node: u64 = match kind {
        // node-id table + color + scc arrays (3 × u32) + slack.
        SemiSccKind::Coloring => 16,
        // node-id table + parent + depth + union-find (4 × u32) + slack.
        SemiSccKind::SpanningTree => 20,
    };
    per_node * n_nodes + 2 * cfg.block_size as u64
}

/// An engine [`Planner`](ce_graph::planner::Planner) whose semi-external
/// fit test is wired to this crate's *actual* memory footprint
/// ([`mem_required`] for the [`SemiSccKind::Coloring`] base case), so
/// planning and execution cannot drift: the planner picks Semi-SCC exactly
/// when [`mem_required`] says the node array fits the budget.
pub fn planner_for(cfg: IoConfig) -> ce_graph::planner::Planner {
    let at = |n: u64| mem_required(SemiSccKind::Coloring, n, &cfg);
    ce_graph::planner::Planner::new(cfg).with_semi_footprint(at(2) - at(1), 2 * at(1) - at(2))
}

/// Computes the SCCs of the graph induced by `nodes` (sorted ascending,
/// in-memory per the semi-external contract) over the on-disk `edges`.
///
/// Every edge endpoint must be a member of `nodes`. Returns labels sorted by
/// node id; each SCC is labeled by its minimum member id.
pub fn semi_scc(
    env: &DiskEnv,
    kind: SemiSccKind,
    edges: &ExtFile<Edge>,
    nodes: &[u32],
) -> io::Result<(ExtFile<SccLabel>, SemiSccReport)> {
    match kind {
        SemiSccKind::Coloring => coloring::coloring_scc(env, edges, nodes),
        SemiSccKind::SpanningTree => sptree::sptree_scc(env, edges, nodes),
    }
}

/// Streams `edges` remapped onto dense indices `0..nodes.len()` via binary
/// search over the sorted `nodes` slice. Shared by both algorithms, which
/// feed it straight into their scan-order sorts' run formation — the
/// remapped edge list is never materialized (a fallible map, implemented as
/// a custom [`SortedStream`](ce_extmem::SortedStream) so unknown endpoints
/// still surface as errors mid-stream).
pub(crate) struct RemapStream<'a> {
    inner: ce_extmem::FileStream<Edge>,
    nodes: &'a [u32],
    scratch: Vec<Edge>,
}

pub(crate) fn remap_stream<'a>(
    edges: &ExtFile<Edge>,
    nodes: &'a [u32],
) -> io::Result<RemapStream<'a>> {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must be sorted unique");
    Ok(RemapStream {
        inner: edges.stream()?,
        nodes,
        scratch: Vec::new(),
    })
}

/// Dense index of `id` in the sorted `nodes` slice, or an error naming the
/// foreign endpoint.
fn dense(nodes: &[u32], id: u32) -> io::Result<u32> {
    nodes.binary_search(&id).map(|i| i as u32).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("edge endpoint {id} not in node set"),
        )
    })
}

impl ce_extmem::SortedStream<(u32, u32)> for RemapStream<'_> {
    fn next(&mut self) -> io::Result<Option<(u32, u32)>> {
        match self.inner.next()? {
            Some(e) => Ok(Some((dense(self.nodes, e.src)?, dense(self.nodes, e.dst)?))),
            None => Ok(None),
        }
    }

    fn next_batch(&mut self, buf: &mut Vec<(u32, u32)>, n: usize) -> io::Result<usize> {
        self.scratch.clear();
        let got = self.inner.next_batch(&mut self.scratch, n)?;
        buf.reserve(got);
        for e in &self.scratch {
            buf.push((dense(self.nodes, e.src)?, dense(self.nodes, e.dst)?));
        }
        Ok(got)
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

impl<'a> ce_extmem::SortedSource<(u32, u32)> for RemapStream<'a> {
    type Stream = RemapStream<'a>;

    fn open_sorted(self) -> io::Result<Self> {
        Ok(self)
    }
}

/// Rewrites a dense `scc_of` assignment (each entry an arbitrary member index
/// of the component) so every component is represented by its *minimum*
/// member index — the canonical labeling of the workspace.
pub(crate) fn normalize_min_rep(scc_of: &mut [u32]) {
    let n = scc_of.len();
    let mut min_of = vec![u32::MAX; n];
    for (i, &root) in scc_of.iter().enumerate() {
        if min_of[root as usize] == u32::MAX {
            min_of[root as usize] = i as u32; // first (= smallest) member seen
        }
    }
    for v in scc_of.iter_mut() {
        *v = min_of[*v as usize];
    }
}

/// Writes the final labels (dense `scc_of` array over `nodes`) as an
/// [`SccLabel`] file sorted by original node id, translating dense component
/// indices back to original representative ids.
pub(crate) fn write_labels(
    env: &DiskEnv,
    nodes: &[u32],
    scc_of: &[u32],
) -> io::Result<ExtFile<SccLabel>> {
    let mut w = env.writer::<SccLabel>("semi-labels")?;
    for (i, &node) in nodes.iter().enumerate() {
        let rep = nodes[scc_of[i] as usize];
        w.push(SccLabel::new(node, rep))?;
    }
    w.finish()
}

/// [`SccAlgorithm`](ce_graph::algo::SccAlgorithm) adapter: runs a
/// semi-external algorithm directly on the
/// full graph (node universe `0..n` held in memory, edges streamed).
///
/// This is the base case of Ext-SCC promoted to a standalone engine — the
/// configuration the paper evaluates when `M ≥ c·|V|`. Budgets are ignored:
/// the underlying passes have no abort hooks (runs are a handful of
/// sequential scans).
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiSccAlgo {
    kind: SemiSccKind,
}

impl SemiSccAlgo {
    /// Wraps the given semi-external variant.
    pub fn new(kind: SemiSccKind) -> SemiSccAlgo {
        SemiSccAlgo { kind }
    }

    /// The wrapped variant.
    pub fn kind(&self) -> SemiSccKind {
        self.kind
    }
}

impl ce_graph::algo::SccAlgorithm for SemiSccAlgo {
    fn name(&self) -> &'static str {
        match self.kind {
            SemiSccKind::Coloring => "Semi-SCC",
            SemiSccKind::SpanningTree => "Semi-SCC-SpTree",
        }
    }

    fn solve(
        &self,
        env: &DiskEnv,
        g: &ce_graph::EdgeListGraph,
        _budget: &ce_graph::algo::AlgoBudget,
    ) -> Result<ce_graph::algo::SccSolution, ce_graph::algo::AlgoError> {
        let nodes: Vec<u32> = (0..g.n_nodes() as u32).collect();
        let (labels, report) = semi_scc(env, self.kind, g.edges(), &nodes)?;
        Ok(ce_graph::algo::SccSolution {
            labels,
            n_sccs: report.n_sccs,
            iterations: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_graph::algo::SccAlgorithm;

    #[test]
    fn algo_adapter_runs_both_kinds() {
        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        let g = ce_graph::gen::disjoint_cycles(&env, &[4, 6]).unwrap();
        for kind in [SemiSccKind::Coloring, SemiSccKind::SpanningTree] {
            let run = SemiSccAlgo::new(kind).run(&env, &g).unwrap();
            assert_eq!(run.n_sccs, 2, "{}", SemiSccAlgo::new(kind).name());
            assert!(run.labeling(g.n_nodes()).unwrap().reps_are_members());
        }
        assert_eq!(SemiSccAlgo::default().name(), "Semi-SCC");
    }

    #[test]
    fn mem_required_scales_linearly() {
        let cfg = IoConfig::small_for_tests();
        let a = mem_required(SemiSccKind::Coloring, 1000, &cfg);
        let b = mem_required(SemiSccKind::Coloring, 2000, &cfg);
        assert_eq!(b - a, 16_000);
        assert!(mem_required(SemiSccKind::SpanningTree, 1000, &cfg) > a);
    }

    #[test]
    fn planner_agrees_with_mem_required_exactly() {
        let cfg = IoConfig::new(512, 16 * 1000 + 1024);
        let p = planner_for(cfg);
        for n in [1u64, 2, 999, 1000, 1001, 50_000] {
            assert_eq!(
                p.fits_semi(n),
                mem_required(SemiSccKind::Coloring, n, &cfg) <= cfg.mem_budget as u64,
                "fit test drifted from mem_required at n = {n}"
            );
        }
        assert_eq!(p.plan(1000).engine, ce_graph::planner::Engine::SemiScc);
        assert_eq!(p.plan(1001).engine, ce_graph::planner::Engine::ExtSccOp);
    }

    #[test]
    fn kind_names() {
        assert_eq!(SemiSccKind::Coloring.name(), "coloring");
        assert_eq!(SemiSccKind::SpanningTree.name(), "sptree");
        assert_eq!(SemiSccKind::default(), SemiSccKind::Coloring);
    }

    #[test]
    fn remap_rejects_foreign_endpoints() {
        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        let edges = env
            .file_from_slice("e", &[Edge::new(2, 9)])
            .unwrap();
        let err = ce_extmem::SortedStream::count(remap_stream(&edges, &[2, 5]).unwrap()).unwrap_err();
        assert!(err.to_string().contains("not in node set"));
    }
}
