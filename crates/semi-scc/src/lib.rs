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

use ce_extmem::{
    lookup_join_stream, sort_by_key, sort_streaming_by_key, DiskEnv, ExtFile, IoConfig, Record,
    RecordReader, RevRecordReader, SortedSource, SortedStream,
};
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

/// The node universe of a base-case run. Node state is indexed by a node's
/// *dense index* in `0..len()`; the ids themselves stay on disk.
#[derive(Debug, Clone, Copy)]
pub enum NodeSet<'a> {
    /// The universe `0..n`: a node's dense index is its id.
    Dense(u64),
    /// A sorted, duplicate-free node file: a node's dense index is its rank
    /// in the file.
    Sorted(&'a ExtFile<u32>),
}

impl NodeSet<'_> {
    /// Number of nodes.
    pub fn len(&self) -> u64 {
        match self {
            NodeSet::Dense(n) => *n,
            NodeSet::Sorted(file) => file.len(),
        }
    }

    /// True if the set has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
/// budget to decide when contraction may stop. For coloring it is the
/// paper's `M ≥ 4·(2·|V|) + B` check for 1PB-SCC; both algorithms add two
/// blocks for the scan reader and its batch, or the node reader and the
/// label writer.
pub fn mem_required(kind: SemiSccKind, n_nodes: u64, cfg: &IoConfig) -> u64 {
    let per_node: u64 = match kind {
        // `color` and `scc` (2 × u32).
        SemiSccKind::Coloring => 8,
        // Union-find parent and size, tree parent and depth, and the
        // ancestor walk's chain, which can reach every node (5 × u32).
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
    ce_graph::planner::Planner::new(cfg, at(2) - at(1), 2 * at(1) - at(2))
}

/// Computes the SCCs of the graph induced by `nodes` over the on-disk
/// `edges`.
///
/// Every edge endpoint must be a member of `nodes`; a foreign endpoint is an
/// [`io::ErrorKind::InvalidData`] error. Memory holds per-node arrays only
/// ([`mem_required`]): the node ids stay on disk, and the edges are turned
/// into one scan file of dense index pairs. Returns labels sorted by node id;
/// each SCC is labeled by its minimum member id.
pub fn semi_scc(
    env: &DiskEnv,
    kind: SemiSccKind,
    edges: &ExtFile<Edge>,
    nodes: NodeSet<'_>,
) -> io::Result<(ExtFile<SccLabel>, SemiSccReport)> {
    match kind {
        SemiSccKind::Coloring => coloring::coloring_scc(env, edges, nodes),
        SemiSccKind::SpanningTree => sptree::sptree_scc(env, edges, nodes),
    }
}

/// The base case's edges as one scan file of dense index pairs, sorted by
/// the whole pair, plus the direction of the next sweep.
///
/// Sweeps alternate between ascending and descending pair order, which lets
/// relaxations cascade both ways (Bellman-Ford sweeping). The descending
/// order is the same file read backwards. The total order makes the number
/// of sweeps independent of how a sort breaks ties.
pub(crate) struct Sweeps {
    scan: ExtFile<(u32, u32)>,
    backward: bool,
    batch: Vec<(u32, u32)>,
}

/// A sweep's reader: the scan file forward or backward.
enum SweepReader {
    Forward(RecordReader<(u32, u32)>),
    Backward(RevRecordReader<(u32, u32)>),
}

impl Sweeps {
    /// Builds the scan file. Over [`NodeSet::Dense`] it is one sort of the
    /// edges. Over [`NodeSet::Sorted`], each endpoint is replaced by its rank
    /// in a merge join against the node file: sort by destination and join,
    /// then sort by `(source, destination rank)` and join again, which
    /// already yields the scan order.
    pub(crate) fn new(
        env: &DiskEnv,
        edges: &ExtFile<Edge>,
        nodes: NodeSet<'_>,
    ) -> io::Result<Sweeps> {
        let scan = match nodes {
            NodeSet::Dense(n) => {
                let mut foreign = None;
                let pairs = edges.stream()?.map(|e: Edge| {
                    let top = e.src.max(e.dst);
                    if u64::from(top) >= n {
                        foreign.get_or_insert(top);
                    }
                    (e.src, e.dst)
                });
                let scan = sort_by_key(env, pairs, "semi-scan", |&p: &(u32, u32)| p)?;
                if let Some(id) = foreign {
                    return Err(not_in_node_set(format!("edge endpoint {id}")));
                }
                scan
            }
            NodeSet::Sorted(file) => {
                let by_dst = sort_streaming_by_key(env, edges, "semi-by-dst", |e: &Edge| e.dst)?;
                let half = lookup_join_stream(
                    by_dst,
                    |e: &Edge| e.dst,
                    ranked(file)?,
                    |&(v, _): &(u32, u32)| v,
                    |e, (_, d)| (e.src, d),
                )?;
                let by_src = sort_streaming_by_key(env, half, "semi-by-src", |&p: &(u32, u32)| p)?;
                let scan = lookup_join_stream(
                    by_src,
                    |&(s, _): &(u32, u32)| s,
                    ranked(file)?,
                    |&(v, _): &(u32, u32)| v,
                    |(_, d), (_, s)| (s, d),
                )?
                .materialize(env, "semi-scan")?;
                if scan.len() < edges.len() {
                    let lost = edges.len() - scan.len();
                    return Err(not_in_node_set(format!("an endpoint of {lost} edges")));
                }
                scan
            }
        };
        // One block of pairs: with the reader's block, the two blocks
        // `mem_required` charges beyond the node arrays.
        let batch = (env.config().block_size / <(u32, u32)>::SIZE).max(1);
        Ok(Sweeps {
            scan,
            backward: false,
            batch: Vec::with_capacity(batch),
        })
    }

    /// Runs one sweep, in the direction opposite to the previous one,
    /// calling `relax(u, v)` on every edge `(u, v)` of dense indices.
    /// Returns whether any call returned `true`.
    pub(crate) fn sweep(
        &mut self,
        mut relax: impl FnMut(usize, usize) -> bool,
    ) -> io::Result<bool> {
        let mut reader = if self.backward {
            SweepReader::Backward(self.scan.rev_reader()?)
        } else {
            SweepReader::Forward(self.scan.reader()?)
        };
        self.backward = !self.backward;
        let want = self.batch.capacity();
        let mut changed = false;
        loop {
            self.batch.clear();
            let got = match &mut reader {
                SweepReader::Forward(r) => r.next_batch(&mut self.batch, want)?,
                SweepReader::Backward(r) => r.next_batch(&mut self.batch, want)?,
            };
            if got == 0 {
                return Ok(changed);
            }
            for &(u, v) in &self.batch {
                changed |= relax(u as usize, v as usize);
            }
        }
    }
}

/// The node file as `(id, dense index)` pairs.
fn ranked(nodes: &ExtFile<u32>) -> io::Result<impl SortedSource<(u32, u32)>> {
    let mut rank = 0u32;
    Ok(nodes.stream()?.map(move |v| {
        rank += 1;
        (v, rank - 1)
    }))
}

fn not_in_node_set(what: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what} not in node set"),
    )
}

/// Rewrites a dense `scc_of` assignment (each entry an arbitrary member index
/// of the component) so every component is represented by its *minimum*
/// member index — the canonical labeling of the workspace. `min_of` is
/// scratch of the same length, an array the caller no longer needs.
pub(crate) fn normalize_min_rep(scc_of: &mut [u32], min_of: &mut [u32]) {
    min_of.fill(u32::MAX);
    for (i, &root) in scc_of.iter().enumerate() {
        if min_of[root as usize] == u32::MAX {
            min_of[root as usize] = i as u32; // first (= smallest) member seen
        }
    }
    for v in scc_of.iter_mut() {
        *v = min_of[*v as usize];
    }
}

/// Writes the final labels as an [`SccLabel`] file sorted by node id.
/// `scc_of` maps each dense index to its component's minimum member index
/// ([`normalize_min_rep`]); `scratch` is a dead array of the same length.
///
/// Over a node file the ids are streamed. A component's minimum member
/// comes before its other members, so when the stream reaches it, its id
/// goes into its scratch slot, where the later members find it.
pub(crate) fn write_labels(
    env: &DiskEnv,
    nodes: NodeSet<'_>,
    scc_of: &[u32],
    scratch: &mut [u32],
) -> io::Result<ExtFile<SccLabel>> {
    let mut w = env.writer::<SccLabel>("semi-labels")?;
    match nodes {
        NodeSet::Dense(_) => {
            for (i, &rep) in scc_of.iter().enumerate() {
                w.push(SccLabel::new(i as u32, rep))?;
            }
        }
        NodeSet::Sorted(file) => {
            let mut ids = file.reader()?;
            for (i, &rep) in scc_of.iter().enumerate() {
                let id = ids.next()?.ok_or_else(|| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "node file ended early")
                })?;
                if rep == i as u32 {
                    scratch[i] = id;
                }
                w.push(SccLabel::new(id, scratch[rep as usize]))?;
            }
        }
    }
    w.finish()
}

/// [`SccAlgorithm`](ce_graph::algo::SccAlgorithm) adapter: runs a
/// semi-external algorithm directly on the full graph (node universe
/// [`NodeSet::Dense`], edges streamed), inside a `semi` trace span.
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
        let _sp = ce_extmem::io_span!(env, "semi", nodes = g.n_nodes(), edges = g.n_edges());
        let (labels, report) = semi_scc(env, self.kind, g.edges(), NodeSet::Dense(g.n_nodes()))?;
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
        assert_eq!(b - a, 8_000, "two u32 arrays per node");
        assert_eq!(a, 8_000 + 2 * cfg.block_size as u64);
        let s = mem_required(SemiSccKind::SpanningTree, 1000, &cfg);
        assert_eq!(s - a, 12_000, "three more u32 arrays per node");
    }

    #[test]
    fn planner_agrees_with_mem_required_exactly() {
        let cfg = IoConfig::new(512, 8 * 1000 + 1024);
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
        let edges = env.file_from_slice("e", &[Edge::new(2, 9)]).unwrap();
        let err = Sweeps::new(&env, &edges, NodeSet::Dense(5)).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("edge endpoint 9 not in node set"),
            "{err}"
        );

        let nodes = env.file_from_slice("v", &[2u32, 5]).unwrap();
        let err = Sweeps::new(&env, &edges, NodeSet::Sorted(&nodes))
            .err()
            .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not in node set"), "{err}");
    }

    #[test]
    fn sweeps_alternate_direction_over_dense_pairs() {
        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        let edges = env
            .file_from_slice(
                "e",
                &[Edge::new(30, 10), Edge::new(10, 20), Edge::new(10, 10)],
            )
            .unwrap();
        let nodes = env.file_from_slice("v", &[10u32, 20, 30]).unwrap();
        let mut sweeps = Sweeps::new(&env, &edges, NodeSet::Sorted(&nodes)).unwrap();
        let mut seen = Vec::new();
        for _ in 0..2 {
            sweeps
                .sweep(|u, v| {
                    seen.push((u, v));
                    false
                })
                .unwrap();
        }
        let asc = vec![(0, 0), (0, 1), (2, 0)];
        let desc: Vec<_> = asc.iter().rev().copied().collect();
        assert_eq!(seen, [asc, desc].concat());
    }
}
