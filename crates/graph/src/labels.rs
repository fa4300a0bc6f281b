//! Utilities over SCC labelings: canonical forms, partition comparison,
//! histograms and condensation (the SCC-contracted DAG).

use std::collections::HashMap;
use std::io;

use ce_extmem::{
    lookup_join_stream, sort_dedup_by_key, sort_streaming_by_key, DiskEnv, ExtFile, SortedSource,
    SortedStream,
};

use crate::types::{Edge, NodeId, SccLabel};

/// A complete SCC labeling of a graph, held in memory. External algorithms
/// produce an `ExtFile<SccLabel>` sorted by node; this type loads it for
/// inspection, verification, and downstream in-memory processing
/// (condensation, histograms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccLabeling {
    /// `rep[v]` = representative id of the SCC containing `v`.
    pub rep: Vec<NodeId>,
}

impl SccLabeling {
    /// Loads a labeling from a label file sorted by node id; the file must
    /// cover exactly the nodes `0..n`.
    pub fn from_file(file: &ExtFile<SccLabel>, n_nodes: u64) -> io::Result<SccLabeling> {
        if file.len() != n_nodes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "label file covers {} nodes, graph has {}",
                    file.len(),
                    n_nodes
                ),
            ));
        }
        let mut rep = vec![NodeId::MAX; n_nodes as usize];
        let mut r = file.reader()?;
        let mut expected = 0u64;
        while let Some(l) = r.next()? {
            if l.node as u64 != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("label file not dense/sorted at node {}", l.node),
                ));
            }
            rep[l.node as usize] = l.scc;
            expected += 1;
        }
        Ok(SccLabeling { rep })
    }

    /// Builds a labeling from a dense representative vector.
    pub fn from_reps(rep: Vec<NodeId>) -> SccLabeling {
        SccLabeling { rep }
    }

    /// Number of distinct SCCs.
    pub fn n_sccs(&self) -> usize {
        let mut reps: Vec<NodeId> = self.rep.clone();
        reps.sort_unstable();
        reps.dedup();
        reps.len()
    }

    /// Histogram of component sizes, sorted descending.
    pub fn size_histogram(&self) -> Vec<u64> {
        let mut sizes: HashMap<NodeId, u64> = HashMap::new();
        for &r in &self.rep {
            *sizes.entry(r).or_insert(0) += 1;
        }
        let mut v: Vec<u64> = sizes.into_values().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// True if every node's representative is a member of the node's own
    /// component (a self-consistency check: `rep[rep[v]] == rep[v]`).
    pub fn reps_are_members(&self) -> bool {
        self.rep
            .iter()
            .all(|&r| (r as usize) < self.rep.len() && self.rep[r as usize] == r)
    }

    /// Builds the condensation: a DAG whose nodes are the SCC representatives
    /// (renumbered densely) plus the quotient edge set (deduplicated,
    /// self-loops dropped). Returns `(n_components, mapping node→component,
    /// quotient edges)`.
    pub fn condense(&self, edges: &[Edge]) -> (usize, Vec<u32>, Vec<Edge>) {
        let mut dense: HashMap<NodeId, u32> = HashMap::new();
        let mut comp = vec![0u32; self.rep.len()];
        for (v, &r) in self.rep.iter().enumerate() {
            let next = dense.len() as u32;
            let id = *dense.entry(r).or_insert(next);
            comp[v] = id;
        }
        let mut q: Vec<Edge> = edges
            .iter()
            .filter_map(|e| {
                let (a, b) = (comp[e.src as usize], comp[e.dst as usize]);
                (a != b).then_some(Edge::new(a, b))
            })
            .collect();
        q.sort_unstable();
        q.dedup();
        (dense.len(), comp, q)
    }
}

/// The quotient both condensation builders share: two sort + lookup-join
/// passes map each edge's source, then its destination, to its component
/// representative, and intra-component edges are dropped. The surviving
/// edges stream into the caller's final sort; `tag` prefixes the scratch
/// file names.
fn quotient_edges(
    env: &DiskEnv,
    g: &crate::edgelist::EdgeListGraph,
    labels: &ExtFile<SccLabel>,
    tag: &str,
) -> io::Result<impl SortedSource<Edge>> {
    let by_src = sort_streaming_by_key(env, g.edges(), &format!("{tag}-by-src"), |e: &Edge| e.src)?;
    let src_mapped = lookup_join_stream(
        by_src,
        |e| e.src,
        labels,
        |l| l.node,
        |e: Edge, l: SccLabel| Edge::new(l.scc, e.dst),
    )?;
    let by_dst =
        sort_streaming_by_key(env, src_mapped, &format!("{tag}-by-dst"), |e: &Edge| e.dst)?;
    let both_mapped = lookup_join_stream(
        by_dst,
        |e| e.dst,
        labels,
        |l| l.node,
        |e: Edge, l: SccLabel| Edge::new(e.src, l.scc),
    )?;
    Ok(both_mapped.filter(|e| !e.is_loop()))
}

/// Builds the condensation DAG **externally**: quotient every edge through
/// the label file with two sort+merge-join passes, drop intra-component
/// edges, and deduplicate — `O(sort(|E|))` I/Os, no in-memory node state.
///
/// This is the preprocessing step the paper's motivating applications
/// (reachability indexing, topological sorting, bisimulation) run at scale:
/// after it, the condensation is usually small enough to process in memory.
///
/// Component ids in the output are the *representative node ids* from
/// `labels` (sparse within `0..n_nodes`); the node universe is unchanged.
pub fn condense_external(
    env: &DiskEnv,
    g: &crate::edgelist::EdgeListGraph,
    labels: &ExtFile<SccLabel>,
) -> io::Result<crate::edgelist::EdgeListGraph> {
    // One fused chain: the quotient streams into run formation of the
    // final dedup sort — only the result file is materialized.
    let clean = quotient_edges(env, g, labels, "cond")?;
    let deduped = sort_dedup_by_key(env, clean, "cond-edges", Edge::by_src)?;
    Ok(crate::edgelist::EdgeListGraph::new(deduped, g.n_nodes()))
}

/// [`condense_external`] with multiplicities: same two-pass quotient, but
/// instead of deduplicating parallel condensation edges it run-length
/// counts them, yielding one [`crate::CountedEdge`] per distinct `(src, dst)`
/// component pair whose `count` is the number of base-graph edge instances
/// crossing it. This is the form the index stores for the delta engine
/// ([`crate::delta`]): a cross-component deletion decrements the count and
/// only drops the condensation edge when the last supporting base edge is
/// gone. `O(sort(|E|))` I/Os, no in-memory node state.
pub fn condense_counted(
    env: &DiskEnv,
    g: &crate::edgelist::EdgeListGraph,
    labels: &ExtFile<SccLabel>,
) -> io::Result<ExtFile<crate::types::CountedEdge>> {
    let clean = quotient_edges(env, g, labels, "condc")?;
    let mut sorted =
        sort_streaming_by_key(env, clean, "condc-edges", Edge::by_src)?.into_stream()?;
    let mut w = env.writer::<crate::types::CountedEdge>("condc-counted")?;
    let mut current: Option<crate::types::CountedEdge> = None;
    while let Some(e) = sorted.next()? {
        match current.as_mut() {
            Some(c) if c.src == e.src && c.dst == e.dst => c.count = c.count.saturating_add(1),
            Some(c) => {
                let done = *c;
                w.push(done)?;
                current = Some(crate::types::CountedEdge::new(e.src, e.dst, 1));
            }
            None => current = Some(crate::types::CountedEdge::new(e.src, e.dst, 1)),
        }
    }
    if let Some(c) = current {
        w.push(c)?;
    }
    w.finish()
}

/// True if two dense component-id vectors describe the same partition of
/// `0..n` (up to renaming of component ids).
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a2b: HashMap<u32, u32> = HashMap::new();
    let mut b2a: HashMap<u32, u32> = HashMap::new();
    for (&x, &y) in a.iter().zip(b.iter()) {
        if *a2b.entry(x).or_insert(y) != y {
            return false;
        }
        if *b2a.entry(y).or_insert(x) != x {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_extmem::{DiskEnv, IoConfig};

    #[test]
    fn partition_comparison() {
        assert!(same_partition(&[0, 0, 1], &[5, 5, 9]));
        assert!(!same_partition(&[0, 0, 1], &[5, 9, 9]));
        assert!(!same_partition(&[0, 1], &[0, 1, 2]));
        assert!(same_partition(&[], &[]));
    }

    #[test]
    fn labeling_from_file_checks_density() {
        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        let good = env
            .file_from_slice(
                "l",
                &[
                    SccLabel::new(0, 0),
                    SccLabel::new(1, 0),
                    SccLabel::new(2, 2),
                ],
            )
            .unwrap();
        let lab = SccLabeling::from_file(&good, 3).unwrap();
        assert_eq!(lab.rep, vec![0, 0, 2]);
        assert_eq!(lab.n_sccs(), 2);
        assert!(lab.reps_are_members());

        let short = env.file_from_slice("s", &[SccLabel::new(0, 0)]).unwrap();
        assert!(SccLabeling::from_file(&short, 3).is_err());

        let gap = env
            .file_from_slice("g", &[SccLabel::new(0, 0), SccLabel::new(2, 2)])
            .unwrap();
        assert!(SccLabeling::from_file(&gap, 2).is_err());
    }

    #[test]
    fn histogram_and_membership() {
        let lab = SccLabeling::from_reps(vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(lab.size_histogram(), vec![3, 2, 1]);
        assert!(lab.reps_are_members());
        let bad = SccLabeling::from_reps(vec![1, 0]);
        assert!(!bad.reps_are_members());
    }

    #[test]
    fn external_condensation_matches_in_memory() {
        use crate::csr::CsrGraph;
        use crate::gen;
        use crate::tarjan::tarjan_scc;

        let env = DiskEnv::new_temp(IoConfig::small_for_tests()).unwrap();
        let g = gen::web_like(&env, 1500, 4.0, 5).unwrap();
        // Ground-truth labels from Tarjan, written as a label file.
        let edges = g.edges_in_memory().unwrap();
        let truth = tarjan_scc(&CsrGraph::from_edges(g.n_nodes(), &edges));
        let reps = truth.canonical_reps();
        let labs: Vec<SccLabel> = reps
            .iter()
            .enumerate()
            .map(|(v, &r)| SccLabel::new(v as u32, r))
            .collect();
        let label_file = env.file_from_slice("labs", &labs).unwrap();

        let dag = condense_external(&env, &g, &label_file).unwrap();
        let dag_edges = dag.edges_in_memory().unwrap();
        // No intra-component edges, no duplicates.
        assert!(dag_edges.iter().all(|e| !e.is_loop()));
        let mut dd = dag_edges.clone();
        dd.dedup();
        assert_eq!(dd.len(), dag_edges.len());
        // Same quotient edge set as the in-memory condensation (up to the
        // dense renumbering the in-memory one applies).
        let lab = SccLabeling::from_reps(reps.clone());
        let (_, comp, q) = lab.condense(&edges);
        let mut via_external: Vec<(u32, u32)> = dag_edges
            .iter()
            .map(|e| (comp[e.src as usize], comp[e.dst as usize]))
            .collect();
        via_external.sort_unstable();
        let mut want: Vec<(u32, u32)> = q.iter().map(|e| (e.src, e.dst)).collect();
        want.sort_unstable();
        assert_eq!(via_external, want);
        // And it is acyclic.
        let check = tarjan_scc(&CsrGraph::from_edges(dag.n_nodes(), &dag_edges));
        assert_eq!(check.count as u64, dag.n_nodes());
    }

    #[test]
    fn condensation_quotients_edges() {
        // 0<->1 (comp A), 2 (comp B); edges A->B twice and an internal edge.
        let lab = SccLabeling::from_reps(vec![0, 0, 2]);
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(0, 2),
            Edge::new(1, 2),
        ];
        let (n, comp, q) = lab.condense(&edges);
        assert_eq!(n, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
        assert_eq!(q.len(), 1, "quotient edges deduplicated");
    }
}
