//! Spanning-forest semi-external SCC (1PB-SCC-style).
//!
//! A reconstruction of the mechanism of Zhang et al. (SIGMOD'13), which the
//! paper uses as its Semi-SCC black box: keep an in-memory spanning forest
//! whose tree edges are real graph edges, stream the edge file in passes, and
//!
//! * **contract** when an edge `(u, v)` points at a tree ancestor `v` of `u`
//!   — the tree path `v → … → u` plus `(u, v)` is a cycle, so the whole path
//!   is one partial SCC (merged in a union-find, the paper's "contract each
//!   partial SCC into one node");
//! * **re-hang** a component under a deeper parent when an edge shows its
//!   depth is inconsistent (`depth[v] < depth[u] + 1`), the depth-based
//!   "weaker order" that replaces the strict DFS postorder.
//!
//! At fixpoint every remaining inter-component edge satisfies
//! `depth[target] ≥ depth[source] + 1`, so depth is a topological certificate
//! — the contracted components are exactly the SCCs.
//!
//! Termination: each pass either performs a union (at most `n − 1` overall)
//! or increases some component's depth (bounded by `n`), so the total number
//! of state changes is finite; passes without changes end the loop.

use std::io;

use ce_extmem::{DiskEnv, ExtFile};
use ce_graph::types::{Edge, SccLabel};

use crate::{normalize_min_rep, write_labels, NodeSet, SemiSccReport, Sweeps};

const NONE: u32 = u32::MAX;

/// Union-find over dense indices with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unions the classes of `a` and `b`; returns the surviving root.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        big
    }
}

/// The spanning forest over union-find classes: five `u32` arrays, the
/// footprint [`crate::mem_required`] charges.
struct Forest {
    uf: UnionFind,
    /// Parent *node index* of each class root, re-found on use.
    tree_parent: Vec<u32>,
    /// Depth of each class root.
    depth: Vec<u32>,
    /// The ancestor walk's path, sized once: it can reach every node.
    chain: Vec<u32>,
    /// Cycle contractions performed.
    contractions: u64,
}

impl Forest {
    fn new(n: usize) -> Forest {
        Forest {
            uf: UnionFind::new(n),
            tree_parent: vec![NONE; n],
            depth: vec![0; n],
            chain: Vec::with_capacity(n),
            contractions: 0,
        }
    }

    /// Applies edge `(u, v)`: contracts the cycle it closes, or re-hangs
    /// `v`'s class deeper. Returns whether the forest changed.
    fn relax(&mut self, u: u32, v: u32) -> bool {
        let ru = self.uf.find(u);
        let rv = self.uf.find(v);
        if ru == rv {
            return false;
        }
        // Is rv an ancestor of ru? Walk ru's root chain (full walk — depth
        // values may be stale, so we cannot depth-bound it).
        let chain = &mut self.chain;
        chain.clear();
        chain.push(ru);
        let mut x = ru;
        let mut is_ancestor = false;
        loop {
            let p = self.tree_parent[x as usize];
            if p == NONE {
                break;
            }
            let rp = self.uf.find(p);
            if rp == x {
                // A self-parent cannot arise (union rewrites the root's
                // entries), but a walk must never loop: detach defensively.
                debug_assert!(false, "stale self-parent in spanning forest");
                self.tree_parent[x as usize] = NONE;
                break;
            }
            chain.push(rp);
            if rp == rv {
                is_ancestor = true;
                break;
            }
            debug_assert!(
                chain.len() <= self.depth.len(),
                "forest walk exceeded n: cycle in tree"
            );
            x = rp;
        }
        if is_ancestor {
            // Contract the cycle: union every class on the path ru..rv.
            let above = self.tree_parent[rv as usize];
            let d = self.depth[rv as usize];
            let mut root = ru;
            for &c in chain.iter() {
                root = self.uf.union(root, c);
            }
            self.tree_parent[root as usize] = above;
            self.depth[root as usize] = d;
            self.contractions += 1;
            true
        } else if self.depth[rv as usize] < self.depth[ru as usize] + 1 {
            // Re-hang rv under ru (deeper position). Safe: rv is not an
            // ancestor of ru, so no forest cycle can form.
            self.tree_parent[rv as usize] = ru;
            self.depth[rv as usize] = self.depth[ru as usize] + 1;
            true
        } else {
            false
        }
    }
}

/// Runs the spanning-forest algorithm; same contract as
/// [`crate::coloring::coloring_scc`].
pub fn sptree_scc(
    env: &DiskEnv,
    edges: &ExtFile<Edge>,
    nodes: NodeSet<'_>,
) -> io::Result<(ExtFile<SccLabel>, SemiSccReport)> {
    let n = nodes.len() as usize;
    let mut report = SemiSccReport::default();
    if n == 0 {
        return Ok((ExtFile::empty(env, "semi-labels")?, report));
    }
    let mut sweeps = Sweeps::new(env, edges, nodes)?;
    let mut forest = Forest::new(n);

    // Unions are bounded by n−1 and every re-hang strictly deepens a
    // component, so the loop terminates; the cap below is a defensive
    // backstop that hands pathological inputs to the coloring algorithm
    // (same contract, same answer) rather than scanning indefinitely.
    let pass_cap = 4 * (n as u64) + 64;
    loop {
        if report.edge_passes >= pass_cap {
            drop(forest); // within `M`, the coloring arrays replace the forest
            return crate::coloring::solve(env, sweeps, nodes);
        }
        report.edge_passes += 1;
        if !sweeps.sweep(|u, v| forest.relax(u as u32, v as u32))? {
            break;
        }
    }
    report.rounds = forest.contractions;

    // `tree_parent` becomes the component assignment; `depth` is scratch.
    let Forest {
        mut uf,
        tree_parent: mut scc_of,
        mut depth,
        ..
    } = forest;
    for (i, slot) in scc_of.iter_mut().enumerate() {
        *slot = uf.find(i as u32);
    }
    report.n_sccs = scc_of
        .iter()
        .enumerate()
        .filter(|&(i, &r)| r == i as u32)
        .count() as u64;
    normalize_min_rep(&mut scc_of, &mut depth);
    let labels = write_labels(env, nodes, &scc_of, &mut depth)?;
    Ok((labels, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_extmem::IoConfig;
    use ce_graph::csr::CsrGraph;
    use ce_graph::labels::same_partition;
    use ce_graph::tarjan::tarjan_scc;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(1 << 10, 1 << 16)).unwrap()
    }

    fn run(n: u32, edge_list: &[(u32, u32)]) -> Vec<u32> {
        let env = env();
        let edges: Vec<Edge> = edge_list.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let file = env.file_from_slice("e", &edges).unwrap();
        let (labels, _) = sptree_scc(&env, &file, NodeSet::Dense(n as u64)).unwrap();
        let mut rep = vec![0u32; n as usize];
        let mut r = labels.reader().unwrap();
        while let Some(l) = r.next().unwrap() {
            rep[l.node as usize] = l.scc;
        }
        rep
    }

    fn check(n: u32, edge_list: &[(u32, u32)]) {
        let rep = run(n, edge_list);
        let edges: Vec<Edge> = edge_list.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let t = tarjan_scc(&CsrGraph::from_edges(n as u64, &edges));
        assert!(
            same_partition(&rep, &t.comp),
            "partition mismatch on {edge_list:?}: got {rep:?}, want {:?}",
            t.comp
        );
    }

    #[test]
    fn basic_shapes() {
        check(1, &[]);
        check(4, &[]);
        check(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        check(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        check(6, &[(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]);
        check(3, &[(0, 0), (0, 1), (0, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn two_cycles_bridged() {
        check(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
    }

    #[test]
    fn cycle_through_cross_edges_needs_rehang() {
        // A cycle that a naive forward pass will not see as ancestor-closing
        // until re-hanging reorders the forest: 0->1, 2->1 arrives first as a
        // cross edge, then 1->2 closes the cycle only after re-hang.
        check(3, &[(2, 1), (0, 1), (1, 2)]);
    }

    #[test]
    fn paper_example_graph() {
        check(
            13,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 1),
                (4, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (11, 8),
                (9, 12),
            ],
        );
    }

    #[test]
    fn random_graphs_match_tarjan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        for _ in 0..40 {
            let n = rng.gen_range(1..40u32);
            let m = rng.gen_range(0..120usize);
            let list: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            check(n, &list);
        }
    }

    #[test]
    fn dense_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for _ in 0..10 {
            let n = 30u32;
            let m = 400usize;
            let list: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            check(n, &list);
        }
    }

    #[test]
    fn sparse_node_universe() {
        let env = env();
        let edges = env
            .file_from_slice("e", &[Edge::new(10, 20), Edge::new(20, 10)])
            .unwrap();
        let nodes = env.file_from_slice("v", &[10u32, 20]).unwrap();
        let (labels, _) = sptree_scc(&env, &edges, NodeSet::Sorted(&nodes)).unwrap();
        assert_eq!(
            labels.read_all().unwrap(),
            vec![SccLabel::new(10, 10), SccLabel::new(20, 10)]
        );
    }
}
