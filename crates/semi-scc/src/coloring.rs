//! Forward–backward coloring semi-external SCC.
//!
//! Per peeling round over the still-active nodes:
//!
//! 1. **Forward coloring**: initialize `color[v] = v`, then stream the edge
//!    file until fixpoint, relaxing `color[v] ← max(color[v], color[u])` for
//!    every active edge `(u, v)`. At fixpoint `color[v]` is the maximum
//!    active node id that can reach `v`.
//! 2. **Roots**: nodes with `color[r] = r` (at least the maximum active id).
//!    The SCC of root `r` is exactly `{u : color[u] = r ∧ u → r}`.
//! 3. **Backward peeling**: assign `scc[r] = r`, then stream edges until
//!    fixpoint assigning `scc[u] = color[u]` whenever `(u, v)` has
//!    `scc[v] = color[u]` (then `u → v → r` and `r → u` by color).
//! 4. Deactivate all assigned nodes; repeat.
//!
//! Node state is two `u32` arrays, `color` and `scc` (in memory, per the
//! semi-external contract); the node ids and the edges stay on disk, and the
//! edges are only ever scanned sequentially. To shorten fixpoint chains the
//! scans alternate between ascending and descending order of one scan file
//! of dense index pairs, read forward and backward, which lets relaxations
//! cascade in both directions (classic Bellman-Ford sweeping).

use std::io;

use ce_extmem::{DiskEnv, ExtFile};
use ce_graph::types::{Edge, SccLabel};

use crate::{normalize_min_rep, write_labels, NodeSet, SemiSccReport, Sweeps};

const UNASSIGNED: u32 = u32::MAX;

/// Runs the coloring algorithm. See module docs; every edge endpoint must be
/// a member of `nodes`.
pub fn coloring_scc(
    env: &DiskEnv,
    edges: &ExtFile<Edge>,
    nodes: NodeSet<'_>,
) -> io::Result<(ExtFile<SccLabel>, SemiSccReport)> {
    if nodes.is_empty() {
        return Ok((
            ExtFile::empty(env, "semi-labels")?,
            SemiSccReport::default(),
        ));
    }
    let sweeps = Sweeps::new(env, edges, nodes)?;
    solve(env, sweeps, nodes)
}

/// The coloring fixpoint over a built scan file (also the spanning-tree
/// algorithm's fallback).
pub(crate) fn solve(
    env: &DiskEnv,
    mut sweeps: Sweeps,
    nodes: NodeSet<'_>,
) -> io::Result<(ExtFile<SccLabel>, SemiSccReport)> {
    let n = nodes.len() as usize;
    assert!(
        (n as u64) < UNASSIGNED as u64,
        "node count must fit in u32 with a sentinel to spare"
    );
    let mut report = SemiSccReport::default();
    let mut scc = vec![UNASSIGNED; n];
    let mut color = vec![0u32; n];
    let mut assigned = 0usize;

    while assigned < n {
        report.rounds += 1;
        let _sp = ce_extmem::io_span!(env, "color_round", round = report.rounds, active = n - assigned);

        // 1. Reset colors of active nodes.
        for (i, c) in color.iter_mut().enumerate() {
            *c = if scc[i] == UNASSIGNED { i as u32 } else { UNASSIGNED };
        }

        // 2. Forward max-propagation to fixpoint.
        loop {
            report.edge_passes += 1;
            let changed = sweeps.sweep(|u, v| {
                if scc[u] == UNASSIGNED && scc[v] == UNASSIGNED && color[u] > color[v] {
                    color[v] = color[u];
                    return true;
                }
                false
            })?;
            if !changed {
                break;
            }
        }

        // 3. Roots label themselves.
        let mut newly = 0usize;
        for i in 0..n {
            if scc[i] == UNASSIGNED && color[i] == i as u32 {
                scc[i] = i as u32;
                newly += 1;
            }
        }
        debug_assert!(newly > 0, "every round must find at least one root");

        // 4. Backward peeling to fixpoint.
        loop {
            report.edge_passes += 1;
            let changed = sweeps.sweep(|u, v| {
                if scc[u] == UNASSIGNED && scc[v] != UNASSIGNED && scc[v] == color[u] {
                    scc[u] = color[u];
                    newly += 1;
                    return true;
                }
                false
            })?;
            if !changed {
                break;
            }
        }
        assigned += newly;
    }

    report.n_sccs = scc
        .iter()
        .enumerate()
        .filter(|&(i, &r)| r == i as u32)
        .count() as u64;

    // `color` is dead from here on: it is the scratch of both steps.
    normalize_min_rep(&mut scc, &mut color);
    let labels = write_labels(env, nodes, &scc, &mut color)?;
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

    fn run(n: u32, edge_list: &[(u32, u32)]) -> (Vec<u32>, SemiSccReport) {
        let env = env();
        let edges: Vec<Edge> = edge_list.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let file = env.file_from_slice("e", &edges).unwrap();
        let (labels, report) = coloring_scc(&env, &file, NodeSet::Dense(n as u64)).unwrap();
        let mut rep = vec![0u32; n as usize];
        let mut r = labels.reader().unwrap();
        while let Some(l) = r.next().unwrap() {
            rep[l.node as usize] = l.scc;
        }
        (rep, report)
    }

    fn check_against_tarjan(n: u32, edge_list: &[(u32, u32)]) {
        let (rep, report) = run(n, edge_list);
        let edges: Vec<Edge> = edge_list.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let t = tarjan_scc(&CsrGraph::from_edges(n as u64, &edges));
        assert!(
            same_partition(&rep, &t.comp),
            "partition mismatch on {edge_list:?}: {rep:?}"
        );
        assert_eq!(report.n_sccs, t.count as u64);
    }

    #[test]
    fn empty_graph() {
        let (rep, report) = run(4, &[]);
        assert_eq!(rep, vec![0, 1, 2, 3]);
        assert_eq!(report.n_sccs, 4);
    }

    #[test]
    fn single_cycle_one_round() {
        let (rep, report) = run(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert!(rep.iter().all(|&r| r == 0), "min-member labels: {rep:?}");
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn labels_use_min_member() {
        // SCC {3,4}; singleton 0,1,2.
        let (rep, _) = run(5, &[(3, 4), (4, 3), (0, 3)]);
        assert_eq!(rep[3], 3);
        assert_eq!(rep[4], 3);
        assert_eq!(rep[0], 0);
    }

    #[test]
    fn paper_example_graph() {
        check_against_tarjan(
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
    fn chains_and_dags() {
        check_against_tarjan(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        check_against_tarjan(6, &[(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]);
        check_against_tarjan(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        check_against_tarjan(3, &[(0, 0), (0, 1), (0, 1), (1, 2), (2, 1)]);
    }

    #[test]
    fn nested_cycles() {
        check_against_tarjan(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (6, 7),
                (7, 6),
            ],
        );
    }

    #[test]
    fn random_graphs_match_tarjan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..25 {
            let n = rng.gen_range(1..50u32);
            let m = rng.gen_range(0..150usize);
            let list: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            check_against_tarjan(n, &list);
        }
    }

    #[test]
    fn sparse_node_universe() {
        // Nodes {2, 5, 9} with a cycle 2 -> 5 -> 9 -> 2.
        let env = env();
        let edges = env
            .file_from_slice(
                "e",
                &[Edge::new(2, 5), Edge::new(5, 9), Edge::new(9, 2)],
            )
            .unwrap();
        let nodes = env.file_from_slice("v", &[2u32, 5, 9]).unwrap();
        let (labels, _) = coloring_scc(&env, &edges, NodeSet::Sorted(&nodes)).unwrap();
        let all = labels.read_all().unwrap();
        assert_eq!(
            all,
            vec![
                SccLabel::new(2, 2),
                SccLabel::new(5, 2),
                SccLabel::new(9, 2)
            ]
        );
    }

    #[test]
    fn only_sequential_ios() {
        let env = env();
        let list: Vec<Edge> = (0..2000u32)
            .map(|i| Edge::new(i % 500, (i * 7 + 1) % 500))
            .collect();
        let edges = env.file_from_slice("e", &list).unwrap();
        let before = env.stats().snapshot();
        let _ = coloring_scc(&env, &edges, NodeSet::Dense(500)).unwrap();
        let d = env.stats().snapshot().since(&before);
        // Every pass is a scan; the only "random" transfers are the first
        // block of each newly-opened reader/sort run.
        assert!(
            d.random_ios() * 10 <= d.total_ios(),
            "coloring should be scan-dominated: {d}"
        );
    }
}
