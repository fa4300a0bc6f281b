//! Algorithm 4 — Get-E: construct the edge set `E_{i+1}` of the contracted
//! graph so that the SCC-preservable property holds (Lemma 5.3).
//!
//! `E_{i+1} = E_pre ∪ E_add` where
//!
//! * `E_pre` — edges of `G_i` with **both** endpoints in the cover
//!   (lines 9–11: two semi-joins against `V_{i+1}` with a re-sort between);
//! * `E_add` — bypass edges: for every removed node `v` and every pair
//!   `(u, v) ∈ E_del`, `(v, w) ∈ O_del`, the edge `(u, w)` — so any path that
//!   used `v` can detour around it (lines 3–8, illustrated in Fig. 3).
//!
//! When the Type-1 node reduction is active (`filter_endpoints`), removed
//! nodes may neighbour other removed nodes (sources/sinks dropped from the
//! cover without the recoverability guarantee), so `E_del`/`O_del` are
//! additionally semi-joined with the cover on their *other* endpoint; edges
//! between two removed nodes cannot lie on a cycle (one endpoint has
//! `deg_in = 0` or `deg_out = 0`) and are dropped. In pure-baseline mode the
//! recoverable property already guarantees those endpoints are in the cover
//! and the joins are skipped, matching the paper's I/O count exactly.
//!
//! Cost: `O(sort(|E_i|) + scan(|V_{i+1}|) + scan(|E_{i+1}|))` (Theorem 5.2).

use std::io;

use ce_extmem::{
    anti_join, semi_join_stream, sort_by_key, sort_streaming_by_key, DiskEnv, ExtFile, GroupCursor,
    SortedStream,
};
use ce_graph::types::Edge;

use crate::ops::EdgeOrders;

/// Options controlling edge construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct GetEOptions {
    /// Re-filter `E_del`/`O_del` so bypass endpoints lie in the cover.
    /// Required whenever Type-1 node reduction produced the cover.
    pub filter_endpoints: bool,
    /// Drop bypass self-loops `(u, u)` (Section VII edge reduction).
    pub drop_self_loops: bool,
}

/// Output of one Get-E run.
#[derive(Debug)]
pub struct GetEResult {
    /// `E_{i+1}` (unsorted; bypass edges followed by preserved edges,
    /// written in one pass).
    pub edges: ExtFile<Edge>,
    /// In-edges of removed nodes, sorted by `(removed dst, src)` — retained
    /// for the expansion phase, which needs exactly this set (Algorithm 5).
    pub edel_in: ExtFile<Edge>,
    /// Out-edges of removed nodes, sorted by `(removed src, dst)`.
    pub odel: ExtFile<Edge>,
    /// `|E_pre|`.
    pub n_pre: u64,
    /// `|E_add|` (bypass edges emitted).
    pub n_add: u64,
    /// Largest `deg_in × deg_out` bypass group seen (Theorem 5.3 bounds the
    /// factors by `√(2|E_i|)`).
    pub max_group: u64,
}

/// Runs Get-E over one iteration's edge orders and the cover from Get-V.
pub fn get_e(
    env: &DiskEnv,
    orders: &EdgeOrders,
    cover: &ExtFile<u32>,
    opts: &GetEOptions,
) -> io::Result<GetEResult> {
    let _sp = ce_extmem::io_span!(env, "get_e");
    // Lines 3-4: incoming edges of removed nodes, out-edges of removed nodes.
    let mut edel_in = anti_join(env, "edel-in", &orders.ein, |e| e.dst, cover, |&v| v)?;
    let mut odel = anti_join(env, "odel", &orders.eout, |e| e.src, cover, |&v| v)?;

    if opts.filter_endpoints {
        // Keep only bypass endpoints that survive in the cover (Type-1
        // mode). Fully fused: re-sort streams into the semi-join, whose
        // survivors stream into the restoring sort's run formation — only
        // the final (multi-reader) files materialize.
        let tmp = sort_streaming_by_key(env, &edel_in, "edel-by-src", Edge::by_src)?;
        let kept = semi_join_stream(tmp, |e| e.src, cover, |&v| v)?;
        let ein2 = sort_by_key(env, kept, "edel-final", Edge::by_dst)?;
        let tmp = sort_streaming_by_key(env, &odel, "odel-by-dst", Edge::by_dst)?;
        let kept = semi_join_stream(tmp, |e| e.dst, cover, |&v| v)?;
        let out2 = sort_by_key(env, kept, "odel-final", Edge::by_src)?;
        edel_in = ein2;
        odel = out2;
    }

    // Lines 5-8 and 9-12 write one shared output: bypass edges first, then
    // the preserved edges streamed from their fused semi-join chain. The
    // old `eadd`/`epre` intermediates and the final concat pass are gone —
    // `E_{i+1}` is written exactly once.
    let mut n_add = 0u64;
    let mut max_group = 0u64;
    let mut w = env.writer::<Edge>("enext")?;

    // Lines 5-8: bypass edges — merge the two group streams on the removed
    // node and emit the cross product of (in-neighbours × out-neighbours).
    {
        let mut ins = GroupCursor::new(&edel_in, |e: &Edge| e.dst)?;
        let mut outs = GroupCursor::new(&odel, |e: &Edge| e.src)?;
        let mut in_buf: Vec<Edge> = Vec::new();
        let mut out_buf: Vec<Edge> = Vec::new();
        let mut out_key = outs.next_group(&mut out_buf)?;
        while let Some(v) = ins.next_group(&mut in_buf)? {
            // Advance the out-side to group v (skipping removed nodes with
            // no in-edges — they generate no bypass).
            while let Some(k) = out_key {
                if k >= v {
                    break;
                }
                out_key = outs.next_group(&mut out_buf)?;
            }
            if out_key != Some(v) {
                continue; // removed node with no out-edges: no bypass.
            }
            // A self-loop (v, v) on the removed node contributes nothing to
            // paths between *other* nodes (u → v → v → w is just u → v → w),
            // and pairing it would emit bypass edges that mention the
            // removed node itself; drop it from both sides unconditionally.
            in_buf.retain(|e| e.src != v);
            out_buf.retain(|e| e.dst != v);
            max_group = max_group.max(in_buf.len() as u64 * out_buf.len() as u64);
            for ein in &in_buf {
                for eout in &out_buf {
                    let e = Edge::new(ein.src, eout.dst);
                    if opts.drop_self_loops && e.is_loop() {
                        continue;
                    }
                    w.push(e)?;
                    n_add += 1;
                }
            }
            out_key = outs.next_group(&mut out_buf)?;
        }
    }

    // Lines 9-11: preserved edges with both endpoints in the cover — the
    // first semi-join streams into the re-sort, whose merged output streams
    // into the second semi-join, whose survivors land in the shared writer.
    let mut n_pre = 0u64;
    {
        let p1 = semi_join_stream(&orders.eout, |e| e.src, cover, |&v| v)?;
        let p2 = sort_streaming_by_key(env, p1, "epre-by-dst", Edge::by_dst)?;
        let mut epre = semi_join_stream(p2, |e| e.dst, cover, |&v| v)?;
        let mut batch: Vec<Edge> = Vec::with_capacity(ce_extmem::DEFAULT_BATCH);
        loop {
            batch.clear();
            let got = epre.next_batch(&mut batch, ce_extmem::DEFAULT_BATCH)?;
            if got == 0 {
                break;
            }
            w.push_slice(&batch)?;
            n_pre += got as u64;
        }
    }

    // Line 12: union — already interleaved into the single writer.
    let edges = w.finish()?;
    Ok(GetEResult {
        edges,
        edel_in,
        odel,
        n_pre,
        n_add,
        max_group,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::build_orders;
    use ce_extmem::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(1 << 10, 1 << 14)).unwrap()
    }

    fn run(
        edges: &[(u32, u32)],
        cover: &[u32],
        opts: &GetEOptions,
    ) -> (Vec<Edge>, GetEResult) {
        let env = env();
        let es: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let f = env.file_from_slice("e", &es).unwrap();
        let orders = build_orders(&env, &f, false).unwrap();
        let cov = env.file_from_slice("c", cover).unwrap();
        let res = get_e(&env, &orders, &cov, opts).unwrap();
        let mut out = res.edges.read_all().unwrap();
        out.sort();
        (out, res)
    }

    #[test]
    fn bypass_replaces_removed_node() {
        // 0 -> 1 -> 2 with node 1 removed: bypass edge (0, 2).
        let (edges, res) = run(&[(0, 1), (1, 2)], &[0, 2], &GetEOptions::default());
        assert_eq!(edges, vec![Edge::new(0, 2)]);
        assert_eq!(res.n_pre, 0);
        assert_eq!(res.n_add, 1);
    }

    #[test]
    fn preserved_edges_require_both_endpoints() {
        let (edges, res) = run(
            &[(0, 1), (1, 2), (0, 2)],
            &[0, 2],
            &GetEOptions::default(),
        );
        // (0,2) preserved, (0,1)/(1,2) replaced by bypass (0,2).
        assert_eq!(edges, vec![Edge::new(0, 2), Edge::new(0, 2)]);
        assert_eq!(res.n_pre, 1);
        assert_eq!(res.n_add, 1);
    }

    #[test]
    fn cross_product_of_neighbours() {
        // removed node 9: in-neighbours {0,1}, out-neighbours {2,3}.
        let (edges, res) = run(
            &[(0, 9), (1, 9), (9, 2), (9, 3)],
            &[0, 1, 2, 3],
            &GetEOptions::default(),
        );
        assert_eq!(res.n_add, 4);
        assert_eq!(res.max_group, 4);
        assert_eq!(
            edges,
            vec![
                Edge::new(0, 2),
                Edge::new(0, 3),
                Edge::new(1, 2),
                Edge::new(1, 3)
            ]
        );
    }

    #[test]
    fn paper_example_removing_d() {
        // Example 5.1: removing d from c -> d -> e adds (c, e).
        // ids: c=2, d=3, e=4.
        let (edges, _) = run(&[(2, 3), (3, 4)], &[2, 4], &GetEOptions::default());
        assert_eq!(edges, vec![Edge::new(2, 4)]);
    }

    #[test]
    fn bypass_self_loop_dropped_when_requested() {
        // 0 -> 9 -> 0 with 9 removed: bypass would be (0, 0).
        let keep = run(&[(0, 9), (9, 0)], &[0], &GetEOptions::default());
        assert_eq!(keep.0, vec![Edge::new(0, 0)]);
        let drop = run(
            &[(0, 9), (9, 0)],
            &[0],
            &GetEOptions {
                drop_self_loops: true,
                ..Default::default()
            },
        );
        assert!(drop.0.is_empty());
        assert_eq!(drop.1.n_add, 0);
    }

    #[test]
    fn removed_source_and_sink_generate_nothing() {
        // 7 removed with only out-edges (source), 8 removed with only
        // in-edges (sink): no bypass possible.
        let (edges, res) = run(&[(7, 0), (0, 8)], &[0], &GetEOptions::default());
        assert!(edges.is_empty());
        assert_eq!(res.n_add, 0);
    }

    #[test]
    fn endpoint_filter_drops_removed_to_removed_bypass() {
        // Type-1 situation: source 5 -> removed 1 -> 2, with 5 also removed
        // (it is a source). Without filtering, bypass (5, 2) would resurrect
        // a removed endpoint.
        let unfiltered = run(&[(5, 1), (1, 2)], &[2], &GetEOptions::default());
        assert_eq!(unfiltered.0, vec![Edge::new(5, 2)], "shows the hazard");
        let filtered = run(
            &[(5, 1), (1, 2)],
            &[2],
            &GetEOptions {
                filter_endpoints: true,
                ..Default::default()
            },
        );
        assert!(filtered.0.is_empty(), "filter keeps E_{{i+1}} inside cover");
    }

    #[test]
    fn del_files_are_exactly_removed_incidence() {
        let (_, res) = run(
            &[(0, 1), (1, 2), (2, 0), (0, 2)],
            &[0, 2],
            &GetEOptions::default(),
        );
        let edel = res.edel_in.read_all().unwrap();
        assert_eq!(edel, vec![Edge::new(0, 1)]); // in-edges of removed node 1
        let odel = res.odel.read_all().unwrap();
        assert_eq!(odel, vec![Edge::new(1, 2)]); // out-edges of node 1
    }
}
