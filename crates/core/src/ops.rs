//! Shared per-iteration edge preprocessing.
//!
//! Both Get-V (Algorithm 3, lines 2–3) and Get-E (Algorithm 4, lines 1–2)
//! consume the same two sorted edge orders, `E_in = sort by (dst, src)` and
//! `E_out = sort by (src, dst)`; the driver computes them once per
//! contraction iteration and hands them to both. This is also where the
//! paper's *lazy parallel-edge elimination* (Section VII) lives: in optimized
//! mode the `E_in` sort deduplicates, and `E_out` is derived from the deduped
//! set, so duplicates introduced by the previous iteration's bypass edges die
//! here at no extra I/O cost.

use std::io;

use ce_extmem::{sort_by_key, sort_dedup_by_key, DiskEnv, ExtFile};
use ce_graph::types::Edge;

/// The two sorted orders of one iteration's edge set.
#[derive(Debug)]
pub struct EdgeOrders {
    /// Edges sorted by `(dst, src)` — groups the in-edges of each node.
    pub ein: ExtFile<Edge>,
    /// Edges sorted by `(src, dst)` — groups the out-edges of each node.
    pub eout: ExtFile<Edge>,
    /// Number of edges after optional deduplication.
    pub n_edges: u64,
}

/// Builds both orders. With `lazy_dedup`, parallel edges are removed while
/// sorting `E_in` (Section VII edge reduction), and `E_out` re-sorts the
/// deduplicated file.
pub fn build_orders(env: &DiskEnv, edges: &ExtFile<Edge>, lazy_dedup: bool) -> io::Result<EdgeOrders> {
    let _sp = ce_extmem::io_span!(env, "build_orders");
    if lazy_dedup {
        let ein = sort_dedup_by_key(env, edges, "ein", Edge::by_dst)?;
        let eout = sort_by_key(env, &ein, "eout", Edge::by_src)?;
        let n_edges = ein.len();
        Ok(EdgeOrders { ein, eout, n_edges })
    } else {
        let ein = sort_by_key(env, edges, "ein", Edge::by_dst)?;
        let eout = sort_by_key(env, edges, "eout", Edge::by_src)?;
        let n_edges = edges.len();
        Ok(EdgeOrders { ein, eout, n_edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_extmem::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(1 << 10, 1 << 14)).unwrap()
    }

    #[test]
    fn orders_are_sorted_views_of_same_multiset() {
        let env = env();
        let edges = env
            .file_from_slice(
                "e",
                &[
                    Edge::new(3, 1),
                    Edge::new(0, 2),
                    Edge::new(3, 1),
                    Edge::new(1, 0),
                ],
            )
            .unwrap();
        let o = build_orders(&env, &edges, false).unwrap();
        assert_eq!(o.n_edges, 4);
        let ein = o.ein.read_all().unwrap();
        assert_eq!(ein[0], Edge::new(1, 0));
        let eout = o.eout.read_all().unwrap();
        assert_eq!(eout[0], Edge::new(0, 2));
        assert_eq!(o.ein.len(), o.eout.len());
    }

    #[test]
    fn lazy_dedup_drops_parallels_in_both_orders() {
        let env = env();
        let edges = env
            .file_from_slice(
                "e",
                &[
                    Edge::new(3, 1),
                    Edge::new(3, 1),
                    Edge::new(3, 1),
                    Edge::new(1, 3),
                ],
            )
            .unwrap();
        let o = build_orders(&env, &edges, true).unwrap();
        assert_eq!(o.n_edges, 2);
        assert_eq!(o.ein.len(), 2);
        assert_eq!(o.eout.len(), 2);
    }
}
