//! The `>` total orders over nodes (Definitions 5.1 and 7.1).
//!
//! Algorithm 3 adds, for every edge, the *larger* endpoint under `>` to the
//! vertex cover — so a node is removed only if *all* its neighbours dominate
//! it, which is what bounds the degree of removed nodes (Theorem 5.3) and
//! hence the number of bypass edges (Theorem 5.4).
//!
//! * Definition 5.1 compares by total degree, tie-broken by id.
//! * Definition 7.1 (the Ext-SCC-Op refinement) inserts a second criterion,
//!   `deg_in × deg_out`, before the id tie-break: removing a node creates
//!   exactly `deg_in · deg_out` bypass edges, so among equal-degree nodes the
//!   one that would create *more* edges is kept in the cover.
//!
//! # The id tie-break is spread, not raw
//!
//! Both definitions only require *some* total order on ids to break exact
//! ties. Comparing raw ids is adversarial on regular graphs: on a uniform
//! cycle `0 → 1 → … → n-1 → 0` every node has degree 2, so with raw ids node
//! `i+1` dominates node `i` along every edge and the cover excludes only the
//! single `>`-minimum node — contraction removes ~1 node per iteration and
//! large cycles hit the iteration cap. We therefore compare [`spread`]`(id)`
//! (a fixed bijective scramble) instead: it is still a deterministic total
//! order, but ties now break in an id-decorrelated pattern, so on a regular
//! graph an expected constant fraction of nodes are local `>`-minima and get
//! removed each iteration. Everything downstream (Get-V, the Type-2
//! dictionary) uses [`sort_key`], so one definition keeps all comparisons
//! consistent.

/// Which `>` operator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderKind {
    /// Definition 5.1: `(deg, id)` lexicographic.
    #[default]
    Degree,
    /// Definition 7.1: `(deg, deg_in × deg_out, id)` lexicographic.
    DegreeProduct,
}

/// Comparison key of one node under either operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKey {
    /// Total degree.
    pub deg: u64,
    /// `deg_in × deg_out`.
    pub prod: u64,
    /// Node id (unique, so the order is total).
    pub id: u32,
}

impl NodeKey {
    /// Builds a key from raw fields (used when keys travel inside edge
    /// records).
    pub fn new(id: u32, deg_in: u32, deg_out: u32) -> NodeKey {
        NodeKey {
            deg: deg_in as u64 + deg_out as u64,
            prod: deg_in as u64 * deg_out as u64,
            id,
        }
    }
}

/// Deterministic bijective scramble of a node id (odd-constant multiplies
/// interleaved with invertible xor-shifts, murmur-finalizer style). Used as
/// the tie-break so that regular graphs do not degenerate — see the module
/// docs. One multiply alone is not enough: consecutive ids under a single
/// golden-ratio multiply alternate up/down (three-distance theorem), which
/// still correlates tie outcomes along paths and cycles.
pub fn spread(id: u32) -> u32 {
    let mut x = id.wrapping_mul(0x9E37_79B9);
    x ^= x >> 16;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^ (x >> 13)
}

/// Ordering tuple: ascending in `>` terms, usable as a `BTreeSet` key (the
/// Type-2 bounded dictionary evicts its largest member). The raw id rides
/// last purely as documentation of totality; [`spread`] is already
/// injective.
pub fn sort_key(kind: OrderKind, k: &NodeKey) -> (u64, u64, u32, u32) {
    match kind {
        OrderKind::Degree => (k.deg, 0, spread(k.id), k.id),
        OrderKind::DegreeProduct => (k.deg, k.prod, spread(k.id), k.id),
    }
}

/// The `>` operator: returns true iff `a > b` under `kind`.
pub fn node_greater(kind: OrderKind, a: &NodeKey, b: &NodeKey) -> bool {
    sort_key(kind, a) > sort_key(kind, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u32, din: u32, dout: u32) -> NodeKey {
        NodeKey::new(id, din, dout)
    }

    #[test]
    fn spread_is_injective_on_a_large_prefix() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..100_000u32 {
            assert!(seen.insert(spread(id)), "collision at {id}");
        }
    }

    #[test]
    fn spread_decorrelates_consecutive_ids() {
        // The whole point of the scramble: consecutive ids must not be
        // monotone under it, or uniform cycles degenerate again.
        let increasing = (1..10_000u32)
            .filter(|&i| spread(i) > spread(i - 1))
            .count();
        assert!(
            (2000..8000).contains(&increasing),
            "spread looks monotone-ish: {increasing}/9999 ascents"
        );
    }

    #[test]
    fn definition_5_1_degree_then_spread_id() {
        let k = OrderKind::Degree;
        assert!(node_greater(k, &key(1, 3, 3), &key(2, 2, 2)));
        // Exact degree tie: the spread id decides, consistently.
        let tie = node_greater(k, &key(5, 2, 2), &key(3, 2, 2));
        assert_eq!(tie, spread(5) > spread(3));
        assert_ne!(tie, node_greater(k, &key(3, 2, 2), &key(5, 2, 2)));
        // Degree product must NOT matter for Definition 5.1: with products
        // 0 vs 4 the tie still goes to the spread id alone.
        assert_eq!(
            node_greater(k, &key(9, 4, 0), &key(1, 2, 2)),
            spread(9) > spread(1)
        );
    }

    #[test]
    fn definition_7_1_product_breaks_degree_ties() {
        let k = OrderKind::DegreeProduct;
        // same deg 4: (1,3) product 3 vs (2,2) product 4.
        assert!(node_greater(k, &key(1, 2, 2), &key(9, 1, 3)));
        assert!(!node_greater(k, &key(9, 1, 3), &key(1, 2, 2)));
        // same deg, same product: the spread id decides.
        assert_eq!(
            node_greater(k, &key(9, 2, 2), &key(1, 2, 2)),
            spread(9) > spread(1)
        );
    }

    #[test]
    fn order_is_total_and_antisymmetric() {
        for kind in [OrderKind::Degree, OrderKind::DegreeProduct] {
            let keys = [key(0, 1, 2), key(1, 2, 1), key(2, 0, 3), key(3, 3, 0)];
            for a in &keys {
                assert!(!node_greater(kind, a, a), "irreflexive");
                for b in &keys {
                    if a.id != b.id {
                        assert_ne!(
                            node_greater(kind, a, b),
                            node_greater(kind, b, a),
                            "exactly one of a>b, b>a"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sort_key_agrees_with_operator() {
        for kind in [OrderKind::Degree, OrderKind::DegreeProduct] {
            for (a, b) in [
                (key(4, 5, 1), key(7, 2, 4)),
                (key(4, 2, 2), key(7, 2, 2)), // exact tie in deg and prod
            ] {
                assert_eq!(
                    node_greater(kind, &a, &b),
                    sort_key(kind, &a) > sort_key(kind, &b)
                );
            }
        }
    }
}
