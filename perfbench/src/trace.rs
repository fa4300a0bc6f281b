//! Per-layer numbers from a captured span forest: self time and self
//! logical I/O by span name, computed here rather than inside the program.

use std::collections::BTreeMap;

use contract_expand::obs::SpanNode;

/// Totals for every span of one name over a forest.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of self wall time: each span's wall minus its children's.
    pub self_ms: f64,
    /// Sum of self logical I/O: each span's `ios` minus its children's.
    pub self_ios: u64,
}

/// Aggregates self time and self logical I/O by span name.
pub fn self_by_name(roots: &[SpanNode]) -> BTreeMap<&'static str, SelfTotals> {
    fn walk(n: &SpanNode, acc: &mut BTreeMap<&'static str, SelfTotals>) {
        let child_wall: u64 = n.children.iter().map(|c| c.wall_ns).sum();
        let e = acc.entry(n.name).or_default();
        e.count += 1;
        e.self_ms += n.wall_ns.saturating_sub(child_wall) as f64 / 1e6;
        e.self_ios += n.self_counter("ios");
        for c in &n.children {
            walk(c, acc);
        }
    }
    let mut acc = BTreeMap::new();
    for r in roots {
        walk(r, &mut acc);
    }
    acc
}
