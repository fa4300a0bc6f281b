//! Differential conformance for the incremental delta engine.
//!
//! The static matrix in the crate root checks that every engine computes
//! the same partition *from scratch*. This module checks the dynamic
//! claim: a stored [`SccIndex`] maintained **incrementally** through
//! [`DeltaEngine::apply`] stays equivalent to rebuilding from scratch
//! after every single update. Each workload family drives a long,
//! deterministic stream of edge insertions and deletions and, at every
//! step,
//!
//! 1. **partition equivalence** — [`DeltaEngine::labels_snapshot`] (which
//!    first re-verifies any deletion-dirtied components) must equal the
//!    canonical in-memory Tarjan labeling of the current edge multiset,
//!    exactly — both sides label every component by its minimum member;
//! 2. **sublinear maintenance** — steps that do not merge components
//!    (intra-component inserts, DAG appends/reinforcements, deletions)
//!    must cost O(1) page writes, never a rewrite proportional to the
//!    label section;
//! 3. **durability** — after the stream, the artifact reopened from disk
//!    through full checksum validation must answer `component_of` for
//!    every node exactly as the scratch labeling does.
//!
//! The families cover the classification taxonomy from different angles:
//! [`DeltaFamily::CycleStitch`] stitches disjoint cycles together
//! (appends, reinforcements, cycle-creating merges),
//! [`DeltaFamily::Churn`] randomly adds and removes over a sparse random
//! base (the full mix, including dirty-marking and lazy re-verification),
//! and [`DeltaFamily::GrowCut`] grows one giant component and then cuts
//! it apart (merge-then-split compositions).
//!
//! Entry points: [`run_delta_stream`] for one family,
//! [`run_delta_matrix`] for all of them — used by the root `tests/delta.rs`
//! differential gate with ≥ 200-step streams.

use std::fmt;
use std::io;

use ce_extmem::{DiskEnv, IoConfig};
use ce_graph::delta::{DeltaBatch, DeltaEngine};
use ce_graph::labels::condense_counted;
use ce_graph::tarjan::tarjan_scc;
use ce_graph::{CsrGraph, Edge, EdgeListGraph, NodeId, SccIndex, SccLabel};

/// Block size every delta stream runs under: small enough that the label
/// section of even these smoke-sized graphs spans several pages, so an
/// accidental full-section rewrite is visible in the write counters.
const BLOCK: usize = 64;

/// One deterministic delta workload family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaFamily {
    /// Disjoint cycles stitched together by random cross edges: mostly
    /// insertions, exercising DAG appends, reinforcements and
    /// cycle-creating merges; occasional deletions.
    CycleStitch,
    /// Near-balanced random adds and removes over a sparse random base:
    /// the full classification mix, including intra-component deletions
    /// (dirty-marking) and the lazy re-verification they trigger.
    Churn,
    /// A grow phase biased toward back edges (merging the path spine into
    /// ever-bigger components) followed by a cut phase dominated by
    /// deletions (splitting them apart again).
    GrowCut,
}

impl DeltaFamily {
    /// Every family, in report order.
    pub fn all() -> [DeltaFamily; 3] {
        [DeltaFamily::CycleStitch, DeltaFamily::Churn, DeltaFamily::GrowCut]
    }

    /// Lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DeltaFamily::CycleStitch => "cycle-stitch",
            DeltaFamily::Churn => "churn",
            DeltaFamily::GrowCut => "grow-cut",
        }
    }

    /// The base graph the index is built from: `(n_nodes, edges)`.
    fn base(&self) -> (u64, Vec<(u32, u32)>) {
        match self {
            DeltaFamily::CycleStitch => {
                let sizes = [3u32, 4, 5, 6, 7, 8, 9, 6];
                let mut edges = Vec::new();
                let mut at = 0u32;
                for &s in &sizes {
                    for i in 0..s {
                        edges.push((at + i, at + (i + 1) % s));
                    }
                    at += s;
                }
                (u64::from(at), edges)
            }
            DeltaFamily::Churn => {
                let n = 96u64;
                let mut x = 0x5eed_0002u64;
                let edges = (0..144)
                    .map(|_| {
                        (
                            (xorshift(&mut x) % n) as u32,
                            (xorshift(&mut x) % n) as u32,
                        )
                    })
                    .collect();
                (n, edges)
            }
            DeltaFamily::GrowCut => {
                let n = 64u64;
                (n, (0..31).map(|i| (i, i + 1)).collect())
            }
        }
    }

    /// Draws the next operation of the stream. Deletions pick a uniformly
    /// random *present* edge, so every remove is legal by construction.
    fn next_op(
        &self,
        x: &mut u64,
        step: usize,
        steps: usize,
        n: u64,
        current: &[(u32, u32)],
    ) -> Op {
        let add_bias = match self {
            DeltaFamily::CycleStitch => 80,
            DeltaFamily::Churn => 55,
            DeltaFamily::GrowCut => {
                if step < steps * 3 / 5 {
                    90
                } else {
                    30
                }
            }
        };
        if xorshift(x) % 100 < add_bias || current.is_empty() {
            let mut u = (xorshift(x) % n) as u32;
            let mut v = (xorshift(x) % n) as u32;
            // The grow phase wants cycles: bias toward back edges against
            // the base path's direction.
            if *self == DeltaFamily::GrowCut && step < steps * 3 / 5 && u < v {
                std::mem::swap(&mut u, &mut v);
            }
            Op::Add(u, v)
        } else {
            Op::Remove(xorshift(x) as usize % current.len())
        }
    }
}

/// One step of a delta stream.
enum Op {
    Add(u32, u32),
    /// Index into the current edge multiset.
    Remove(usize),
}

/// Deterministic xorshift64 (seeds must be nonzero).
pub(crate) fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Canonical (minimum-member) representatives of `edges` over `n` nodes,
/// straight through in-memory Tarjan — the from-scratch side of the
/// differential.
fn canonical(n: u64, edges: &[(u32, u32)]) -> Vec<NodeId> {
    let es: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
    tarjan_scc(&CsrGraph::from_edges(n, &es)).canonical_reps()
}

/// What one family's stream did, and whether it stayed equivalent to the
/// from-scratch rebuild at every step.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Family name.
    pub family: &'static str,
    /// Steps driven through [`DeltaEngine::apply`].
    pub steps: usize,
    /// Insertions / deletions in the stream.
    pub adds: u64,
    /// Deletions in the stream.
    pub removes: u64,
    /// Cycle-creating merges the engine performed.
    pub merges: u64,
    /// Components dirtied by intra-component deletions.
    pub dirty_marked: u64,
    /// Components in the final index.
    pub final_components: u64,
    /// Final index generation (every materialized update bumps it).
    pub final_generation: u64,
    /// Worst page-write cost over all non-merge steps — the O(1) bound.
    pub max_metadata_write_ios: u64,
    /// Pages in the artifact's label section (the thing a from-scratch
    /// rebuild rewrites wholesale; `max_metadata_write_ios` must not
    /// scale with it).
    pub label_pages: u64,
    /// Logical I/Os of every [`DeltaEngine::apply`] in the stream, summed —
    /// deterministic for a given family, step count and seed.
    pub total_ios: u64,
    /// First divergence from the scratch labeling, if any.
    pub mismatch: Option<String>,
}

impl DeltaRow {
    /// Did the stream stay equivalent to from-scratch at every step?
    pub fn ok(&self) -> bool {
        self.mismatch.is_none()
    }
}

impl fmt::Display for DeltaRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<13} {:>5} steps ({:>4} add / {:>4} remove)  merges {:>3}  dirty {:>3}  \
             gen {:>4}  sccs {:>4}  metadata-writes<= {}  label-pages {}  {}",
            self.family,
            self.steps,
            self.adds,
            self.removes,
            self.merges,
            self.dirty_marked,
            self.final_generation,
            self.final_components,
            self.max_metadata_write_ios,
            self.label_pages,
            if self.ok() { "ok" } else { "DIVERGED" },
        )
    }
}

/// Drives one family's deterministic stream of `steps` single-edge deltas
/// through [`DeltaEngine::apply`], checking the maintained index against a
/// from-scratch in-memory Tarjan rebuild **after every step**, then
/// reopens the artifact from disk and re-checks every node's label.
pub fn run_delta_stream(family: DeltaFamily, steps: usize, seed: u64) -> io::Result<DeltaRow> {
    let env = DiskEnv::new_temp(IoConfig::new(BLOCK, 8 << 10))?;
    let (n, base) = family.base();
    let mut current = base.clone();

    // Build the condensation-bearing index from the base graph.
    let es: Vec<Edge> = base.iter().map(|&(u, v)| Edge::new(u, v)).collect();
    let f = env.file_from_slice("delta-base-edges", &es)?;
    let g = EdgeListGraph::new(f, n);
    let reps = canonical(n, &base);
    let labs: Vec<SccLabel> = reps
        .iter()
        .enumerate()
        .map(|(i, &r)| SccLabel::new(i as u32, r))
        .collect();
    let lf = env.file_from_slice("delta-base-labs", &labs)?;
    let counted = condense_counted(&env, &g, &lf)?;
    let path = env.root().join(format!("delta-{}.sccidx", family.name()));
    SccIndex::build(&env, &path, &lf, n, Some(&counted))?;

    let mut row = DeltaRow {
        family: family.name(),
        steps,
        adds: 0,
        removes: 0,
        merges: 0,
        dirty_marked: 0,
        final_components: 0,
        final_generation: 0,
        max_metadata_write_ios: 0,
        label_pages: (n * 4).div_ceil(BLOCK as u64),
        total_ios: 0,
        mismatch: None,
    };

    let mut eng = DeltaEngine::open(&env, &g, &path)?;
    let mut x = seed | 1;
    for step in 0..steps {
        let report = match family.next_op(&mut x, step, steps, n, &current) {
            Op::Add(u, v) => {
                current.push((u, v));
                row.adds += 1;
                eng.apply(&DeltaBatch::new().add(u, v))?
            }
            Op::Remove(i) => {
                let (u, v) = current.swap_remove(i);
                row.removes += 1;
                eng.apply(&DeltaBatch::new().remove(u, v))?
            }
        };
        row.merges += report.merges;
        row.dirty_marked += report.dirty_marked;
        row.total_ios += report.ios.total_ios();
        if report.merges == 0 {
            let writes = report.ios.seq_writes + report.ios.rand_writes;
            row.max_metadata_write_ios = row.max_metadata_write_ios.max(writes);
        }
        let want = canonical(n, &current);
        let got = eng.labels_snapshot()?;
        if got != want {
            row.mismatch = Some(format!(
                "{}: step {step}: maintained labels diverge from the scratch rebuild",
                family.name()
            ));
            return Ok(row);
        }
    }
    row.final_components = eng.n_sccs();
    row.final_generation = eng.generation();
    drop(eng);

    // Durability: the renamed artifact must reopen through full checksum
    // validation and answer point queries exactly like scratch.
    let want = canonical(n, &current);
    let idx = SccIndex::open(&env, &path)?;
    for u in 0..n as u32 {
        let got = idx.component_of(u)?;
        if got != want[u as usize] {
            row.mismatch = Some(format!(
                "{}: reopened artifact says component_of({u}) = {got}, scratch says {}",
                family.name(),
                want[u as usize]
            ));
            return Ok(row);
        }
    }
    Ok(row)
}

/// Runs every [`DeltaFamily`] for `steps` steps each. The caller asserts
/// `row.ok()` per row (and whatever coverage floors it wants on the
/// taxonomy counters).
pub fn run_delta_matrix(steps: usize, seed: u64) -> io::Result<Vec<DeltaRow>> {
    DeltaFamily::all()
        .iter()
        .map(|&f| run_delta_stream(f, steps, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_streams_agree_with_scratch_in_every_family() {
        let rows = run_delta_matrix(40, 0xd1f).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.ok(), "{row}");
            assert!(row.adds > 0, "{row}");
            // Non-merge maintenance is constant pages: journal + header +
            // a DAG page or two + the (small) dirty section when a DAG
            // append shifts it — never the label section. The growth-
            // independence of this bound is pinned separately by the
            // ce-graph unit test comparing 8- vs 512-node graphs.
            assert!(
                row.max_metadata_write_ios <= 8,
                "metadata step wrote {} pages: {row}",
                row.max_metadata_write_ios
            );
        }
        let (merges, dirty, removes) = rows.iter().fold((0, 0, 0), |a, r| {
            (a.0 + r.merges, a.1 + r.dirty_marked, a.2 + r.removes)
        });
        assert!(merges > 0, "no family exercised a merge");
        assert!(dirty > 0, "no family exercised dirty-marking");
        assert!(removes > 0, "no family exercised deletions");

        // Logical I/O is a deterministic function of the stream: replaying
        // the same matrix must charge every family exactly the same total.
        let again = run_delta_matrix(40, 0xd1f).unwrap();
        for (a, b) in rows.iter().zip(&again) {
            assert!(a.total_ios > 0, "{a}");
            assert_eq!(
                a.total_ios, b.total_ios,
                "{}: delta I/O must repeat exactly",
                a.family
            );
        }
    }
}
