//! Incremental SCC index maintenance — the delta engine.
//!
//! The batch pipeline computes a partition once; this module keeps a stored
//! index artifact ([`SccIndex`]) **current under edge insertions and
//! deletions** without
//! recomputing it, following the standard dynamic-SCC playbook (maintain
//! the condensation, localize work to the part of the DAG an update can
//! actually affect):
//!
//! * **Insert `(u, v)`, same component** — the partition cannot change
//!   (the edge lands inside an existing SCC). Metadata-only: the edge is
//!   journaled and nothing else moves.
//! * **Insert `(u, v)`, cross-component, DAG-order-respecting** — if the
//!   condensation already has `comp(u) → comp(v)`, its multiplicity is
//!   reinforced in place; if the DAG has no path `comp(v) ⇝ comp(u)`, the
//!   edge cannot close a cycle (any node-level path `v ⇝ u` would project
//!   onto a component-level path), so a new condensation edge is appended.
//!   Either way: `O(1)` page writes.
//! * **Insert `(u, v)`, cycle-creating** — the affected region is exactly
//!   the components on some DAG path `comp(v) ⇝ comp(u)` (computed as the
//!   backward cone of `comp(u)` intersected with a forward walk from
//!   `comp(v)` bounded to that cone). The in-memory SCC kernel
//!   ([`crate::tarjan::tarjan_scc`]) re-runs on that small condensation
//!   subgraph plus the new edge, and the resulting merge rewrites **only**
//!   the label pages owning affected nodes, the size table, and the DAG
//!   section — into a new index generation.
//! * **Delete `(u, v)`, cross-component** — deleting an edge that lies in
//!   no SCC can never split or merge one; the condensation multiplicity is
//!   weakened (tombstoned at zero), `O(1)` page writes. A deletion with no
//!   supporting condensation edge is rejected — the edge is not in the
//!   current graph.
//! * **Delete `(u, v)`, same component** — may split the component, but
//!   deciding requires its induced subgraph, so the work is deferred: the
//!   component is marked **dirty** and its labels become a conservative
//!   *coarsening* of the true partition. The first query that touches a
//!   dirty component (or an explicit [`DeltaEngine::compact`]) re-runs the
//!   kernel on the component's induced subgraph — reconstructed from the
//!   base edge file plus the journal — and rewrites exactly the affected
//!   labels/sizes/DAG records.
//!
//! ## The coarsening invariant
//!
//! Between re-verifications the stored labels always **coarsen** the true
//! SCC partition of the current graph (base edges ⊎ journal): every true
//! SCC lies wholly inside one stored component, and components not marked
//! dirty are exact. Each operation preserves it: merges only coarsen
//! further (and the merged component is exact when every affected
//! component was clean — component-level paths lift to node-level paths
//! through exact components); cross-edge deletions touch no SCC;
//! intra-edge deletions mark their component dirty; and re-verification of
//! a dirty component is exact because any cycle of the induced subgraph is
//! a cycle of the full graph, so no true SCC crosses a component boundary.
//! This is also why lazy per-component re-verification is sound without
//! looking at any *other* dirty component.
//!
//! ## Crash safety and generations
//!
//! An update never writes into the live artifact. The engine reads the live
//! generation through an [`SccIndexReader`] priced in the environment's
//! ledger and writes only through the environment's pager, so fault
//! injection covers every transfer of a commit. [`DeltaEngine::apply`]
//! journals the batch to the sidecar and syncs it (the old header ignores
//! the new tail), then forks the artifact file with an OS-level copy (an
//! uncounted metadata-ish clone; reflink-capable filesystems make it
//! cheap), patches the touched pages of the **copy** through the counted
//! pager, writes the new header (generation + 1) last, syncs the copy, and
//! atomically renames it over the path. Those syncs and the build's are the
//! barriers that make a commit durable. A crash or injected I/O fault at
//! any point leaves the previous generation fully readable at the path;
//! readers opened before the rename keep serving their generation from the
//! old inode. The engine itself stays consistent too. It mutates its
//! in-memory condensation DAG in place under an **undo log**: while a
//! transaction is open, every change first records the edge's
//! `(src, dst, old count)`. A guard replays the log in reverse when an
//! apply, a re-verification or a compact fails before its rename — by an
//! error or a panic alike — and the rename's success clears it. The dirty
//! set and the DAG's slot map stay transaction-local until the rename. So
//! a failed `apply` leaves the engine exactly as it was and can simply be
//! retried, and a successful one does memory work proportional to what it
//! changes instead of copying the DAG. After the rename the engine reads
//! the new generation through a reader built from the header it just
//! wrote, without re-validating the artifact.
//!
//! Logical I/O is priced end to end in the environment's
//! [`IoStats`](ce_extmem::IoStats): classification pays the index point
//! reads, a metadata-only update pays `O(1)` page writes, a merge pays a
//! sequential label scan plus writes to only the affected pages, and the
//! whole apply is wrapped in `delta_classify` / `delta_merge`
//! (re-verification in `delta_compact`) spans for the tracing sinks.
//!
//! The node universe is fixed at build time (`0..n_nodes`); deltas mutate
//! edges, not nodes. The journal records node-level operations, so the
//! current edge multiset is always `base ⊎ journal` — deletions remove one
//! instance of a multi-edge at a time.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

use ce_extmem::file::CountedFile;
use ce_extmem::{DiskEnv, IoSnapshot, SharedFile};

use crate::csr::CsrGraph;
use crate::edgelist::EdgeListGraph;
use crate::index::{
    align_up, bad, journal_path, page_hash, read_exact_at, Fnv, Header, SccIndex, SccIndexReader,
    DAG_ENTRY, DIRTY_ENTRY, JOURNAL_ENTRY, SIZE_ENTRY,
};
use crate::tarjan::tarjan_scc;
use crate::types::{CountedEdge, Edge, NodeId};

/// One batch of edge mutations: insertions are applied in order, then
/// deletions in order. Edges form a multiset — inserting `(u, v)` twice
/// yields two instances, and one deletion removes one instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Edges to insert, applied first, in order.
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// Edges to delete, applied after all insertions, in order.
    pub edges_removed: Vec<(NodeId, NodeId)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Builder: queue an insertion.
    pub fn add(mut self, u: NodeId, v: NodeId) -> DeltaBatch {
        self.edges_added.push((u, v));
        self
    }

    /// Builder: queue a deletion.
    pub fn remove(mut self, u: NodeId, v: NodeId) -> DeltaBatch {
        self.edges_removed.push((u, v));
        self
    }

    /// True when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.edges_added.is_empty() && self.edges_removed.is_empty()
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.edges_added.len() + self.edges_removed.len()
    }
}

/// What one [`DeltaEngine::apply`] did, with its exact logical I/O cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Index generation after the apply (unchanged for an empty batch).
    pub generation: u64,
    /// Insertions that landed inside an existing component (journal-only).
    pub intra_added: u64,
    /// Insertions that appended a new condensation edge.
    pub dag_appended: u64,
    /// Insertions that reinforced an existing condensation edge's count.
    pub dag_reinforced: u64,
    /// Cycle-creating insertions (each merged ≥ 2 components).
    pub merges: u64,
    /// Total components absorbed into merge groups (group members).
    pub merged_components: u64,
    /// Total nodes in all merged components.
    pub merged_nodes: u64,
    /// Components newly marked dirty by intra-component deletions.
    pub dirty_marked: u64,
    /// Deletions that decremented a condensation edge's count (still > 0).
    pub dag_weakened: u64,
    /// Deletions that dropped a condensation edge to a tombstone.
    pub dag_dropped: u64,
    /// Label pages rewritten (only pages owning affected nodes).
    pub label_pages_rewritten: u64,
    /// Logical I/O of the whole apply (classification + materialization).
    pub ios: IoSnapshot,
}

/// What one re-verification ([`DeltaEngine::compact`] or a lazy query
/// trigger) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Index generation after the compact (unchanged if nothing was dirty).
    pub generation: u64,
    /// Dirty components re-verified.
    pub components_reverified: u64,
    /// Components those produced (≥ the number re-verified; larger means
    /// deletions had genuinely split components).
    pub components_after: u64,
    /// Nodes whose stored label changed.
    pub relabeled_nodes: u64,
    /// Tombstoned condensation-DAG slots reclaimed (records whose count
    /// had dropped to zero; the rewrite leaves only live edges on disk).
    pub dag_slots_reclaimed: u64,
    /// Logical I/O of the whole compact.
    pub ios: IoSnapshot,
}

/// In-memory adjacency over the stored condensation DAG: multiplicity per
/// component edge plus forward/backward neighbor sets for the reachability
/// walks. Loaded once at [`DeltaEngine::open`] and mutated in place by
/// every transaction — the semi-external stance of the workspace
/// (node-proportional state in memory, edge files on disk) applied to the
/// condensation, which is the *small* quotient of the graph.
#[derive(Debug, Default)]
pub(crate) struct DagAdj {
    counts: BTreeMap<(NodeId, NodeId), u32>,
    fwd: HashMap<NodeId, BTreeSet<NodeId>>,
    bwd: HashMap<NodeId, BTreeSet<NodeId>>,
    /// While a transaction is open: `(src, dst, old count)` of every change
    /// since [`DagAdj::begin`], oldest first.
    undo: Option<Vec<(NodeId, NodeId, u32)>>,
}

impl DagAdj {
    fn count(&self, s: NodeId, d: NodeId) -> u32 {
        self.counts.get(&(s, d)).copied().unwrap_or(0)
    }

    /// Adds `c` instances of `s → d` (saturating).
    fn add(&mut self, s: NodeId, d: NodeId, c: u32) {
        debug_assert_ne!(s, d, "condensation edges are never loops");
        self.set(s, d, self.count(s, d).saturating_add(c));
    }

    /// Sets the multiplicity of `s → d`; zero removes the edge. Logs the
    /// old multiplicity while a transaction is open.
    fn set(&mut self, s: NodeId, d: NodeId, c: u32) {
        let old = if c == 0 {
            self.counts.remove(&(s, d))
        } else {
            self.counts.insert((s, d), c)
        };
        if let Some(log) = &mut self.undo {
            log.push((s, d, old.unwrap_or(0)));
        }
        // Adjacency membership follows `count > 0`.
        if c == 0 && old.is_some() {
            if let Some(n) = self.fwd.get_mut(&s) {
                n.remove(&d);
                if n.is_empty() {
                    self.fwd.remove(&s);
                }
            }
            if let Some(n) = self.bwd.get_mut(&d) {
                n.remove(&s);
                if n.is_empty() {
                    self.bwd.remove(&d);
                }
            }
        } else if c > 0 && old.is_none() {
            self.fwd.entry(s).or_default().insert(d);
            self.bwd.entry(d).or_default().insert(s);
        }
    }

    /// Opens a transaction: every change from here on is logged.
    fn begin(&mut self) {
        debug_assert!(self.undo.is_none(), "transactions do not nest");
        self.undo = Some(Vec::new());
    }

    /// Keeps every change of the open transaction (a no-op when none is
    /// open).
    fn commit(&mut self) {
        self.undo = None;
    }

    /// Undoes every change of the open transaction, newest first (a no-op
    /// when none is open). Restoring the counts restores `fwd` and `bwd`.
    fn rollback(&mut self) {
        if let Some(log) = self.undo.take() {
            for (s, d, c) in log.into_iter().rev() {
                self.set(s, d, c);
            }
        }
    }

    /// Is there a DAG path `from ⇝ to`? (`true` for `from == to`.)
    fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = HashSet::new();
        let mut work = vec![from];
        seen.insert(from);
        while let Some(x) = work.pop() {
            if let Some(nbrs) = self.fwd.get(&x) {
                for &y in nbrs {
                    if y == to {
                        return true;
                    }
                    if seen.insert(y) {
                        work.push(y);
                    }
                }
            }
        }
        false
    }

    /// All components that can reach `to` (including `to` itself).
    fn backward_cone(&self, to: NodeId) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut work = vec![to];
        seen.insert(to);
        while let Some(x) = work.pop() {
            if let Some(nbrs) = self.bwd.get(&x) {
                for &y in nbrs {
                    if seen.insert(y) {
                        work.push(y);
                    }
                }
            }
        }
        seen
    }

    /// Components reachable from `from` while staying inside `within`
    /// (including `from`). With `within` = the backward cone of `to`, this
    /// is exactly the set of components on some path `from ⇝ to`.
    fn forward_within(&self, from: NodeId, within: &HashSet<NodeId>) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut work = vec![from];
        seen.insert(from);
        while let Some(x) = work.pop() {
            if let Some(nbrs) = self.fwd.get(&x) {
                for &y in nbrs {
                    if within.contains(&y) && seen.insert(y) {
                        work.push(y);
                    }
                }
            }
        }
        seen
    }

    /// Rewrites every edge touching `group` with its members mapped to `l`,
    /// dropping edges that become loops (they turned intra-component) and
    /// combining multiplicities.
    fn remap(&mut self, group: &HashSet<NodeId>, l: NodeId) {
        let mut touched: Vec<(NodeId, NodeId, u32)> = Vec::new();
        for &g in group {
            for d in self.fwd.get(&g).cloned().unwrap_or_default() {
                touched.push((g, d, self.count(g, d)));
            }
            for s in self.bwd.get(&g).cloned().unwrap_or_default() {
                if !group.contains(&s) {
                    touched.push((s, g, self.count(s, g)));
                }
            }
        }
        for &(s, d, _) in &touched {
            self.set(s, d, 0);
        }
        for (s, d, c) in touched {
            let s = if group.contains(&s) { l } else { s };
            let d = if group.contains(&d) { l } else { d };
            if s != d {
                self.add(s, d, c);
            }
        }
    }

    /// Drops every edge with an endpoint in `set`.
    fn drop_touching(&mut self, set: &BTreeSet<NodeId>) {
        let mut doomed: Vec<(NodeId, NodeId)> = Vec::new();
        for &r in set {
            for d in self.fwd.get(&r).cloned().unwrap_or_default() {
                doomed.push((r, d));
            }
            for s in self.bwd.get(&r).cloned().unwrap_or_default() {
                doomed.push((s, r));
            }
        }
        for (s, d) in doomed {
            self.set(s, d, 0);
        }
    }

    /// Live edges in `(src, dst)` order — the canonical rewrite form.
    fn live_sorted(&self) -> Vec<CountedEdge> {
        self.counts
            .iter()
            .map(|(&(s, d), &c)| CountedEdge::new(s, d, c))
            .collect()
    }
}

/// Per-batch union-find over component representatives: merges decided
/// earlier in a batch must be visible to the classification of later edges
/// in the same batch, before anything is materialized.
#[derive(Default)]
struct Overlay {
    parent: HashMap<NodeId, NodeId>,
}

impl Overlay {
    fn find(&mut self, x: NodeId) -> NodeId {
        let mut root = x;
        while let Some(&p) = self.parent.get(&root) {
            root = p;
        }
        // Path compression.
        let mut cur = x;
        while cur != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    fn merge_into(&mut self, absorbed: NodeId, l: NodeId) {
        if absorbed != l {
            self.parent.insert(absorbed, l);
        }
    }

    /// Final `old representative → merged representative` map.
    fn relabel_map(&mut self) -> HashMap<NodeId, NodeId> {
        let keys: Vec<NodeId> = self.parent.keys().copied().collect();
        keys.into_iter()
            .filter_map(|k| {
                let root = self.find(k);
                (root != k).then_some((k, root))
            })
            .collect()
    }
}

/// How the labels section changes in one materialization.
enum LabelPatch {
    /// No label changes.
    None,
    /// Merge: every stored label equal to a key maps to its value.
    ByRep(HashMap<NodeId, NodeId>),
    /// Re-verification: listed nodes get new labels.
    ByNode(HashMap<NodeId, NodeId>),
}

/// A fully classified, not-yet-written update: everything `materialize`
/// needs besides the engine's (already mutated) DAG and the new dirty set.
struct Plan {
    journal: Vec<[u8; JOURNAL_ENTRY as usize]>,
    label_patch: LabelPatch,
    /// Full new size table (sorted by rep) when components changed.
    sizes: Option<Vec<(NodeId, u64)>>,
    /// Rewrite the whole DAG section from the engine's `DagAdj`.
    rewrite_dag: bool,
    /// In-place record patches `(key, final count)` — only when not
    /// rewriting; `0` leaves a tombstone.
    patches: Vec<((NodeId, NodeId), u32)>,
    /// New records appended at the tail — only when not rewriting.
    appends: Vec<CountedEdge>,
    /// Dirty-set content changed (the section may still move with the DAG).
    dirty_changed: bool,
}

impl Plan {
    fn new() -> Plan {
        Plan {
            journal: Vec::new(),
            label_patch: LabelPatch::None,
            sizes: None,
            rewrite_dag: false,
            patches: Vec::new(),
            appends: Vec::new(),
            dirty_changed: false,
        }
    }
}

/// An open transaction on the engine's DAG. On drop it rolls the DAG back
/// to its state at [`Txn::begin`] unless [`DeltaEngine::materialize`] has
/// committed it, so an error return and a panic leave the engine alike.
struct Txn<'e, 'a>(&'e mut DeltaEngine<'a>);

impl<'e, 'a> Txn<'e, 'a> {
    fn begin(eng: &'e mut DeltaEngine<'a>) -> Txn<'e, 'a> {
        eng.dag.begin();
        Txn(eng)
    }
}

impl Drop for Txn<'_, '_> {
    fn drop(&mut self) {
        self.0.dag.rollback();
    }
}

fn journal_record(tag: u32, u: NodeId, v: NodeId) -> [u8; JOURNAL_ENTRY as usize] {
    let mut rec = [0u8; JOURNAL_ENTRY as usize];
    rec[0..4].copy_from_slice(&tag.to_le_bytes());
    rec[4..8].copy_from_slice(&u.to_le_bytes());
    rec[8..12].copy_from_slice(&v.to_le_bytes());
    rec
}

/// The write handle over a stored index artifact: classifies and applies
/// [`DeltaBatch`]es, maintains the dirty set, and re-verifies lazily. One
/// engine owns the artifact's write path; concurrent readers keep using
/// [`SccIndexReader`] handles and swap to the new generation whenever they
/// choose to reopen.
///
/// The engine holds the base graph the index was built from — deltas are
/// journaled on top of it, so the current edge multiset is
/// `base ⊎ journal` and re-verification can reconstruct any component's
/// induced subgraph without a full graph rewrite.
pub struct DeltaEngine<'a> {
    env: &'a DiskEnv,
    base: &'a EdgeListGraph,
    path: PathBuf,
    /// The live generation, priced in `env`'s ledger.
    index: SccIndexReader,
    dag: DagAdj,
    /// Record slot of every stored DAG record (tombstones included — a
    /// re-added edge reuses its tombstone's slot).
    dag_pos: HashMap<(NodeId, NodeId), u64>,
    dirty: BTreeSet<NodeId>,
    journal: CountedFile,
}

impl std::fmt::Debug for DeltaEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaEngine")
            .field("path", &self.path)
            .field("generation", &self.index.generation())
            .field("n_sccs", &self.index.n_sccs())
            .field("n_dirty", &(self.dirty.len() as u64))
            .field("n_journal", &self.index.hdr.n_journal)
            .finish()
    }
}

impl<'a> DeltaEngine<'a> {
    /// Opens the artifact at `path` for maintenance. Validates the artifact
    /// (same protocol as [`SccIndex::open`]), requires the condensation DAG
    /// section, requires `env`'s block size to equal the artifact's page
    /// size, validates the journal sidecar against the header's
    /// authenticated prefix, and loads the DAG adjacency and dirty set.
    pub fn open(
        env: &'a DiskEnv,
        base: &'a EdgeListGraph,
        path: &Path,
    ) -> io::Result<DeltaEngine<'a>> {
        let index = SccIndex::open(env, path)?;
        if !index.has_condensation() {
            return Err(bad(
                "the index was built without the condensation DAG section, which the \
                 delta engine needs to classify updates; rebuild it with \
                 `scc index build --with-condensation` \
                 (`SccSession::condensation(true)` from the API)",
            ));
        }
        let hdr = index.hdr;
        let block = env.config().block_size as u64;
        if block != hdr.page_size {
            return Err(bad(&format!(
                "environment block size {block} does not match the artifact's page \
                 size {} — delta updates patch whole pages, so the geometries must \
                 agree (sniff the page size first; `scc index apply` does)",
                hdr.page_size
            )));
        }
        if base.n_nodes() != hdr.n_nodes {
            return Err(bad(&format!(
                "base graph covers {} nodes but the index covers {} — the delta \
                 engine needs the graph the index was built from",
                base.n_nodes(),
                hdr.n_nodes
            )));
        }

        // DAG records (tombstones included: they own reusable slots).
        let mut dag = DagAdj::default();
        let mut dag_pos = HashMap::new();
        let mut at = 0u64;
        let mut chunk = vec![0u8; hdr.page_size as usize];
        while at < hdr.n_dag_edges {
            let take = (hdr.n_dag_edges - at).min(chunk.len() as u64 / DAG_ENTRY);
            let bytes = (take * DAG_ENTRY) as usize;
            let off = hdr.dag_off + at * DAG_ENTRY;
            read_exact_at(&index.file, off, &mut chunk[..bytes], "dag section")?;
            for i in 0..take as usize {
                let raw = &chunk[i * DAG_ENTRY as usize..(i + 1) * DAG_ENTRY as usize];
                let s = NodeId::from_le_bytes(raw[0..4].try_into().unwrap());
                let d = NodeId::from_le_bytes(raw[4..8].try_into().unwrap());
                let c = u32::from_le_bytes(raw[8..12].try_into().unwrap());
                dag_pos.insert((s, d), at + i as u64);
                if c > 0 {
                    dag.add(s, d, c);
                }
            }
            at += take;
        }

        let dirty = index.dirty_components().collect::<io::Result<BTreeSet<NodeId>>>()?;

        // Journal sidecar: open (create when this generation has no
        // entries), then validate exactly the authenticated prefix.
        let jpath = journal_path(path);
        let exists = std::fs::metadata(&jpath).is_ok();
        let mut journal = if exists {
            CountedFile::open_rw(env, &jpath)?
        } else if hdr.n_journal == 0 {
            CountedFile::create_persistent(env, &jpath)?
        } else {
            return Err(bad(&format!(
                "journal sidecar {} is missing but the header records {} entries",
                jpath.display(),
                hdr.n_journal
            )));
        };
        let mut fnv = Fnv::new();
        let mut at = 0u64;
        let end = hdr.n_journal * JOURNAL_ENTRY;
        while at < end {
            let take = ((end - at) as usize).min(chunk.len());
            if journal.read_at(at, &mut chunk[..take])? != take {
                return Err(bad("journal sidecar truncated below the header's prefix"));
            }
            fnv.update(&chunk[..take]);
            at += take as u64;
        }
        if fnv.finish() != hdr.journal_fnv {
            return Err(bad("journal sidecar does not match the index header"));
        }

        Ok(DeltaEngine {
            env,
            base,
            path: path.to_path_buf(),
            index,
            dag,
            dag_pos,
            dirty,
            journal,
        })
    }

    /// Current index generation.
    pub fn generation(&self) -> u64 {
        self.index.generation()
    }

    /// Current number of stored components (dirty components count once —
    /// their possible splits are not yet materialized).
    pub fn n_sccs(&self) -> u64 {
        self.index.n_sccs()
    }

    /// Nodes covered by the index (fixed at build).
    pub fn n_nodes(&self) -> u64 {
        self.index.n_nodes()
    }

    /// Components currently marked dirty.
    pub fn n_dirty(&self) -> u64 {
        self.dirty.len() as u64
    }

    /// Representatives of the dirty components, ascending.
    pub fn dirty_components(&self) -> Vec<NodeId> {
        self.dirty.iter().copied().collect()
    }

    /// Journal entries accumulated since the build.
    pub fn n_journal(&self) -> u64 {
        self.index.hdr.n_journal
    }

    /// Live condensation edges, `(src, dst)` sorted, from memory (no I/O).
    pub fn condensation_edges(&self) -> Vec<CountedEdge> {
        self.dag.live_sorted()
    }

    /// Applies one batch: classifies every operation against the current
    /// index (span `delta_classify`), then journals and materializes a new
    /// generation (span `delta_merge`). On error nothing is changed — the
    /// engine and the artifact both stay at the current generation, and the
    /// apply can be retried.
    pub fn apply(&mut self, batch: &DeltaBatch) -> io::Result<DeltaReport> {
        let before = self.env.stats().snapshot();
        if batch.is_empty() {
            return Ok(DeltaReport {
                generation: self.index.generation(),
                ..DeltaReport::default()
            });
        }
        for &(u, v) in batch.edges_added.iter().chain(&batch.edges_removed) {
            if u as u64 >= self.index.n_nodes() || v as u64 >= self.index.n_nodes() {
                return Err(bad(&format!(
                    "edge ({u}, {v}) is outside the index's node universe (0..{}); \
                     delta maintenance never grows the node set",
                    self.index.n_nodes()
                )));
            }
        }

        // ---- Classification: the DAG in place, everything else local. ----
        let tx = Txn::begin(self);
        let this = &mut *tx.0;
        let sp = ce_extmem::io_span!(
            this.env,
            "delta_classify",
            adds = batch.edges_added.len(),
            removes = batch.edges_removed.len(),
        );
        let dag = &mut this.dag;
        let mut dirty = this.dirty.clone();
        let mut overlay = Overlay::default();
        let mut plan = Plan::new();
        let mut report = DeltaReport::default();
        let mut merged_groups: Vec<Vec<NodeId>> = Vec::new();
        // Keys whose stored record must change, split by whether a slot
        // already exists on disk (tombstones reuse their slot).
        let mut touched: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut new_keys: Vec<(NodeId, NodeId)> = Vec::new();
        let mut new_seen: HashSet<(NodeId, NodeId)> = HashSet::new();

        for &(u, v) in &batch.edges_added {
            let ru = overlay.find(this.index.component_of(u)?);
            let rv = overlay.find(this.index.component_of(v)?);
            plan.journal.push(journal_record(0, u, v));
            if ru == rv {
                report.intra_added += 1;
                continue;
            }
            let key = (ru, rv);
            if dag.count(ru, rv) > 0 {
                dag.add(ru, rv, 1);
                report.dag_reinforced += 1;
            } else if dag.reaches(rv, ru) {
                // Cycle: merge every component on some rv ⇝ ru path.
                let cone = dag.backward_cone(ru);
                let affected = dag.forward_within(rv, &cone);
                let mut ids: Vec<NodeId> = affected.iter().copied().collect();
                ids.sort_unstable();
                let pos: HashMap<NodeId, u32> = ids
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| (r, i as u32))
                    .collect();
                let mut edges: Vec<Edge> = Vec::new();
                for &a in &ids {
                    if let Some(nbrs) = dag.fwd.get(&a) {
                        for &b in nbrs {
                            if affected.contains(&b) {
                                edges.push(Edge::new(pos[&a], pos[&b]));
                            }
                        }
                    }
                }
                edges.push(Edge::new(pos[&ru], pos[&rv]));
                let res = tarjan_scc(&CsrGraph::from_edges(ids.len() as u64, &edges));
                let mut groups: HashMap<u32, Vec<NodeId>> = HashMap::new();
                for (i, &c) in res.comp.iter().enumerate() {
                    groups.entry(c).or_default().push(ids[i]);
                }
                for (_, members) in groups {
                    if members.len() < 2 {
                        continue;
                    }
                    // Canonical labeling: every rep is the minimum member
                    // id of its component, so the merged component's
                    // canonical rep is the minimum of the merged reps.
                    let l = *members.iter().min().unwrap();
                    let was_dirty = members.iter().any(|m| dirty.contains(m));
                    let set: HashSet<NodeId> = members.iter().copied().collect();
                    for &m in &members {
                        overlay.merge_into(m, l);
                        dirty.remove(&m);
                    }
                    if was_dirty {
                        // A coarse constituent keeps the merged component
                        // conservative: it stays dirty.
                        dirty.insert(l);
                    }
                    dag.remap(&set, l);
                    report.merges += 1;
                    report.merged_components += members.len() as u64;
                    merged_groups.push(members);
                }
                continue; // the new edge became intra-component
            } else {
                // No rv ⇝ ru path: the insert respects the DAG order.
                dag.add(ru, rv, 1);
                report.dag_appended += 1;
            }
            if this.dag_pos.contains_key(&key) {
                touched.insert(key);
            } else if new_seen.insert(key) {
                new_keys.push(key);
            }
        }

        for &(u, v) in &batch.edges_removed {
            let ru = overlay.find(this.index.component_of(u)?);
            let rv = overlay.find(this.index.component_of(v)?);
            plan.journal.push(journal_record(1, u, v));
            if ru == rv {
                // Intra-component: possibly splits — defer to lazy
                // re-verification. Self-loop deletions can never split.
                if u != v && dirty.insert(ru) {
                    report.dirty_marked += 1;
                }
            } else {
                let c = dag.count(ru, rv);
                if c == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "cannot remove edge ({u}, {v}): no {ru} → {rv} \
                             condensation edge — the edge is not in the current graph"
                        ),
                    ));
                }
                dag.set(ru, rv, c - 1);
                if c == 1 {
                    report.dag_dropped += 1;
                } else {
                    report.dag_weakened += 1;
                }
                let key = (ru, rv);
                if this.dag_pos.contains_key(&key) {
                    touched.insert(key);
                } else if new_seen.insert(key) {
                    new_keys.push(key);
                }
            }
        }
        drop(sp);

        // ---- Turn classification into a write plan. ----
        plan.dirty_changed = dirty != this.dirty;
        if merged_groups.is_empty() {
            plan.patches = touched.iter().map(|&k| (k, dag.count(k.0, k.1))).collect();
            plan.appends = new_keys
                .iter()
                .filter_map(|&(s, d)| {
                    let c = dag.count(s, d);
                    (c > 0).then_some(CountedEdge::new(s, d, c))
                })
                .collect();
        } else {
            // A merge rewrites the size table (components disappear) and
            // therefore the sections behind it. One pass over the stored
            // table folds it through the final merge mapping: the table is
            // sorted by representative, and every absorbed representative
            // maps to its group's minimum, which comes first — so absorbed
            // sizes add into an entry already emitted.
            plan.rewrite_dag = true;
            let relabel = overlay.relabel_map();
            // How often each representative occurs across the groups (a
            // group's minimum may be a member of a later group again).
            let mut occurs: HashMap<NodeId, u64> = HashMap::new();
            for &r in merged_groups.iter().flatten() {
                *occurs.entry(r).or_insert(0) += 1;
            }
            let mut sizes: Vec<(NodeId, u64)> = Vec::with_capacity(this.index.n_sccs() as usize);
            for entry in this.index.components() {
                let (rep, size) = entry?;
                report.merged_nodes += occurs.get(&rep).copied().unwrap_or(0) * size;
                match relabel.get(&rep) {
                    Some(l) => match sizes.binary_search_by_key(l, |e| e.0) {
                        Ok(at) => sizes[at].1 += size,
                        Err(_) => return Err(bad("size table misses a merge target")),
                    },
                    None => sizes.push((rep, size)),
                }
            }
            plan.sizes = Some(sizes);
            plan.label_patch = LabelPatch::ByRep(relabel);
        }

        // ---- Materialize the new generation. ----
        let sp = ce_extmem::io_span!(
            this.env,
            "delta_merge",
            merges = report.merges,
            journal = plan.journal.len(),
        );
        report.label_pages_rewritten = this.materialize(plan, dirty)?;
        drop(sp);
        report.generation = this.index.generation();
        report.ios = this.env.stats().snapshot().since(&before);
        Ok(report)
    }

    /// The component representative for `u` against the **current** graph:
    /// if `u`'s component is dirty it is re-verified first (the lazy path),
    /// so the answer is always exact.
    pub fn component_of(&mut self, u: NodeId) -> io::Result<NodeId> {
        let r = self.index.component_of(u)?;
        if self.dirty.contains(&r) {
            self.reverify(&[r])?;
            return self.index.component_of(u);
        }
        Ok(r)
    }

    /// Exact `same_component` against the current graph (re-verifies
    /// lazily like [`DeltaEngine::component_of`]).
    pub fn same_component(&mut self, u: NodeId, v: NodeId) -> io::Result<bool> {
        Ok(self.component_of(u)? == self.component_of(v)?)
    }

    /// Exact component size against the current graph.
    pub fn component_size(&mut self, u: NodeId) -> io::Result<u64> {
        self.component_of(u)?;
        self.index.component_size(u)
    }

    /// Re-verifies **all** dirty components (span `delta_compact`),
    /// materializing any splits into a new generation, and reclaims every
    /// tombstoned condensation-DAG slot (records whose multiplicity dropped
    /// to zero and that no re-add has reused): the DAG section is rewritten
    /// with live edges only and the file shrinks to the new geometry.
    /// Idempotent; a clean, tombstone-free index is a no-op at zero writes.
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        let before = self.env.stats().snapshot();
        let dirty: Vec<NodeId> = self.dirty.iter().copied().collect();
        let tombstones = self.dag_pos.len() as u64 - self.dag.counts.len() as u64;
        let mut report = self.reverify(&dirty)?;
        if !dirty.is_empty() {
            // The re-verification rewrote the whole DAG section from the
            // live adjacency, taking every tombstone with it.
            report.dag_slots_reclaimed = tombstones;
            return Ok(report);
        }
        if tombstones == 0 {
            return Ok(report);
        }
        // Nothing dirty, but cross-component deletions left tombstoned
        // slots behind: rewrite the DAG section compactly so the stored
        // record count matches the live condensation again.
        let sp = ce_extmem::io_span!(self.env, "delta_compact", components = 0usize);
        let plan = Plan {
            rewrite_dag: true,
            ..Plan::new()
        };
        self.materialize(plan, self.dirty.clone())?;
        drop(sp);
        report.generation = self.index.generation();
        report.dag_slots_reclaimed = tombstones;
        report.ios = self.env.stats().snapshot().since(&before);
        Ok(report)
    }

    /// The full exact label vector (re-verifies everything dirty first) —
    /// the conformance seam the differential harness compares against a
    /// from-scratch rebuild.
    pub fn labels_snapshot(&mut self) -> io::Result<Vec<NodeId>> {
        self.compact()?;
        let mut labels = Vec::with_capacity(self.index.n_nodes() as usize);
        self.scan_labels(|_, rep| labels.push(rep))?;
        Ok(labels)
    }

    /// Recomputes the SCCs of the listed dirty components' induced
    /// subgraphs (non-dirty entries are skipped) and materializes the
    /// result. The induced subgraph comes from the base edge file plus the
    /// journal — the current multiset — restricted to the components'
    /// members.
    fn reverify(&mut self, reps: &[NodeId]) -> io::Result<CompactReport> {
        let before = self.env.stats().snapshot();
        let targets: BTreeSet<NodeId> =
            reps.iter().copied().filter(|r| self.dirty.contains(r)).collect();
        if targets.is_empty() {
            return Ok(CompactReport {
                generation: self.index.generation(),
                ..CompactReport::default()
            });
        }
        let sp = ce_extmem::io_span!(self.env, "delta_compact", components = targets.len());

        // Members of the target components, with their stored labels.
        let mut members: Vec<NodeId> = Vec::new();
        let mut old_label: HashMap<NodeId, NodeId> = HashMap::new();
        self.scan_labels(|node, rep| {
            if targets.contains(&rep) {
                members.push(node);
                old_label.insert(node, rep);
            }
        })?;
        let member_set: HashSet<NodeId> = members.iter().copied().collect();

        // Current multiset of edges incident to the members:
        // base edges plus journal replay (a deletion removes one instance;
        // deletions of instances that never existed are ignored — they can
        // only be intra-component ones, which classification admits).
        let mut incident: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        {
            let mut r = self.base.edges().reader()?;
            while let Some(e) = r.next()? {
                if member_set.contains(&e.src) || member_set.contains(&e.dst) {
                    *incident.entry((e.src, e.dst)).or_insert(0) += 1;
                }
            }
        }
        {
            let mut chunk = vec![0u8; self.index.page_size() as usize];
            let end = self.index.hdr.n_journal * JOURNAL_ENTRY;
            let mut at = 0u64;
            let mut rec = Vec::new();
            while at < end {
                let take = ((end - at) as usize).min(chunk.len());
                if self.journal.read_at(at, &mut chunk[..take])? != take {
                    return Err(bad("journal sidecar truncated below the header's prefix"));
                }
                rec.extend_from_slice(&chunk[..take]);
                at += take as u64;
            }
            for raw in rec.chunks_exact(JOURNAL_ENTRY as usize) {
                let tag = u32::from_le_bytes(raw[0..4].try_into().unwrap());
                let u = NodeId::from_le_bytes(raw[4..8].try_into().unwrap());
                let v = NodeId::from_le_bytes(raw[8..12].try_into().unwrap());
                if !(member_set.contains(&u) || member_set.contains(&v)) {
                    continue;
                }
                let e = incident.entry((u, v)).or_insert(0);
                if tag == 0 {
                    *e += 1;
                } else if *e > 0 {
                    *e -= 1;
                }
            }
        }

        // The induced subgraph (both endpoints inside) through the kernel.
        let pos: HashMap<NodeId, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let mut edges: Vec<Edge> = Vec::new();
        for (&(a, b), &c) in &incident {
            if c > 0 {
                if let (Some(&pa), Some(&pb)) = (pos.get(&a), pos.get(&b)) {
                    edges.push(Edge::new(pa, pb));
                }
            }
        }
        let res = tarjan_scc(&CsrGraph::from_edges(members.len() as u64, &edges));
        let mut groups: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for (i, &c) in res.comp.iter().enumerate() {
            groups.entry(c).or_default().push(members[i]);
        }
        let mut new_label: HashMap<NodeId, NodeId> = HashMap::new();
        let mut new_comps: Vec<(NodeId, u64)> = Vec::new();
        for group in groups.values() {
            let rep = *group.iter().min().unwrap();
            new_comps.push((rep, group.len() as u64));
            for &m in group {
                new_label.insert(m, rep);
            }
        }

        // New size table: target entries out, the re-verified ones in.
        let mut table: Vec<(NodeId, u64)> = self.index.components().collect::<io::Result<_>>()?;
        table.retain(|(rep, _)| !targets.contains(rep));
        table.extend(new_comps.iter().copied());
        table.sort_unstable();

        // New DAG, in place: drop everything touching the targets,
        // recompute from the incident multiset (memoizing outside
        // components' labels).
        let tx = Txn::begin(self);
        let this = &mut *tx.0;
        this.dag.drop_touching(&targets);
        let mut outside: HashMap<NodeId, NodeId> = HashMap::new();
        let mut acc: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        for (&(a, b), &c) in &incident {
            if c == 0 {
                continue;
            }
            let la = match new_label.get(&a) {
                Some(&l) => l,
                None => match outside.get(&a) {
                    Some(&l) => l,
                    None => {
                        let l = this.index.component_of(a)?;
                        outside.insert(a, l);
                        l
                    }
                },
            };
            let lb = match new_label.get(&b) {
                Some(&l) => l,
                None => match outside.get(&b) {
                    Some(&l) => l,
                    None => {
                        let l = this.index.component_of(b)?;
                        outside.insert(b, l);
                        l
                    }
                },
            };
            if la != lb {
                *acc.entry((la, lb)).or_insert(0) += c;
            }
        }
        for ((s, d), c) in acc {
            this.dag.add(s, d, c.min(u32::MAX as u64) as u32);
        }

        let mut dirty = this.dirty.clone();
        for r in &targets {
            dirty.remove(r);
        }

        let changed: HashMap<NodeId, NodeId> = new_label
            .iter()
            .filter(|(n, l)| old_label.get(n) != Some(l))
            .map(|(&n, &l)| (n, l))
            .collect();
        let mut report = CompactReport {
            generation: 0,
            components_reverified: targets.len() as u64,
            components_after: groups.len() as u64,
            relabeled_nodes: changed.len() as u64,
            dag_slots_reclaimed: 0,
            ios: IoSnapshot::default(),
        };
        let plan = Plan {
            journal: Vec::new(),
            label_patch: LabelPatch::ByNode(changed),
            sizes: Some(table),
            rewrite_dag: true,
            patches: Vec::new(),
            appends: Vec::new(),
            dirty_changed: true,
        };
        this.materialize(plan, dirty)?;
        drop(sp);
        report.generation = this.index.generation();
        report.ios = this.env.stats().snapshot().since(&before);
        Ok(report)
    }

    /// Streams every `(node, stored label)` pair sequentially.
    fn scan_labels(&self, mut f: impl FnMut(NodeId, NodeId)) -> io::Result<()> {
        let hdr = &self.index.hdr;
        let page = hdr.page_size;
        let per = page / 4;
        let mut buf = vec![0u8; page as usize];
        for p in 0..hdr.label_pages() {
            let off = hdr.labels_off + p * page;
            read_exact_at(&self.index.file, off, &mut buf, "labels section")?;
            for slot in 0..per {
                let node = p * per + slot;
                if node >= hdr.n_nodes {
                    break;
                }
                let at = (slot * 4) as usize;
                f(
                    node as NodeId,
                    NodeId::from_le_bytes(buf[at..at + 4].try_into().unwrap()),
                );
            }
        }
        Ok(())
    }

    /// Commits a plan and the engine's DAG as generation `g + 1`: journal
    /// first (synced; the old header ignores the tail), then fork-copy the
    /// artifact, patch the copy through the counted pager, write the bumped
    /// header, sync, and atomically rename over the path. Only after the
    /// rename succeeds are the DAG's open transaction committed and the new
    /// dirty set and slot map installed. Returns the number of label pages
    /// rewritten.
    fn materialize(&mut self, plan: Plan, dirty: BTreeSet<NodeId>) -> io::Result<u64> {
        let hdr = self.index.hdr;

        // 1. Journal append. Bytes past the authenticated prefix are
        // ignored by every reader of the *current* header, so a fault
        // after this point is invisible.
        let mut jfnv = Fnv::from_state(hdr.journal_fnv);
        if !plan.journal.is_empty() {
            let mut bytes = Vec::with_capacity(plan.journal.len() * JOURNAL_ENTRY as usize);
            for rec in &plan.journal {
                bytes.extend_from_slice(rec);
            }
            self.journal
                .write_at(hdr.n_journal * JOURNAL_ENTRY, &bytes)?;
            self.journal.sync()?;
            jfnv.update(&bytes);
        }
        let n_journal = hdr.n_journal + plan.journal.len() as u64;

        // 2. Fork the artifact with an OS-level copy (not counted: a
        // metadata-ish clone outside the I/O model). The engine never
        // writes the live generation, so there is nothing to flush first.
        let tmp = self.path.with_file_name(format!(
            "{}.g{}.tmp",
            self.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            hdr.generation + 1
        ));
        std::fs::copy(&self.path, &tmp)?;

        let out = self.patch_fork(&tmp, plan, &dirty, n_journal, jfnv.finish());
        match out {
            Ok((new_hdr, file, pages, pos_update)) => {
                if let Err(e) = std::fs::rename(&tmp, &self.path) {
                    drop(file);
                    self.env.evict(&tmp);
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e);
                }
                // Commit point passed. The pager interns files by path, so
                // both names may alias stale state: the artifact path can
                // still map to a pre-swap inode (a build in this
                // environment interned it), and the tmp name maps to the
                // renamed one. Evict both (the fork handle synced its
                // frames), then read the new generation under its real
                // name, trusting the header this commit just wrote.
                drop(file);
                self.env.evict(&self.path);
                self.env.evict(&tmp);
                self.index = SccIndexReader {
                    file: SharedFile::open_in(self.env, &self.path)?,
                    hdr: new_hdr,
                };
                self.dag.commit();
                self.dirty = dirty;
                match pos_update {
                    DagPosUpdate::Keep => {}
                    DagPosUpdate::Replace(pos) => self.dag_pos = pos,
                    DagPosUpdate::Append(slots) => self.dag_pos.extend(slots),
                }
                Ok(pages)
            }
            Err(e) => {
                self.env.evict(&tmp);
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Patches the forked copy at `tmp` into generation `g + 1` and returns
    /// the new header, the open handle, the label-page write count, and the
    /// `dag_pos` change to install at commit.
    fn patch_fork(
        &self,
        tmp: &Path,
        plan: Plan,
        dirty: &BTreeSet<NodeId>,
        n_journal: u64,
        journal_fnv: u64,
    ) -> io::Result<(Header, CountedFile, u64, DagPosUpdate)> {
        let hdr = self.index.hdr;
        let page = hdr.page_size;
        let mut f = CountedFile::open_rw(self.env, tmp)?;

        // Labels: sequential scan, write only pages whose bytes change.
        let mut labels_xor = hdr.labels_xor;
        let mut pages_rewritten = 0u64;
        if !matches!(plan.label_patch, LabelPatch::None) {
            let per = page / 4;
            let mut buf = vec![0u8; page as usize];
            for p in 0..hdr.label_pages() {
                let off = hdr.labels_off + p * page;
                if f.read_at(off, &mut buf)? != buf.len() {
                    return Err(bad("labels section truncated"));
                }
                let mut newbuf = buf.clone();
                let mut changed = false;
                for slot in 0..per {
                    let node = p * per + slot;
                    if node >= hdr.n_nodes {
                        break;
                    }
                    let at = (slot * 4) as usize;
                    let old = NodeId::from_le_bytes(newbuf[at..at + 4].try_into().unwrap());
                    let new = match &plan.label_patch {
                        LabelPatch::ByRep(m) => m.get(&old),
                        LabelPatch::ByNode(m) => m.get(&(node as NodeId)),
                        LabelPatch::None => None,
                    };
                    if let Some(&nl) = new {
                        if nl != old {
                            newbuf[at..at + 4].copy_from_slice(&nl.to_le_bytes());
                            changed = true;
                        }
                    }
                }
                if changed {
                    f.write_at(off, &newbuf)?;
                    labels_xor ^= page_hash(p, &buf) ^ page_hash(p, &newbuf);
                    pages_rewritten += 1;
                }
            }
        }

        // Size table (full rewrite when present).
        let (n_sccs, sizes_xor) = match &plan.sizes {
            Some(entries) => {
                let mut out: Vec<u8> = Vec::with_capacity(entries.len() * SIZE_ENTRY as usize);
                for &(rep, size) in entries {
                    let mut rec = [0u8; SIZE_ENTRY as usize];
                    rec[0..4].copy_from_slice(&rep.to_le_bytes());
                    rec[8..16].copy_from_slice(&size.to_le_bytes());
                    out.extend_from_slice(&rec);
                }
                let xor = write_padded(&mut f, hdr.sizes_off, page, &out)?;
                (entries.len() as u64, xor)
            }
            None => (hdr.n_sccs, hdr.sizes_xor),
        };

        // DAG section.
        let dag_off = if plan.sizes.is_some() {
            align_up(hdr.sizes_off + SIZE_ENTRY * n_sccs, page)
        } else {
            hdr.dag_off
        };
        let (n_dag, dag_xor, pos_update) = if plan.rewrite_dag {
            let recs = self.dag.live_sorted();
            let mut out: Vec<u8> = Vec::with_capacity(recs.len() * DAG_ENTRY as usize);
            let mut pos = HashMap::with_capacity(recs.len());
            for (i, e) in recs.iter().enumerate() {
                let mut rec = [0u8; DAG_ENTRY as usize];
                rec[0..4].copy_from_slice(&e.src.to_le_bytes());
                rec[4..8].copy_from_slice(&e.dst.to_le_bytes());
                rec[8..12].copy_from_slice(&e.count.to_le_bytes());
                out.extend_from_slice(&rec);
                pos.insert((e.src, e.dst), i as u64);
            }
            let xor = write_padded(&mut f, dag_off, page, &out)?;
            (recs.len() as u64, xor, DagPosUpdate::Replace(pos))
        } else if plan.patches.is_empty() && plan.appends.is_empty() {
            (hdr.n_dag_edges, hdr.dag_xor, DagPosUpdate::Keep)
        } else {
            // In-place patches + tail appends with O(1) per-page checksum
            // updates.
            let mut writes: Vec<(u64, [u8; DAG_ENTRY as usize])> = Vec::new();
            for &((s, d), c) in &plan.patches {
                let slot = *self.dag_pos.get(&(s, d)).expect("patched key has a slot");
                let mut rec = [0u8; DAG_ENTRY as usize];
                rec[0..4].copy_from_slice(&s.to_le_bytes());
                rec[4..8].copy_from_slice(&d.to_le_bytes());
                rec[8..12].copy_from_slice(&c.to_le_bytes());
                writes.push((slot * DAG_ENTRY, rec));
            }
            let mut appended_pos: Vec<((NodeId, NodeId), u64)> = Vec::new();
            for (i, e) in plan.appends.iter().enumerate() {
                let slot = hdr.n_dag_edges + i as u64;
                let mut rec = [0u8; DAG_ENTRY as usize];
                rec[0..4].copy_from_slice(&e.src.to_le_bytes());
                rec[4..8].copy_from_slice(&e.dst.to_le_bytes());
                rec[8..12].copy_from_slice(&e.count.to_le_bytes());
                writes.push((slot * DAG_ENTRY, rec));
                appended_pos.push(((e.src, e.dst), slot));
            }
            let old_pages =
                (align_up(hdr.dag_off + DAG_ENTRY * hdr.n_dag_edges, page) - hdr.dag_off) / page;
            let mut xor = hdr.dag_xor;
            patch_pages(&mut f, dag_off, page, old_pages, &mut xor, &writes)?;
            (
                hdr.n_dag_edges + plan.appends.len() as u64,
                xor,
                DagPosUpdate::Append(appended_pos),
            )
        };

        // Dirty section: rewritten when its content changed or the DAG
        // moved/grew under it.
        let dirty_off = align_up(dag_off + DAG_ENTRY * n_dag, page);
        let (n_dirty, dirty_xor) = if plan.dirty_changed || dirty_off != hdr.dirty_off {
            let mut out: Vec<u8> = Vec::with_capacity(dirty.len() * DIRTY_ENTRY as usize);
            for &r in dirty {
                out.extend_from_slice(&r.to_le_bytes());
            }
            let xor = write_padded(&mut f, dirty_off, page, &out)?;
            (dirty.len() as u64, xor)
        } else {
            (hdr.n_dirty, hdr.dirty_xor)
        };

        let new_hdr = Header {
            page_size: page,
            n_nodes: hdr.n_nodes,
            n_sccs,
            labels_off: hdr.labels_off,
            sizes_off: hdr.sizes_off,
            dag_off,
            n_dag_edges: n_dag,
            labels_xor,
            sizes_xor,
            dag_xor,
            dirty_off,
            n_dirty,
            dirty_xor,
            generation: hdr.generation + 1,
            n_journal,
            journal_fnv,
        };
        f.write_at(0, &new_hdr.encode())?;
        f.sync()?;
        // Shrink to the exact new geometry when sections contracted. A raw
        // metadata truncate, like the fork copy: not a block transfer.
        let want = new_hdr.file_len();
        if f.len_bytes()? > want {
            std::fs::OpenOptions::new()
                .write(true)
                .open(tmp)?
                .set_len(want)?;
        }
        Ok((new_hdr, f, pages_rewritten, pos_update))
    }
}

/// How `dag_pos` changes when a materialization commits.
enum DagPosUpdate {
    Keep,
    Replace(HashMap<(NodeId, NodeId), u64>),
    Append(Vec<((NodeId, NodeId), u64)>),
}

/// Writes `bytes` at `off` padded to whole pages and returns the XOR of
/// the pages' hashes — the section checksum. Writes nothing (not even a
/// padding page) when `bytes` is empty.
fn write_padded(f: &mut CountedFile, off: u64, page: u64, bytes: &[u8]) -> io::Result<u64> {
    let mut xor = 0u64;
    let mut buf = vec![0u8; page as usize];
    for (p, chunk) in (0u64..).zip(bytes.chunks(page as usize)) {
        buf[..chunk.len()].copy_from_slice(chunk);
        buf[chunk.len()..].fill(0);
        f.write_at(off + p * page, &buf)?;
        xor ^= page_hash(p, &buf);
    }
    Ok(xor)
}

/// Applies byte-range `writes` (section-relative offsets) to a page-hashed
/// section: reads each affected page once, XORs its old hash out (if the
/// page existed), applies the overlapping slices, writes it back, and XORs
/// the new hash in. Fresh pages beyond `old_pages` start as zeros.
fn patch_pages(
    f: &mut CountedFile,
    sec_off: u64,
    page: u64,
    old_pages: u64,
    xor: &mut u64,
    writes: &[(u64, [u8; DAG_ENTRY as usize])],
) -> io::Result<()> {
    let mut by_page: BTreeMap<u64, Vec<(usize, &[u8])>> = BTreeMap::new();
    for (off, bytes) in writes {
        let mut rel = *off;
        let mut rest: &[u8] = bytes;
        while !rest.is_empty() {
            let p = rel / page;
            let in_page = (rel % page) as usize;
            let take = rest.len().min((page as usize) - in_page);
            by_page.entry(p).or_default().push((in_page, &rest[..take]));
            rest = &rest[take..];
            rel += take as u64;
        }
    }
    for (p, slices) in by_page {
        let mut buf = vec![0u8; page as usize];
        if p < old_pages {
            if f.read_at(sec_off + p * page, &mut buf)? != buf.len() {
                return Err(bad("section truncated during patch"));
            }
            *xor ^= page_hash(p, &buf);
        }
        for (at, bytes) in slices {
            buf[at..at + bytes.len()].copy_from_slice(bytes);
        }
        f.write_at(sec_off + p * page, &buf)?;
        *xor ^= page_hash(p, &buf);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{condense_counted, same_partition};
    use ce_extmem::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap()
    }

    /// Builds the edge file, the ground-truth labels (canonical Tarjan) and
    /// a condensation-bearing index for `edges` over `n` nodes.
    fn setup(env: &DiskEnv, name: &str, n: u64, edges: &[(u32, u32)]) -> (EdgeListGraph, PathBuf) {
        let es: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let f = env
            .file_from_slice(&format!("{name}-edges"), &es)
            .unwrap();
        let g = EdgeListGraph::new(f, n);
        let reps = tarjan_scc(&CsrGraph::from_edges(n, &es)).canonical_reps();
        let labs: Vec<crate::types::SccLabel> = reps
            .iter()
            .enumerate()
            .map(|(i, &r)| crate::types::SccLabel::new(i as u32, r))
            .collect();
        let lf = env
            .file_from_slice(&format!("{name}-labs"), &labs)
            .unwrap();
        let counted = condense_counted(env, &g, &lf).unwrap();
        let path = env.root().join(format!("{name}.sccidx"));
        SccIndex::build(env, &path, &lf, n, Some(&counted)).unwrap();
        (g, path)
    }

    /// Canonical reps of `edges` over `n` nodes, straight through Tarjan.
    fn scratch(n: u64, edges: &[(u32, u32)]) -> Vec<NodeId> {
        let es: Vec<Edge> = edges.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        tarjan_scc(&CsrGraph::from_edges(n, &es)).canonical_reps()
    }

    #[test]
    fn empty_batch_is_a_free_noop() {
        let e = env();
        let (g, path) = setup(&e, "noop", 4, &[(0, 1), (1, 0), (2, 3)]);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let before = e.stats().snapshot();
        let rep = eng.apply(&DeltaBatch::new()).unwrap();
        assert_eq!(rep.generation, 0);
        assert_eq!(e.stats().snapshot().since(&before).total_ios(), 0);
    }

    #[test]
    fn intra_insert_costs_o1_page_writes_independent_of_graph_size() {
        let mut write_costs = Vec::new();
        for (name, n) in [("small", 8u64), ("large", 512u64)] {
            let e = env();
            // A triangle 0->1->2->0 plus n-3 isolated nodes.
            let (g, path) = setup(&e, name, n, &[(0, 1), (1, 2), (2, 0)]);
            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            let rep = eng.apply(&DeltaBatch::new().add(0, 2)).unwrap();
            assert_eq!(rep.generation, 1);
            assert_eq!(rep.intra_added, 1);
            assert_eq!(rep.merges, 0);
            assert_eq!(rep.label_pages_rewritten, 0);
            // Classification: two point reads. No label/sizes/dag writes.
            assert!(rep.ios.seq_reads + rep.ios.rand_reads <= 2, "{:?}", rep.ios);
            write_costs.push(rep.ios.seq_writes + rep.ios.rand_writes);
            assert_eq!(eng.component_of(2).unwrap(), 0);
        }
        assert_eq!(
            write_costs[0], write_costs[1],
            "metadata-only insert write cost must not scale with the graph"
        );
    }

    #[test]
    fn appends_and_reinforcements_update_the_dag() {
        let e = env();
        // {0,1} -> {2,3}, plus {4,5} disconnected.
        let (g, path) = setup(
            &e,
            "dag",
            6,
            &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (4, 5), (5, 4)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 1)]);

        // Reinforce 0->2, append 0->4 and 4->2.
        let rep = eng
            .apply(&DeltaBatch::new().add(0, 3).add(1, 4).add(5, 2))
            .unwrap();
        assert_eq!(rep.dag_reinforced, 1);
        assert_eq!(rep.dag_appended, 2);
        assert_eq!(rep.merges, 0);
        assert_eq!(
            eng.condensation_edges(),
            vec![
                CountedEdge::new(0, 2, 2),
                CountedEdge::new(0, 4, 1),
                CountedEdge::new(4, 2, 1),
            ]
        );
        // The artifact revalidates and agrees after reopen.
        drop(eng);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.generation(), 1);
        let mut edges: Vec<Edge> = idx.condensation_edges().map(|r| r.unwrap()).collect();
        edges.sort_unstable();
        assert_eq!(
            edges,
            vec![Edge::new(0, 2), Edge::new(0, 4), Edge::new(4, 2)]
        );
    }

    #[test]
    fn cycle_creating_insert_merges_exactly_the_path_components() {
        let e = env();
        // Chain of three 2-cycles: {0,1} -> {2,3} -> {4,5}, and a bystander
        // {6,7} hanging off {0,1} that must NOT be merged.
        let (g, path) = setup(
            &e,
            "merge",
            8,
            &[
                (0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4),
                (1, 2), (3, 4), (0, 6), (6, 7), (7, 6),
            ],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let rep = eng.apply(&DeltaBatch::new().add(5, 0)).unwrap();
        assert_eq!(rep.merges, 1);
        assert_eq!(rep.merged_components, 3);
        assert_eq!(rep.merged_nodes, 6);
        assert_eq!(eng.n_sccs(), 2);
        for v in 0..6 {
            assert_eq!(eng.component_of(v).unwrap(), 0, "node {v}");
        }
        assert_eq!(eng.component_of(6).unwrap(), 6);
        assert_eq!(eng.component_size(3).unwrap(), 6);
        assert_eq!(eng.component_size(7).unwrap(), 2);
        // Condensation: merged comp 0 -> {6,7}.
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 6, 1)]);
        // Reopen from disk: checksums hold, same answers.
        drop(eng);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.generation(), 1);
        assert_eq!(idx.n_sccs(), 2);
        assert!(idx.same_component(0, 5).unwrap());
        assert!(!idx.same_component(0, 7).unwrap());
    }

    #[test]
    fn merge_rewrites_only_label_pages_owning_affected_nodes() {
        let e = env();
        // 48 nodes = three 64-byte label pages (16 labels each). Pairs
        // (2i, 2i+1) are 2-cycles; a cross edge 1->2 links the first two
        // pairs. Merging {0,1} with {2,3} touches only page 0.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 0..24u32 {
            edges.push((2 * i, 2 * i + 1));
            edges.push((2 * i + 1, 2 * i));
        }
        edges.push((1, 2));
        let (g, path) = setup(&e, "pages", 48, &edges);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let rep = eng.apply(&DeltaBatch::new().add(3, 0)).unwrap();
        assert_eq!(rep.merges, 1);
        assert_eq!(rep.merged_components, 2);
        assert_eq!(rep.merged_nodes, 4);
        assert_eq!(
            rep.label_pages_rewritten, 1,
            "only the page owning nodes 0..=3 may be rewritten"
        );
        for v in 0..4 {
            assert_eq!(eng.component_of(v).unwrap(), 0);
        }
        assert_eq!(eng.component_of(40).unwrap(), 40);
    }

    #[test]
    fn cross_removals_weaken_then_drop_then_reject() {
        let e = env();
        // {0,1} -> {2,3} supported by two base edges.
        let (g, path) = setup(
            &e,
            "rm",
            4,
            &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 2)]);

        let rep = eng.apply(&DeltaBatch::new().remove(0, 2)).unwrap();
        assert_eq!(rep.dag_weakened, 1);
        assert_eq!(rep.dirty_marked, 0);
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 1)]);

        let rep = eng.apply(&DeltaBatch::new().remove(1, 3)).unwrap();
        assert_eq!(rep.dag_dropped, 1);
        assert_eq!(eng.condensation_edges(), vec![]);

        // Nothing supports {0,1} -> {2,3} any more: rejecting, unchanged.
        let gen = eng.generation();
        let err = eng.apply(&DeltaBatch::new().remove(0, 3)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(eng.generation(), gen);
        // A tombstoned slot is reused on re-add (no section growth).
        let n_before = SccIndex::open(&e, &path).unwrap().n_dag_edges();
        eng.apply(&DeltaBatch::new().add(0, 2)).unwrap();
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 1)]);
        drop(eng);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_dag_edges(), n_before, "tombstone slot was reused");
    }

    #[test]
    fn compact_reclaims_tombstoned_dag_slots() {
        let e = env();
        // Two condensation edges out of {0,1}: -> {2,3} and -> {4,5}.
        let (g, path) = setup(
            &e,
            "reclaim",
            6,
            &[(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (0, 2), (0, 4)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(
            eng.condensation_edges(),
            vec![CountedEdge::new(0, 2, 1), CountedEdge::new(0, 4, 1)]
        );

        // Dropping the only support of 0 -> 2 tombstones its record: the
        // stored section still holds both slots.
        eng.apply(&DeltaBatch::new().remove(0, 2)).unwrap();
        assert_eq!(SccIndex::open(&e, &path).unwrap().n_dag_edges(), 2);

        // Nothing is dirty, but compact must still rewrite the DAG
        // compactly and shrink the stored record count to the live edges.
        let gen = eng.generation();
        let rep = eng.compact().unwrap();
        assert_eq!(rep.components_reverified, 0);
        assert_eq!(rep.dag_slots_reclaimed, 1);
        assert!(rep.generation > gen, "reclamation is a new generation");
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_dag_edges(), 1, "post-compact DAG holds live edges only");
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 4, 1)]);

        // Idempotent: a second compact finds nothing to reclaim and leaves
        // the generation alone.
        let gen = eng.generation();
        let rep = eng.compact().unwrap();
        assert_eq!(rep.dag_slots_reclaimed, 0);
        assert_eq!(eng.generation(), gen);

        // With its tombstone gone, a re-added 0 -> 2 must append a fresh
        // slot — and the engine must keep working across the reclamation.
        eng.apply(&DeltaBatch::new().add(0, 2)).unwrap();
        assert_eq!(
            eng.condensation_edges(),
            vec![CountedEdge::new(0, 2, 1), CountedEdge::new(0, 4, 1)]
        );
        drop(eng);
        assert_eq!(SccIndex::open(&e, &path).unwrap().n_dag_edges(), 2);
    }

    #[test]
    fn intra_removal_marks_dirty_and_queries_lazily_reverify() {
        let e = env();
        // One 3-cycle {0,1,2} and a 2-cycle {3,4} downstream.
        let (g, path) = setup(
            &e,
            "lazy",
            5,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let rep = eng.apply(&DeltaBatch::new().remove(2, 0)).unwrap();
        assert_eq!(rep.dirty_marked, 1);
        assert_eq!(eng.n_dirty(), 1);
        assert_eq!(eng.dirty_components(), vec![0]);
        // The stored labels are a coarsening until someone looks.
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_sccs(), 2);
        assert_eq!(idx.dirty_components().map(|r| r.unwrap()).collect::<Vec<_>>(), vec![0]);

        // First query on the dirty component re-verifies: 0->1->2 is now a
        // path, three singletons.
        assert_eq!(eng.component_of(1).unwrap(), 1);
        assert_eq!(eng.n_dirty(), 0);
        assert_eq!(eng.n_sccs(), 4);
        assert_eq!(eng.component_of(0).unwrap(), 0);
        assert_eq!(eng.component_of(2).unwrap(), 2);
        assert_eq!(eng.component_size(2).unwrap(), 1);
        assert_eq!(eng.component_size(3).unwrap(), 2);
        // Split comp's outgoing DAG edge re-attributed to singleton {2}.
        assert_eq!(
            eng.condensation_edges(),
            vec![
                CountedEdge::new(0, 1, 1),
                CountedEdge::new(1, 2, 1),
                CountedEdge::new(2, 3, 1),
            ]
        );
        // compact() afterwards is a clean no-op.
        let before = e.stats().snapshot();
        let c = eng.compact().unwrap();
        assert_eq!(c.components_reverified, 0);
        assert_eq!(e.stats().snapshot().since(&before).total_ios(), 0);
        drop(eng);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_sccs(), 4);
        assert_eq!(idx.n_dirty(), 0);
    }

    #[test]
    fn mixed_stream_matches_a_scratch_rebuild_at_every_step() {
        let e = env();
        let n = 24u64;
        let base: Vec<(u32, u32)> = vec![
            (0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 2), (5, 6),
            (7, 8), (8, 7), (4, 7), (9, 10), (10, 11), (11, 9),
        ];
        let (g, path) = setup(&e, "stream", n, &base);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let mut current = base.clone();
        let mut rng = 0x5eed_c0ffee_u64;
        let mut step_rng = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        for step in 0..60 {
            // Mostly adds, some removes of a random present edge.
            let remove = step % 4 == 3 && !current.is_empty();
            let batch = if remove {
                let at = step_rng() as usize % current.len();
                let (u, v) = current.swap_remove(at);
                DeltaBatch::new().remove(u, v)
            } else {
                let u = step_rng() % n as u32;
                let v = step_rng() % n as u32;
                current.push((u, v));
                DeltaBatch::new().add(u, v)
            };
            eng.apply(&batch).unwrap();
            let want = scratch(n, &current);
            let got = eng.labels_snapshot().unwrap();
            assert_eq!(got, want, "divergence at step {step} (batch {batch:?})");
            assert!(same_partition(&got, &want));
            // Halfway through: drop the engine and reopen from disk — the
            // journal + header must reconstruct the exact same state.
            if step == 29 {
                drop(eng);
                eng = DeltaEngine::open(&e, &g, &path).unwrap();
            }
        }
        // The artifact must still pass full validation at the end.
        drop(eng);
        SccIndex::open(&e, &path).unwrap();
    }

    #[test]
    fn fault_mid_apply_leaves_previous_generation_readable() {
        let mut faulted = 0;
        for k in [1u64, 2, 4, 6, 8, 10, 12, 16] {
            let e = env();
            let (g, path) = setup(
                &e,
                "crash",
                6,
                &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (4, 5), (5, 4)],
            );
            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            // A cycle-creating merge: the widest write path.
            let batch = DeltaBatch::new().add(3, 0).add(0, 4);
            e.inject_fault_after(k);
            let res = eng.apply(&batch);
            e.clear_fault();
            if let Err(err) = res {
                faulted += 1;
                assert_ne!(err.kind(), io::ErrorKind::InvalidData, "not a corruption");
                // The previous generation is intact and fully validated.
                let idx = SccIndex::open(&e, &path).unwrap();
                assert_eq!(idx.generation(), 0);
                assert!(!idx.same_component(0, 3).unwrap());
                drop(idx);
                // The engine was untouched: the same apply simply retries.
                let rep = eng.apply(&batch).unwrap();
                assert_eq!(rep.merges, 1);
            }
            assert!(eng.same_component(0, 3).unwrap());
            assert!(!eng.same_component(0, 4).unwrap());
            drop(eng);
            let idx = SccIndex::open(&e, &path).unwrap();
            assert!(idx.same_component(0, 2).unwrap());
        }
        assert!(faulted >= 3, "the sweep must actually hit mid-apply faults");
    }

    #[test]
    fn open_rejects_missing_dag_and_mismatched_geometry() {
        let e = env();
        // No condensation section at all.
        let es = vec![Edge::new(0, 1), Edge::new(1, 0)];
        let f = e.file_from_slice("nodag-edges", &es).unwrap();
        let g = EdgeListGraph::new(f, 2);
        let labs = e
            .file_from_slice(
                "nodag-labs",
                &[crate::types::SccLabel::new(0, 0), crate::types::SccLabel::new(1, 0)],
            )
            .unwrap();
        let path = e.root().join("nodag.sccidx");
        SccIndex::build(&e, &path, &labs, 2, None).unwrap();
        let err = DeltaEngine::open(&e, &g, &path).unwrap_err();
        assert!(
            err.to_string().contains("--with-condensation"),
            "error must name the fix: {err}"
        );

        // Env block size != artifact page size.
        let (g, path) = setup(&e, "geom", 2, &[(0, 1), (1, 0)]);
        let e2 = DiskEnv::new_temp(IoConfig::new(128, 4096)).unwrap();
        let err = DeltaEngine::open(&e2, &g, &path).unwrap_err();
        assert!(err.to_string().contains("block size"), "{err}");

        // Wrong base graph (node count mismatch).
        let (_g4, path4) = setup(&e, "geom4", 4, &[(0, 1), (1, 0), (2, 3)]);
        let err = DeltaEngine::open(&e, &g, &path4).unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
    }

    #[test]
    fn merge_then_dirty_then_reverify_composes() {
        let e = env();
        // {0,1} and {2,3} linked 1->2; merge them, then cut the merged
        // component apart and watch lazy re-verification split it 4 ways.
        let (g, path) = setup(&e, "compose", 4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        eng.apply(&DeltaBatch::new().add(3, 0)).unwrap();
        assert_eq!(eng.component_of(3).unwrap(), 0);
        // Remove both back-edges inside the merged component.
        let rep = eng
            .apply(&DeltaBatch::new().remove(1, 0).remove(3, 2).remove(3, 0))
            .unwrap();
        assert_eq!(rep.dirty_marked, 1, "one component, marked once");
        let c = eng.compact().unwrap();
        assert_eq!(c.components_reverified, 1);
        assert_eq!(c.components_after, 4);
        // 0->1->2->3 is now a simple path: all singletons.
        for v in 0..4u32 {
            assert_eq!(eng.component_of(v).unwrap(), v);
        }
        assert_eq!(
            eng.condensation_edges(),
            vec![
                CountedEdge::new(0, 1, 1),
                CountedEdge::new(1, 2, 1),
                CountedEdge::new(2, 3, 1),
            ]
        );
        drop(eng);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_sccs(), 4);
    }
}
