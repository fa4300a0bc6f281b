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
//!   reinforced; if the DAG has no path `comp(v) ⇝ comp(u)`, the
//!   edge cannot close a cycle (any node-level path `v ⇝ u` would project
//!   onto a component-level path), so a new condensation edge is added.
//!   Either way the update is metadata-only.
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
//!   weakened (the edge is dropped at zero), metadata-only. A deletion with
//!   no supporting condensation edge is rejected — the edge is not in the
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
//! ## Two commits: the journal and the checkpoint
//!
//! An update never writes into the live artifact. The engine reads the last
//! checkpoint through an [`SccIndexReader`] priced in the environment's
//! ledger and writes only through the environment's pager, so fault
//! injection covers every transfer of a commit. The journal sidecar is a
//! write-ahead log and the artifact its checkpoint; what a batch does
//! decides which commit it takes:
//!
//! * **A batch that merges nothing** changes no byte a query reads — no
//!   label and no size. [`DeltaEngine::apply`] appends its operation
//!   records and one **commit record** (the running FNV-1a of every journal
//!   byte before it) in one write and syncs the sidecar. That sync is the
//!   whole commit: `O(1)` page writes, no artifact write.
//! * **A merge, a re-verification or a [`DeltaEngine::compact`]** writes a
//!   **checkpoint**. A merging batch's records are appended without a
//!   commit record and synced; then the next artifact is written to a
//!   temporary file. Only the bytes it keeps are copied from the live one —
//!   the header page and the labels, plus the size table when it does not
//!   change — the label pages owning affected nodes are patched through the
//!   counted pager, and the size table, the DAG section (sorted and live,
//!   from memory) and the dirty section are rewritten. Its header, written
//!   last, authenticates the whole journal with `(n_journal, journal_fnv)`;
//!   the file is synced and atomically renamed over the path. The new
//!   header commits the merging batch's records and folds in every
//!   journal-only commit since the previous checkpoint.
//!
//! [`DeltaEngine::open`] validates the header's journal prefix and then
//! **replays** the committed tail: operation records gather into a batch
//! until a commit record whose checksum matches, and each committed batch
//! runs through the same classification code as `apply` (a tail batch that
//! would merge is rejected as corrupt: only checkpoints commit merges). The
//! tail ends at the first short record, unknown tag or checksum mismatch,
//! or at the end of the file; bytes past it are ignored, and the next
//! append overwrites them.
//!
//! ## Crash safety and generations
//!
//! A crash or injected I/O fault at any point leaves either the old state
//! or the new one: a torn journal append has no valid commit record, and a
//! torn checkpoint leaves the previous artifact at the path (readers opened
//! before a rename keep serving their generation from the old inode). A
//! commit that fails cuts the sidecar back to its committed end — its pager
//! frames dropped, the file truncated — before returning the error, so no
//! later open in the same environment can replay a batch that was not
//! acknowledged. The engine stays consistent too. It mutates its in-memory
//! condensation DAG in place under an **undo log**: while a transaction is
//! open, every change first records the edge's `(src, dst, old count)`. A
//! guard replays the log in reverse when an apply, a re-verification or a
//! compact fails before its commit point (the journal sync or the rename)
//! — by an error or a panic alike — and the commit clears it. The dirty set
//! stays transaction-local until the commit. So a failed `apply` leaves the
//! engine exactly as it was and can simply be retried, and a successful one
//! does memory work proportional to what it changes.
//!
//! The engine's **generation** counts commits of both kinds: the header's
//! generation plus the committed batches of the journal tail. A reader
//! opened at the path sees the last checkpoint. Its labels, sizes and query
//! answers are those of the latest commit, because a journal-only commit
//! changes none of them; its generation, condensation DAG and dirty set
//! describe the checkpoint until the next one (`compact` forces one when
//! the tail is not empty). The engine reports the live values.
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
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use ce_extmem::file::CountedFile;
use ce_extmem::{DiskEnv, IoSnapshot, SharedFile};

use crate::csr::CsrGraph;
use crate::edgelist::EdgeListGraph;
use crate::index::{
    align_up, bad, journal_path, page_hash, read_exact_at, Fnv, Header, SccIndex, SccIndexReader,
    DAG_ENTRY, JOURNAL_ENTRY, SIZE_ENTRY,
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
    /// The engine's generation after the apply (unchanged for an empty
    /// batch): every commit, journal-only or checkpoint, advances it by
    /// one. A reader opened at the path reports the last checkpoint's.
    pub generation: u64,
    /// Insertions that landed inside an existing component (journal-only).
    pub intra_added: u64,
    /// Insertions that added a new condensation edge.
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
    /// Deletions that dropped a condensation edge (its count reached zero).
    pub dag_dropped: u64,
    /// Label pages rewritten (only pages owning affected nodes).
    pub label_pages_rewritten: u64,
    /// Logical I/O of the whole apply (classification + commit).
    pub ios: IoSnapshot,
}

/// What one re-verification ([`DeltaEngine::compact`] or a lazy query
/// trigger) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// The engine's generation after the compact (unchanged when nothing
    /// was dirty and the journal tail was empty).
    pub generation: u64,
    /// Dirty components re-verified.
    pub components_reverified: u64,
    /// Components those produced (≥ the number re-verified; larger means
    /// deletions had genuinely split components).
    pub components_after: u64,
    /// Nodes whose stored label changed.
    pub relabeled_nodes: u64,
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

    /// Live edges in `(src, dst)` order — the stored form of the DAG
    /// section.
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

/// How the labels section changes in one checkpoint.
enum LabelPatch {
    /// No label changes.
    None,
    /// Merge: every stored label equal to a key maps to its value.
    ByRep(HashMap<NodeId, NodeId>),
    /// Re-verification: listed nodes get new labels.
    ByNode(HashMap<NodeId, NodeId>),
}

/// What classifying one batch decided, besides its changes to the
/// engine's DAG and the dirty set it was handed.
struct Classified {
    journal: Vec<JournalRecord>,
    overlay: Overlay,
    /// Representatives of each merged group (empty: the batch merges
    /// nothing and commits to the journal alone).
    merged_groups: Vec<Vec<NodeId>>,
}

/// An open transaction on the engine's DAG. On drop it rolls the DAG back
/// to its state at [`Txn::begin`] unless a commit
/// ([`DeltaEngine::commit_journal`] or [`DeltaEngine::checkpoint`]) has
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

/// One journal sidecar record: `(tag, u, v)` as three little-endian `u32`s.
type JournalRecord = [u8; JOURNAL_ENTRY as usize];

/// Journal tags: an inserted edge, a deleted edge, and a commit record
/// whose two id words hold the running FNV-1a of every journal byte before
/// it, low word first.
const TAG_ADD: u32 = 0;
const TAG_REMOVE: u32 = 1;
const TAG_COMMIT: u32 = 2;

fn journal_record(tag: u32, u: NodeId, v: NodeId) -> JournalRecord {
    let mut rec = [0u8; JOURNAL_ENTRY as usize];
    rec[0..4].copy_from_slice(&tag.to_le_bytes());
    rec[4..8].copy_from_slice(&u.to_le_bytes());
    rec[8..12].copy_from_slice(&v.to_le_bytes());
    rec
}

/// The three little-endian `u32` words of a 12-byte record: `(tag, u, v)`
/// of a journal record, `(src, dst, count)` of a stored DAG edge.
fn words(raw: &[u8]) -> (u32, u32, u32) {
    let word = |i: usize| u32::from_le_bytes(raw[4 * i..4 * i + 4].try_into().unwrap());
    (word(0), word(1), word(2))
}

/// The commit record closing a batch, given the checksum of every journal
/// byte before it.
fn commit_record(sum: u64) -> JournalRecord {
    journal_record(TAG_COMMIT, sum as u32, (sum >> 32) as u32)
}

/// Reads journal bytes `[from, to)` in page-sized reads, stopping early at
/// the end of the file.
fn read_journal(journal: &mut CountedFile, from: u64, to: u64, page: u64) -> io::Result<Vec<u8>> {
    let to = to.min(journal.len_bytes()?);
    let mut out = vec![0u8; to.saturating_sub(from) as usize];
    for (at, chunk) in (from..)
        .step_by(page as usize)
        .zip(out.chunks_mut(page as usize))
    {
        if journal.read_at(at, chunk)? != chunk.len() {
            return Err(bad("journal sidecar shrank while it was read"));
        }
    }
    Ok(out)
}

/// The write handle over a stored index artifact: classifies and applies
/// [`DeltaBatch`]es, maintains the dirty set, and re-verifies lazily. One
/// engine owns the artifact's write path; concurrent readers keep using
/// [`SccIndexReader`] handles and swap to the new checkpoint whenever they
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
    /// The last checkpoint, priced in `env`'s ledger. Its labels and sizes
    /// are current; its DAG and dirty sections may lag the journal tail.
    index: SccIndexReader,
    dag: DagAdj,
    dirty: BTreeSet<NodeId>,
    journal: CountedFile,
    /// Committed end of the journal in bytes, and the running FNV-1a of
    /// every byte before it.
    journal_len: u64,
    journal_fnv: u64,
    /// Operation records through the committed end.
    n_journal: u64,
    /// The checkpoint's generation plus the committed tail batches.
    generation: u64,
}

impl std::fmt::Debug for DeltaEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaEngine")
            .field("path", &self.path)
            .field("generation", &self.generation)
            .field("n_sccs", &self.index.n_sccs())
            .field("n_dirty", &(self.dirty.len() as u64))
            .field("n_journal", &self.n_journal)
            .finish()
    }
}

impl<'a> DeltaEngine<'a> {
    /// Opens the artifact at `path` for maintenance. Validates the artifact
    /// (same protocol as [`SccIndex::open`]), requires the condensation DAG
    /// section, requires `env`'s block size to equal the artifact's page
    /// size, validates the journal sidecar against the header's
    /// authenticated prefix, loads the DAG adjacency and dirty set, and
    /// replays the journal's committed tail (see the module docs).
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

        let mut dag = DagAdj::default();
        let mut at = 0u64;
        let mut chunk = vec![0u8; hdr.page_size as usize];
        while at < hdr.n_dag_edges {
            let take = (hdr.n_dag_edges - at).min(chunk.len() as u64 / DAG_ENTRY);
            let bytes = (take * DAG_ENTRY) as usize;
            let off = hdr.dag_off + at * DAG_ENTRY;
            read_exact_at(&index.file, off, &mut chunk[..bytes], "dag section")?;
            for raw in chunk[..bytes].chunks_exact(DAG_ENTRY as usize) {
                let (s, d, c) = words(raw);
                dag.add(s, d, c);
            }
            at += take;
        }

        let dirty = index.dirty_components().collect::<io::Result<BTreeSet<NodeId>>>()?;

        // Journal sidecar: open (create when this generation has no
        // entries), validate exactly the authenticated prefix, then read
        // the tail behind it.
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
        let prefix_len = hdr.n_journal * JOURNAL_ENTRY;
        let prefix = read_journal(&mut journal, 0, prefix_len, hdr.page_size)?;
        if prefix.len() as u64 != prefix_len {
            return Err(bad("journal sidecar truncated below the header's prefix"));
        }
        let mut fnv = Fnv::new();
        fnv.update(&prefix);
        if fnv.finish() != hdr.journal_fnv {
            return Err(bad("journal sidecar does not match the index header"));
        }
        let n_journal = prefix
            .chunks_exact(JOURNAL_ENTRY as usize)
            .filter(|raw| words(raw).0 != TAG_COMMIT)
            .count() as u64;
        let tail = read_journal(&mut journal, prefix_len, u64::MAX, hdr.page_size)?;

        let mut eng = DeltaEngine {
            env,
            base,
            path: path.to_path_buf(),
            index,
            dag,
            dirty,
            journal,
            journal_len: prefix_len,
            journal_fnv: hdr.journal_fnv,
            n_journal,
            generation: hdr.generation,
        };
        eng.replay(&tail)?;
        Ok(eng)
    }

    /// Replays the journal tail behind the checkpoint's prefix: operation
    /// records gather into a batch until a commit record whose checksum
    /// matches, and each committed batch runs through [`Self::classify`].
    /// The committed tail ends at the first short record, unknown tag or
    /// checksum mismatch; what follows is ignored.
    fn replay(&mut self, tail: &[u8]) -> io::Result<()> {
        let start = self.journal_len;
        let mut fnv = Fnv::from_state(self.journal_fnv);
        let mut batch = DeltaBatch::new();
        for (i, raw) in (1u64..).zip(tail.chunks_exact(JOURNAL_ENTRY as usize)) {
            let (tag, u, v) = words(raw);
            let sum = fnv.finish();
            fnv.update(raw);
            match tag {
                TAG_ADD => batch.edges_added.push((u, v)),
                TAG_REMOVE => batch.edges_removed.push((u, v)),
                TAG_COMMIT if raw == commit_record(sum) => {
                    let mut dirty = std::mem::take(&mut self.dirty);
                    let classified = self.classify(&batch, &mut dirty, &mut DeltaReport::default());
                    self.dirty = dirty;
                    if !classified?.merged_groups.is_empty() {
                        return Err(bad(
                            "a committed journal batch merges components; only \
                             checkpoints commit merges",
                        ));
                    }
                    self.journal_len = start + i * JOURNAL_ENTRY;
                    self.journal_fnv = fnv.finish();
                    self.n_journal += batch.len() as u64;
                    self.generation += 1;
                    batch = DeltaBatch::new();
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// The engine's generation: the last checkpoint's plus the journal-only
    /// commits since it.
    pub fn generation(&self) -> u64 {
        self.generation
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

    /// Journal operation records since the build, through the committed
    /// tail (commit records are not counted).
    pub fn n_journal(&self) -> u64 {
        self.n_journal
    }

    /// Live condensation edges, `(src, dst)` sorted, from memory (no I/O).
    pub fn condensation_edges(&self) -> Vec<CountedEdge> {
        self.dag.live_sorted()
    }

    /// Applies one batch: classifies every operation against the current
    /// index (span `delta_classify`), then commits it (span `delta_merge`)
    /// — to the journal alone when it merges nothing, as a checkpoint
    /// otherwise. On error nothing is changed — the engine, the journal's
    /// committed end and the artifact all stay at the current generation,
    /// and the apply can be retried.
    pub fn apply(&mut self, batch: &DeltaBatch) -> io::Result<DeltaReport> {
        let before = self.env.stats().snapshot();
        if batch.is_empty() {
            return Ok(DeltaReport {
                generation: self.generation,
                ..DeltaReport::default()
            });
        }
        let tx = Txn::begin(self);
        let this = &mut *tx.0;
        let mut dirty = this.dirty.clone();
        let mut report = DeltaReport::default();
        let Classified {
            journal,
            mut overlay,
            merged_groups,
        } = this.classify(batch, &mut dirty, &mut report)?;

        let sp = ce_extmem::io_span!(
            this.env,
            "delta_merge",
            merges = report.merges,
            journal = journal.len(),
        );
        if merged_groups.is_empty() {
            this.commit_journal(&journal, dirty)?;
        } else {
            // A merge rewrites the size table (components disappear). One
            // pass over the stored table folds it through the final merge
            // mapping: the table is sorted by representative, and every
            // absorbed representative maps to its group's minimum, which
            // comes first — so absorbed sizes add into an entry already
            // emitted.
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
            report.label_pages_rewritten =
                this.checkpoint(&journal, LabelPatch::ByRep(relabel), Some(sizes), dirty)?;
        }
        drop(sp);
        report.generation = this.generation;
        report.ios = this.env.stats().snapshot().since(&before);
        Ok(report)
    }

    /// Classifies `batch` against the stored labels (span
    /// `delta_classify`): mutates the engine's DAG in place and `dirty`,
    /// and counts each operation's kind in `report`. Shared by
    /// [`DeltaEngine::apply`] and the journal replay at open.
    fn classify(
        &mut self,
        batch: &DeltaBatch,
        dirty: &mut BTreeSet<NodeId>,
        report: &mut DeltaReport,
    ) -> io::Result<Classified> {
        let n = self.index.n_nodes();
        for &(u, v) in batch.edges_added.iter().chain(&batch.edges_removed) {
            if u as u64 >= n || v as u64 >= n {
                return Err(bad(&format!(
                    "edge ({u}, {v}) is outside the index's node universe (0..{n}); \
                     delta maintenance never grows the node set"
                )));
            }
        }
        let _sp = ce_extmem::io_span!(
            self.env,
            "delta_classify",
            adds = batch.edges_added.len(),
            removes = batch.edges_removed.len(),
        );
        let dag = &mut self.dag;
        let mut out = Classified {
            journal: Vec::with_capacity(batch.len()),
            overlay: Overlay::default(),
            merged_groups: Vec::new(),
        };
        let overlay = &mut out.overlay;

        for &(u, v) in &batch.edges_added {
            let ru = overlay.find(self.index.component_of(u)?);
            let rv = overlay.find(self.index.component_of(v)?);
            out.journal.push(journal_record(TAG_ADD, u, v));
            if ru == rv {
                report.intra_added += 1;
            } else if dag.count(ru, rv) > 0 {
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
                    out.merged_groups.push(members);
                }
            } else {
                // No rv ⇝ ru path: the insert respects the DAG order.
                dag.add(ru, rv, 1);
                report.dag_appended += 1;
            }
        }

        for &(u, v) in &batch.edges_removed {
            let ru = overlay.find(self.index.component_of(u)?);
            let rv = overlay.find(self.index.component_of(v)?);
            out.journal.push(journal_record(TAG_REMOVE, u, v));
            if ru == rv {
                // Intra-component: possibly splits — defer to lazy
                // re-verification. Self-loop deletions can never split.
                if u != v && dirty.insert(ru) {
                    report.dirty_marked += 1;
                }
                continue;
            }
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
        }
        Ok(out)
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

    /// Re-verifies **all** dirty components (span `delta_compact`) into a
    /// checkpoint that also folds in the journal tail. With nothing dirty,
    /// a non-empty tail is still folded into a checkpoint, so a reader
    /// opened afterwards reports the engine's generation, DAG and dirty
    /// set. Idempotent; with nothing dirty and an empty tail it is a no-op
    /// at zero writes.
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        let dirty: Vec<NodeId> = self.dirty.iter().copied().collect();
        if !dirty.is_empty() || self.generation == self.index.generation() {
            return self.reverify(&dirty);
        }
        let before = self.env.stats().snapshot();
        let sp = ce_extmem::io_span!(self.env, "delta_compact", components = 0usize);
        self.checkpoint(&[], LabelPatch::None, None, self.dirty.clone())?;
        drop(sp);
        Ok(CompactReport {
            generation: self.generation,
            ios: self.env.stats().snapshot().since(&before),
            ..CompactReport::default()
        })
    }

    /// The full exact label vector (re-verifies everything dirty first; a
    /// clean journal tail stays unfolded) — the conformance seam the
    /// differential harness compares against a from-scratch rebuild.
    pub fn labels_snapshot(&mut self) -> io::Result<Vec<NodeId>> {
        let dirty: Vec<NodeId> = self.dirty.iter().copied().collect();
        self.reverify(&dirty)?;
        let mut labels = Vec::with_capacity(self.index.n_nodes() as usize);
        self.scan_labels(|_, rep| labels.push(rep))?;
        Ok(labels)
    }

    /// Recomputes the SCCs of the listed dirty components' induced
    /// subgraphs (non-dirty entries are skipped) and checkpoints the
    /// result. The induced subgraph comes from the base edge file plus the
    /// journal through its committed end — the current multiset —
    /// restricted to the components' members.
    fn reverify(&mut self, reps: &[NodeId]) -> io::Result<CompactReport> {
        let before = self.env.stats().snapshot();
        let targets: BTreeSet<NodeId> =
            reps.iter().copied().filter(|r| self.dirty.contains(r)).collect();
        if targets.is_empty() {
            return Ok(CompactReport {
                generation: self.generation,
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
        let page = self.index.page_size();
        let journal = read_journal(&mut self.journal, 0, self.journal_len, page)?;
        if journal.len() as u64 != self.journal_len {
            return Err(bad("journal sidecar truncated below its committed end"));
        }
        for raw in journal.chunks_exact(JOURNAL_ENTRY as usize) {
            let (tag, u, v) = words(raw);
            if tag == TAG_COMMIT || !(member_set.contains(&u) || member_set.contains(&v)) {
                continue;
            }
            let e = incident.entry((u, v)).or_insert(0);
            if tag == TAG_ADD {
                *e += 1;
            } else if *e > 0 {
                *e -= 1;
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
            ios: IoSnapshot::default(),
        };
        this.checkpoint(&[], LabelPatch::ByNode(changed), Some(table), dirty)?;
        drop(sp);
        report.generation = this.generation;
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

    /// The journal-only commit: appends the batch's `records` and a commit
    /// record in one write and syncs the sidecar. Only after the sync are
    /// the DAG's open transaction committed and the new dirty set
    /// installed.
    fn commit_journal(
        &mut self,
        records: &[JournalRecord],
        dirty: BTreeSet<NodeId>,
    ) -> io::Result<()> {
        let mut bytes = records.concat();
        let mut fnv = Fnv::from_state(self.journal_fnv);
        fnv.update(&bytes);
        let commit = commit_record(fnv.finish());
        fnv.update(&commit);
        bytes.extend_from_slice(&commit);
        self.append_journal(&bytes)?;
        self.journal_len += bytes.len() as u64;
        self.journal_fnv = fnv.finish();
        self.n_journal += records.len() as u64;
        self.generation += 1;
        self.dag.commit();
        self.dirty = dirty;
        Ok(())
    }

    /// The checkpoint commit: appends `records` without a commit record
    /// (the new header commits them) and syncs them, writes the next
    /// generation's artifact to a temporary file
    /// ([`DeltaEngine::write_checkpoint`]) and atomically renames it over
    /// the path. Only after the rename are the DAG's open transaction
    /// committed and the new dirty set installed. Returns the number of
    /// label pages rewritten.
    fn checkpoint(
        &mut self,
        records: &[JournalRecord],
        labels: LabelPatch,
        sizes: Option<Vec<(NodeId, u64)>>,
        dirty: BTreeSet<NodeId>,
    ) -> io::Result<u64> {
        let bytes = records.concat();
        self.append_journal(&bytes)?;
        let mut fnv = Fnv::from_state(self.journal_fnv);
        fnv.update(&bytes);
        let journal_len = self.journal_len + bytes.len() as u64;
        let generation = self.generation + 1;
        let tmp = self.path.with_file_name(format!(
            "{}.g{generation}.tmp",
            self.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
        ));
        let written = self
            .write_checkpoint(&tmp, labels, sizes, &dirty, journal_len, fnv.finish())
            .and_then(|(hdr, pages)| {
                std::fs::rename(&tmp, &self.path)?;
                Ok((hdr, pages))
            });
        let (hdr, pages) = match written {
            Ok(done) => done,
            Err(e) => {
                self.env.evict(&tmp);
                let _ = std::fs::remove_file(&tmp);
                self.cut_journal()?;
                return Err(e);
            }
        };
        // Commit point passed. The pager interns files by path, so both
        // names may alias stale state: the artifact path can still map to
        // a pre-swap inode (a build in this environment interned it), and
        // the tmp name maps to the renamed one. Evict both (the checkpoint
        // synced its frames), then read the new generation under its real
        // name, trusting the header this commit just wrote.
        self.env.evict(&self.path);
        self.env.evict(&tmp);
        self.index = SccIndexReader {
            file: SharedFile::open_in(self.env, &self.path)?,
            hdr,
        };
        self.dag.commit();
        self.dirty = dirty;
        self.journal_len = journal_len;
        self.journal_fnv = fnv.finish();
        self.n_journal += records.len() as u64;
        self.generation = generation;
        Ok(pages)
    }

    /// Writes `bytes` at the journal's committed end and syncs it. On
    /// failure the journal is cut back to the committed end first.
    fn append_journal(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let synced = self
            .journal
            .write_at(self.journal_len, bytes)
            .and_then(|()| self.journal.sync());
        if let Err(e) = synced {
            self.cut_journal()?;
            return Err(e);
        }
        Ok(())
    }

    /// Cuts the journal sidecar back to its committed end after a failed
    /// commit: drops its pager frames (a dirty frame would otherwise serve
    /// the failed append to the next engine opened in this environment),
    /// truncates the file and reopens it.
    fn cut_journal(&mut self) -> io::Result<()> {
        let jpath = journal_path(&self.path);
        self.env.evict(&jpath);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&jpath)?
            .set_len(self.journal_len)?;
        self.journal = CountedFile::open_rw(self.env, &jpath)?;
        Ok(())
    }

    /// Writes the next generation to `tmp` and syncs it: returns its header
    /// and the label-page write count. Copies from the live artifact only
    /// the bytes the checkpoint keeps — the header page and the labels
    /// (patched here), plus the size table when `sizes` is `None` — and
    /// rewrites everything behind them; the header authenticates
    /// `journal_len` bytes of journal with checksum `journal_fnv`.
    fn write_checkpoint(
        &self,
        tmp: &Path,
        labels: LabelPatch,
        sizes: Option<Vec<(NodeId, u64)>>,
        dirty: &BTreeSet<NodeId>,
        journal_len: u64,
        journal_fnv: u64,
    ) -> io::Result<(Header, u64)> {
        let hdr = self.index.hdr;
        let page = hdr.page_size;
        // An OS-level ranged copy (`copy_file_range` on Linux), not counted:
        // a clone outside the I/O model.
        let keep = if sizes.is_some() {
            hdr.sizes_off
        } else {
            hdr.dag_off
        };
        io::copy(
            &mut File::open(&self.path)?.take(keep),
            &mut File::create(tmp)?,
        )?;
        let mut f = CountedFile::open_rw(self.env, tmp)?;

        // Labels: sequential scan, write only pages whose bytes change.
        let mut labels_xor = hdr.labels_xor;
        let mut pages_rewritten = 0u64;
        if !matches!(labels, LabelPatch::None) {
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
                    let new = match &labels {
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
        let (n_sccs, sizes_xor, dag_off) = match &sizes {
            Some(entries) => {
                let mut out: Vec<u8> = Vec::with_capacity(entries.len() * SIZE_ENTRY as usize);
                for &(rep, size) in entries {
                    let mut rec = [0u8; SIZE_ENTRY as usize];
                    rec[0..4].copy_from_slice(&rep.to_le_bytes());
                    rec[8..16].copy_from_slice(&size.to_le_bytes());
                    out.extend_from_slice(&rec);
                }
                let xor = write_padded(&mut f, hdr.sizes_off, page, &out)?;
                let n = entries.len() as u64;
                (n, xor, align_up(hdr.sizes_off + SIZE_ENTRY * n, page))
            }
            None => (hdr.n_sccs, hdr.sizes_xor, hdr.dag_off),
        };

        // DAG section: the live edges, sorted.
        let mut out: Vec<u8> = Vec::with_capacity(self.dag.counts.len() * DAG_ENTRY as usize);
        for (&(s, d), &c) in &self.dag.counts {
            for w in [s, d, c] {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let dag_xor = write_padded(&mut f, dag_off, page, &out)?;
        let n_dag_edges = self.dag.counts.len() as u64;

        // Dirty section.
        let dirty_off = align_up(dag_off + DAG_ENTRY * n_dag_edges, page);
        let out: Vec<u8> = dirty.iter().flat_map(|r| r.to_le_bytes()).collect();
        let dirty_xor = write_padded(&mut f, dirty_off, page, &out)?;

        let new_hdr = Header {
            page_size: page,
            n_nodes: hdr.n_nodes,
            n_sccs,
            labels_off: hdr.labels_off,
            sizes_off: hdr.sizes_off,
            dag_off,
            n_dag_edges,
            labels_xor,
            sizes_xor,
            dag_xor,
            dirty_off,
            n_dirty: dirty.len() as u64,
            dirty_xor,
            generation: self.generation + 1,
            n_journal: journal_len / JOURNAL_ENTRY,
            journal_fnv,
        };
        f.write_at(0, &new_hdr.encode())?;
        f.sync()?;
        Ok((new_hdr, pages_rewritten))
    }
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

    /// An engine's generation, condensation edges (counts dropped) and
    /// dirty set.
    fn engine_view(eng: &DeltaEngine<'_>) -> (u64, Vec<Edge>, Vec<NodeId>) {
        let dag = eng
            .condensation_edges()
            .iter()
            .map(|e| Edge::new(e.src, e.dst))
            .collect();
        (eng.generation(), dag, eng.dirty_components())
    }

    /// The same three as a fresh reader of the artifact at `path` reports
    /// them — the last checkpoint's.
    fn reader_view(e: &DiskEnv, path: &Path) -> (u64, Vec<Edge>, Vec<NodeId>) {
        let idx = SccIndex::open(e, path).unwrap();
        let dag = idx.condensation_edges().map(|r| r.unwrap()).collect();
        let dirty = idx.dirty_components().map(|r| r.unwrap()).collect();
        (idx.generation(), dag, dirty)
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
        // A journal-only commit: the artifact stays the generation-0
        // checkpoint. A reopened engine replays the tail to the same state,
        // and a compact folds it into a checkpoint a fresh reader agrees
        // with.
        let live = engine_view(&eng);
        assert_eq!(rep.generation, 1);
        assert_eq!(live.0, 1);
        assert_eq!(reader_view(&e, &path), (0, vec![Edge::new(0, 2)], vec![]));
        drop(eng);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(engine_view(&eng), live);
        assert_eq!(eng.condensation_edges()[0], CountedEdge::new(0, 2, 2));
        assert_eq!(eng.compact().unwrap().generation, 2);
        assert_eq!(
            reader_view(&e, &path),
            (
                2,
                vec![Edge::new(0, 2), Edge::new(0, 4), Edge::new(4, 2)],
                vec![]
            )
        );
        assert_eq!(reader_view(&e, &path), engine_view(&eng));
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
        // A dropped edge can be added again, and the replayed tail
        // reproduces the whole sequence.
        eng.apply(&DeltaBatch::new().add(0, 2)).unwrap();
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 1)]);
        let live = engine_view(&eng);
        drop(eng);
        let eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(engine_view(&eng), live);
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 2, 1)]);
    }

    #[test]
    fn compact_folds_a_clean_journal_tail_into_a_checkpoint() {
        let e = env();
        // Two condensation edges out of {0,1}: -> {2,3} and -> {4,5}.
        let (g, path) = setup(
            &e,
            "fold",
            6,
            &[(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (0, 2), (0, 4)],
        );
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(
            eng.condensation_edges(),
            vec![CountedEdge::new(0, 2, 1), CountedEdge::new(0, 4, 1)]
        );

        // Dropping the only support of 0 -> 2 commits to the journal alone:
        // the stored DAG still holds both edges until a checkpoint.
        eng.apply(&DeltaBatch::new().remove(0, 2)).unwrap();
        assert_eq!(SccIndex::open(&e, &path).unwrap().n_dag_edges(), 2);

        // Nothing is dirty, but compact still folds the tail into a
        // checkpoint, whose DAG holds the live edges only.
        let rep = eng.compact().unwrap();
        assert_eq!(rep.components_reverified, 0);
        assert_eq!(rep.generation, 2, "the fold is a new generation");
        assert_eq!(eng.generation(), 2);
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_dag_edges(), 1, "the checkpoint holds live edges only");
        assert_eq!(eng.condensation_edges(), vec![CountedEdge::new(0, 4, 1)]);
        assert_eq!(reader_view(&e, &path), engine_view(&eng));

        // Idempotent: with the tail folded, a second compact writes nothing
        // and leaves the generation alone.
        let before = e.stats().snapshot();
        let rep = eng.compact().unwrap();
        assert_eq!(rep.generation, 2);
        assert_eq!(e.stats().snapshot().since(&before).total_ios(), 0);

        // The engine keeps working across the checkpoint: a re-added 0 -> 2
        // replays after a reopen and lands in the next checkpoint.
        eng.apply(&DeltaBatch::new().add(0, 2)).unwrap();
        assert_eq!(
            eng.condensation_edges(),
            vec![CountedEdge::new(0, 2, 1), CountedEdge::new(0, 4, 1)]
        );
        let live = engine_view(&eng);
        drop(eng);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(engine_view(&eng), live);
        eng.compact().unwrap();
        assert_eq!(SccIndex::open(&e, &path).unwrap().n_dag_edges(), 2);
        assert_eq!(reader_view(&e, &path), engine_view(&eng));
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
        // The stored labels are a coarsening until someone looks. The dirty
        // mark lives in the journal tail: the artifact is still the
        // generation-0 checkpoint, and a reopened engine replays the mark.
        let idx = SccIndex::open(&e, &path).unwrap();
        assert_eq!(idx.n_sccs(), 2);
        assert_eq!(reader_view(&e, &path), (0, vec![Edge::new(0, 3)], vec![]));
        let live = engine_view(&eng);
        assert_eq!(live, (1, vec![Edge::new(0, 3)], vec![0]));
        drop(eng);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(engine_view(&eng), live);

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
        assert_eq!(idx.generation(), 2, "the re-verification checkpoint");
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
    fn a_reopened_engine_replays_a_long_journal_tail() {
        // Eight 5-cycles; cross edges only run from a lower cycle to a
        // higher one, so no insert can close a cycle and every batch
        // commits to the journal alone.
        let e = env();
        let n = 40u64;
        let mut current: Vec<(u32, u32)> = Vec::new();
        for c in 0..8u32 {
            for i in 0..5 {
                current.push((5 * c + i, 5 * c + (i + 1) % 5));
            }
        }
        current.extend([(4, 5), (9, 30), (12, 39)]);
        let (g, path) = setup(&e, "replay", n, &current);
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        let mut x = 0x7e11u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut total = DeltaReport::default();
        for step in 0..120 {
            let batch = if step % 3 == 2 {
                let (u, v) = current.swap_remove(next() as usize % current.len());
                DeltaBatch::new().remove(u, v)
            } else {
                let (mut u, mut v) = ((next() % n) as u32, (next() % n) as u32);
                if u / 5 > v / 5 {
                    std::mem::swap(&mut u, &mut v);
                }
                current.push((u, v));
                DeltaBatch::new().add(u, v)
            };
            let rep = eng.apply(&batch).unwrap();
            assert_eq!(rep.merges, 0, "step {step}");
            assert_eq!(rep.label_pages_rewritten, 0, "step {step}");
            total.intra_added += rep.intra_added;
            total.dag_appended += rep.dag_appended;
            total.dag_reinforced += rep.dag_reinforced;
            total.dag_weakened += rep.dag_weakened;
            total.dag_dropped += rep.dag_dropped;
            total.dirty_marked += rep.dirty_marked;
        }
        for (kind, count) in [
            ("intra", total.intra_added),
            ("append", total.dag_appended),
            ("reinforce", total.dag_reinforced),
            ("weaken", total.dag_weakened),
            ("drop", total.dag_dropped),
            ("dirty", total.dirty_marked),
        ] {
            assert!(count > 0, "the stream never took the {kind} path");
        }
        assert_eq!(eng.generation(), 120);
        assert_eq!(SccIndex::open(&e, &path).unwrap().generation(), 0);

        // Drop the engine and the sidecar's pager frames, then replay.
        let state = |eng: &DeltaEngine<'_>| {
            (
                eng.generation(),
                eng.condensation_edges(),
                eng.dirty_components(),
                eng.n_sccs(),
                eng.n_journal(),
            )
        };
        let live = state(&eng);
        assert_eq!(live.4, 120);
        drop(eng);
        e.evict(&journal_path(&path));
        let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
        assert_eq!(state(&eng), live);

        // A compact folds the tail into a checkpoint a fresh reader agrees
        // with, and the labels are exact.
        eng.compact().unwrap();
        assert_eq!(reader_view(&e, &path), engine_view(&eng));
        assert_eq!(eng.labels_snapshot().unwrap(), scratch(n, &current));
    }

    #[test]
    fn bytes_past_the_committed_journal_end_are_ignored_and_overwritten() {
        // A 3-cycle {0,1,2} and isolated 3, 4. Deleting 2 -> 0 dirties the
        // cycle; a stray `+2 0` past the committed end, if it were
        // counted, would keep the cycle whole through re-verification.
        let stray = journal_record(TAG_ADD, 2, 0);
        for (case, extra) in [
            "half a record",
            "a batch without a commit record",
            "a bad checksum",
        ]
        .into_iter()
        .enumerate()
        {
            let e = env();
            let (g, path) = setup(&e, "torn", 5, &[(0, 1), (1, 2), (2, 0)]);
            let jpath = journal_path(&path);
            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            eng.apply(&DeltaBatch::new().remove(2, 0)).unwrap();
            drop(eng);
            let committed = std::fs::read(&jpath).unwrap();
            let mut torn = committed.clone();
            match case {
                0 => torn.extend_from_slice(&stray[..6]),
                1 => (0..3).for_each(|_| torn.extend_from_slice(&stray)),
                _ => {
                    torn.extend_from_slice(&stray);
                    let mut fnv = Fnv::new();
                    fnv.update(&torn);
                    torn.extend_from_slice(&commit_record(fnv.finish() ^ 1));
                }
            }
            std::fs::write(&jpath, &torn).unwrap();
            e.evict(&jpath);

            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            assert_eq!((eng.generation(), eng.n_journal()), (1, 1), "{extra}");
            assert_eq!(eng.dirty_components(), vec![0], "{extra}");
            // The next apply overwrites the stray bytes from the committed
            // end on.
            eng.apply(&DeltaBatch::new().add(3, 4)).unwrap();
            let mut fnv = Fnv::new();
            fnv.update(&committed);
            let add = journal_record(TAG_ADD, 3, 4);
            fnv.update(&add);
            let on_disk = std::fs::read(&jpath).unwrap();
            let end = committed.len();
            assert_eq!(&on_disk[..end], &committed[..], "{extra}");
            assert_eq!(&on_disk[end..end + 12], &add[..], "{extra}");
            assert_eq!(
                &on_disk[end + 12..end + 24],
                &commit_record(fnv.finish())[..],
                "{extra}"
            );
            drop(eng);
            e.evict(&jpath);

            let mut eng = DeltaEngine::open(&e, &g, &path).unwrap();
            assert_eq!((eng.generation(), eng.n_journal()), (2, 2), "{extra}");
            assert_eq!(
                eng.condensation_edges(),
                vec![CountedEdge::new(3, 4, 1)],
                "{extra}"
            );
            assert_eq!(
                eng.labels_snapshot().unwrap(),
                vec![0, 1, 2, 3, 4],
                "{extra}: re-verification counted a stray edge"
            );
        }
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
