//! `SccIndex` — the persistent, queryable product of an SCC computation.
//!
//! Computing SCCs externally is expensive; the answers it yields — "which
//! component is `u` in", "are `u` and `v` strongly connected", "how big is
//! `u`'s component" — are cheap *if* the labeling is kept in a shape built
//! for point queries. This module materializes exactly that: a versioned,
//! checksummed on-disk artifact holding the node→representative mapping in
//! block-aligned pages, a component-size table, and (optionally) the
//! condensation DAG's edge list.
//!
//! The artifact is written through the environment's pager
//! ([`CountedFile`]) and read through a [`SharedFile`]; both price every
//! transfer by one rule in the same **logical**
//! [`IoStats`](ce_extmem::IoStats) model as the algorithms themselves. The
//! environment never deletes the artifact (see
//! [`CountedFile::create_persistent`]), so it survives the environment
//! that built it and reopens in `O(1)` memory:
//! [`SccIndex::open`] reads the header and runs one checksum pass, after
//! which every query touches a bounded number of blocks —
//! [`component_of`](SccIndexReader::component_of) one,
//! [`same_component`](SccIndexReader::same_component) at most two (zero
//! when `u == v`, one when both labels share a page),
//! [`component_size`](SccIndexReader::component_size) `O(log n_sccs)`, and
//! the batched [`component_of_many`](SccIndexReader::component_of_many) one
//! read per *distinct* label page in the batch.
//!
//! ## One reader, two ways to open it
//!
//! [`SccIndexReader`] is the only handle on an artifact: cloneable,
//! `Send + Sync`, and every query takes `&self`. [`SccIndex::open`] prices
//! its reads in an environment's logical ledger at the environment's block
//! size and reads without a pool — the form the session, the delta engine
//! and `scc index query` use. [`SccIndex::open_shared`] is the serving
//! form: all its clones share one read-only `SharedPager` block pool, so a
//! hot label page faulted by one thread is a cache hit for every other.
//! Either way a clone starts with fresh logical counters of its own, so a
//! query's [`IoSnapshot`](ce_extmem::IoSnapshot) does not depend on how
//! many readers run concurrently. Both forms validate and answer through
//! the same code, so they price every query identically.
//!
//! ## On-disk layout (version 4, all integers little-endian)
//!
//! ```text
//! page 0         header: magic "CESI", version, page size, counts,
//!                section offsets, generation, checksums, header checksum
//! labels_off     rep[u]: u32 per node, node order, page-padded
//! sizes_off      (rep: u32, pad: u32, size: u64) per component,
//!                sorted by rep, page-padded
//! dag_off        condensation edges (src: u32, dst: u32, count: u32),
//!                page-padded (absent when dag_off == 0); `count` is the
//!                number of base-graph edge instances crossing the
//!                component pair. Records are sorted by (src, dst) and
//!                every count is positive: builds write them so, and every
//!                delta checkpoint rewrites the section from the live
//!                condensation
//! dirty_off      dirty component representatives (u32, ascending),
//!                page-padded — components whose partition must be
//!                re-verified by the delta engine before it is exact
//! ```
//!
//! The page size is the building environment's block size, so sections are
//! block-aligned for the device that wrote them.
//!
//! ## One codec
//!
//! This module owns every byte of the artifact: the section offsets (one
//! function places them for the build, the checkpoint writer and the open
//! check), one encoder and decoder per section record (shared by the
//! section writer and the section cursor), the page hash and the header.
//! [`SccIndex::build`] and the crate-private checkpoint writer that the
//! delta engine ([`crate::delta`]) calls write through the same section
//! writer and header assembly. The engine decides what a checkpoint holds
//! and when; it reads the artifact through the reader's streams. The
//! journal sidecar is the engine's format.
//!
//! ## Generations and page checksums
//!
//! Version 1 was write-once: one monolithic payload checksum over every
//! byte of the file, recomputable only by streaming the whole artifact.
//! Version 2 came with the delta engine ([`crate::delta`]), the repo's
//! first *write-after-build* path, and two format properties make its
//! localized updates possible:
//!
//! * **Generation counter** (header word 13). The delta engine commits
//!   an update in one of two ways (see [`crate::delta`]): a batch that
//!   merges nothing is committed by the journal sidecar alone, and a
//!   merge, a re-verification or a `compact` writes a **checkpoint** — a
//!   complete new artifact *file*, built from the kept prefix of the
//!   current one with the touched pages patched, atomically `rename(2)`d
//!   over the old path. Generations count commits of both kinds; a
//!   checkpoint's header stores the generation it was written at. Readers
//!   that opened generation `g` keep their file descriptor to the old
//!   inode and never observe a torn index; a crash mid-update leaves the
//!   previous checkpoint at the path untouched.
//!   [`SccIndexReader::generation`] exposes the stored counter.
//! * **Per-page checksums.** Every section is covered by the XOR over its
//!   pages of `page_hash(page_index, page bytes)`, padding included
//!   (header words `labels_xor`, `sizes_xor`, `dag_xor`, `dirty_xor`).
//!   Patching one page updates its section's checksum in `O(1)` — XOR the
//!   old page's hash out, the new page's hash in — instead of re-streaming
//!   the section. This is what lets a component merge rewrite *only* the
//!   label pages owning affected nodes. The size table, the DAG section
//!   and the dirty section are rewritten wholesale by the checkpoints that
//!   change them and fold each page into their XOR as it is written.
//!
//! Version 3 changes only the checksums. Version 2 hashed labels and DAG
//! pages with FNV-1a one byte at a time and kept a running FNV-1a over the
//! record bytes of the size table and the dirty section, which left their
//! padding unchecked. Byte-wise FNV-1a is one serial chain of multiplies,
//! one per byte, and every reader generation pays it over the whole
//! artifact at open. `page_hash` now runs four interleaved lanes of
//! xxHash64's round (add the word times a prime, rotate, multiply) over
//! 64-bit little-endian words: the four chains overlap in the CPU and each
//! step consumes eight bytes. The lanes are seeded apart from each other
//! and from the page index, folded in order by xor, multiply and
//! xor-shift, and the bytes past the last whole 32-byte stride are folded
//! one at a time. Each round and each fold step is a bijection of its
//! state, so any change confined to one word — in particular any single
//! flipped byte — always changes the page's hash, and the page index in
//! the seeds catches swapped pages. The rotate in every round carries high
//! bits down: a plain xor-multiply lane only moves a difference upward, so
//! two flips in the top bytes of one lane could cancel, and a bit flipped
//! in the same top position of two pages would cancel in the section XOR.
//! Distinct lane seeds and the ordered fold keep pages of one repeated
//! word (a giant component's label pages, zero padding) from collapsing
//! onto a few hash values.
//!
//! Version 4 changes what the journal may hold, not the layout: its
//! authenticated prefix can now contain commit records, which a version-3
//! reader would replay as deletions.
//!
//! The header also records `(n_journal, journal_fnv)`: how many records of
//! the **journal sidecar** (`<artifact>.dlog`) the checkpoint folded in,
//! and the running FNV-1a of their bytes. The sidecar is the delta engine's
//! write-ahead log; its records and the committed tail past this prefix
//! are [`crate::delta`]'s format, and plain query handles never read it.
//!
//! The header checksum (144 bytes) and the journal's resumable running
//! checksum stay byte-wise FNV-1a. A flipped byte in the header or in any
//! page of any section is rejected at [`SccIndex::open`] with a checksum or
//! geometry error instead of producing garbage.

use std::io::{self, Read as _};
use std::marker::PhantomData;
use std::ops::Range;
use std::path::{Path, PathBuf};

use ce_extmem::file::CountedFile;
use ce_extmem::{sort_streaming_by_key, DiskEnv, ExtFile, SharedFile, SortedStream};

use crate::types::{CountedEdge, Edge, NodeId, SccLabel};

/// Magic bytes of the index format.
const MAGIC: &[u8; 4] = b"CESI";
/// Current format version (4: journal commit records; see the module docs
/// for what changed relative to versions 1–3).
const VERSION: u32 = 4;
/// Serialized header length in bytes (the rest of page 0 is zero padding).
const HEADER_LEN: usize = 144;
/// Bytes per entry of the component-size table.
const SIZE_ENTRY: u64 = 16;
/// Bytes per stored condensation edge (src, dst, count).
const DAG_ENTRY: u64 = 12;
/// Bytes per dirty-component entry (one representative id).
const DIRTY_ENTRY: u64 = 4;
/// Geometry sanity bounds enforced at open (see [`open_checked`]).
const MAX_PAGE: u64 = 1 << 31;
const MAX_NODES: u64 = (u32::MAX as u64) + 1;
const MAX_DAG_EDGES: u64 = 1 << 40;

/// FNV-1a 64-bit offset basis and prime.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit, byte at a time: the header checksum and the journal's
/// running checksum. The state *is* the digest (no finalization), so a
/// stored journal checksum can be resumed to cover appended records.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_BASIS)
    }

    /// Resumes from a stored running state.
    pub(crate) fn from_state(state: u64) -> Fnv {
        Fnv(state)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// xxHash64's first two primes: the multipliers of the page hash's lane
/// round and fold.
const PAGE_P1: u64 = 0x9e37_79b1_85eb_ca87;
const PAGE_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One lane round of the page hash (xxHash64's): add the word times
/// `PAGE_P2`, rotate left 31, multiply by `PAGE_P1`. For a fixed word it is
/// a bijection of the lane, and for a fixed lane a bijection of the word;
/// the rotate carries the top bits of a difference down, so the next
/// multiply spreads them over the whole lane.
fn lane_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(PAGE_P2))
        .rotate_left(31)
        .wrapping_mul(PAGE_P1)
}

/// Folds `v` into `h`: xor, multiply, xor-shift. A bijection of `v` for a
/// fixed `h` and of `h` for a fixed `v`; folding is order-dependent.
fn page_fold(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(PAGE_P1);
    h ^ (h >> 29)
}

/// Hash of one section page (padding included): four interleaved lanes of
/// [`lane_round`] over 64-bit little-endian words, the lanes seeded apart
/// from each other and from the section-relative page index, folded in
/// order by [`page_fold`]; the bytes past the last whole 32-byte stride are
/// folded one at a time, and a final multiply and xor-shift avalanches the
/// result. A section's checksum is the XOR of these over its pages, so
/// patching one page is an `O(1)` checksum update and pages cannot be
/// swapped undetected. See the module docs for why four lanes.
fn page_hash(page_idx: u64, bytes: &[u8]) -> u64 {
    let s = page_idx;
    let mut lanes = [
        s.wrapping_add(PAGE_P1).wrapping_add(PAGE_P2),
        s.wrapping_add(PAGE_P2),
        s,
        s.wrapping_sub(PAGE_P1),
    ];
    let mut strides = bytes.chunks_exact(32);
    for stride in &mut strides {
        for (lane, word) in lanes.iter_mut().zip(stride.chunks_exact(8)) {
            *lane = lane_round(*lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
    let mut h = lanes.iter().fold(0, |h, &lane| page_fold(h, lane));
    for &b in strides.remainder() {
        h = page_fold(h, b as u64);
    }
    let h = h.wrapping_mul(PAGE_P2);
    h ^ (h >> 32)
}

/// Journal sidecar path: `<artifact>.dlog` next to the artifact.
pub(crate) fn journal_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".dlog");
    path.with_file_name(name)
}

/// Parsed header of an open index.
#[derive(Debug, Clone, Copy, Default)]
struct Header {
    page_size: u64,
    n_nodes: u64,
    n_sccs: u64,
    labels_off: u64,
    sizes_off: u64,
    dag_off: u64,
    n_dag_edges: u64,
    labels_xor: u64,
    sizes_xor: u64,
    dag_xor: u64,
    dirty_off: u64,
    n_dirty: u64,
    dirty_xor: u64,
    generation: u64,
    n_journal: u64,
    journal_fnv: u64,
}

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(MAGIC);
        buf[4..8].copy_from_slice(&VERSION.to_le_bytes());
        for (i, v) in [
            self.page_size,
            self.n_nodes,
            self.n_sccs,
            self.labels_off,
            self.sizes_off,
            self.dag_off,
            self.n_dag_edges,
            self.labels_xor,
            self.sizes_xor,
            self.dag_xor,
            self.dirty_off,
            self.n_dirty,
            self.dirty_xor,
            self.generation,
            self.n_journal,
            self.journal_fnv,
        ]
        .iter()
        .enumerate()
        {
            buf[8 + 8 * i..16 + 8 * i].copy_from_slice(&v.to_le_bytes());
        }
        let mut fnv = Fnv::new();
        fnv.update(&buf[..HEADER_LEN - 8]);
        buf[HEADER_LEN - 8..].copy_from_slice(&fnv.finish().to_le_bytes());
        buf
    }

    fn decode(buf: &[u8; HEADER_LEN]) -> io::Result<Header> {
        if &buf[0..4] != MAGIC {
            return Err(bad("not an SCC index (bad magic)"));
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad(&format!(
                "unsupported index version {version} (this build reads version {VERSION}; \
                 rebuild the artifact with `scc index build`)"
            )));
        }
        let mut fnv = Fnv::new();
        fnv.update(&buf[..HEADER_LEN - 8]);
        let stored = u64::from_le_bytes(buf[HEADER_LEN - 8..].try_into().unwrap());
        if fnv.finish() != stored {
            return Err(bad("header checksum mismatch"));
        }
        let word = |i: usize| u64::from_le_bytes(buf[8 + 8 * i..16 + 8 * i].try_into().unwrap());
        Ok(Header {
            page_size: word(0),
            n_nodes: word(1),
            n_sccs: word(2),
            labels_off: word(3),
            sizes_off: word(4),
            dag_off: word(5),
            n_dag_edges: word(6),
            labels_xor: word(7),
            sizes_xor: word(8),
            dag_xor: word(9),
            dirty_off: word(10),
            n_dirty: word(11),
            dirty_xor: word(12),
            generation: word(13),
            n_journal: word(14),
            journal_fnv: word(15),
        })
    }

    /// Where this header's counts place the sections (an artifact has a DAG
    /// section exactly when `dag_off != 0`).
    fn layout(&self) -> Layout {
        let n_dag_edges = (self.dag_off != 0).then_some(self.n_dag_edges);
        layout(self.page_size, self.n_nodes, self.n_sccs, n_dag_edges, self.n_dirty)
    }

    /// Total file length implied by the header (every section page-padded).
    fn file_len(&self) -> u64 {
        self.layout().dirty.end
    }
}

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("scc index: {msg}"))
}

fn align_up(v: u64, page: u64) -> u64 {
    v.div_ceil(page) * page
}

/// The page-padded byte range of each section. An absent DAG section is
/// the empty range `0..0`.
struct Layout {
    labels: Range<u64>,
    sizes: Range<u64>,
    dag: Range<u64>,
    dirty: Range<u64>,
}

/// Places the sections of an artifact with these counts: each starts on
/// the first page boundary past the header or the section before it, so an
/// offset depends only on the counts before it. `n_dag_edges` is `None`
/// for an artifact without the DAG section. The one computation of section
/// offsets: the build, the checkpoint writer and [`open_checked`] all call
/// it.
fn layout(page: u64, n_nodes: u64, n_sccs: u64, n_dag_edges: Option<u64>, n_dirty: u64) -> Layout {
    let section = |start: u64, bytes: u64| start..align_up(start + bytes, page);
    let labels = section(align_up(HEADER_LEN as u64, page), 4 * n_nodes);
    let sizes = section(labels.end, SIZE_ENTRY * n_sccs);
    let dag = n_dag_edges.map_or(0..0, |n| section(sizes.end, DAG_ENTRY * n));
    // An absent DAG section takes no space.
    let dirty = section(dag.end.max(sizes.end), DIRTY_ENTRY * n_dirty);
    Layout {
        labels,
        sizes,
        dag,
        dirty,
    }
}

/// One fixed-size record of a section: its one little-endian encoder and
/// decoder, shared by [`write_section`] and [`SectionCursor`].
trait SectionRecord: Sized {
    /// Encoded length in bytes.
    const LEN: usize;
    /// Encodes into `out`, which is exactly [`SectionRecord::LEN`] bytes.
    fn encode(&self, out: &mut [u8]);
    /// Decodes `raw`, which is exactly [`SectionRecord::LEN`] bytes.
    fn decode(raw: &[u8]) -> Self;
}

/// A label (the representative of one node) or a dirty representative.
impl SectionRecord for NodeId {
    const LEN: usize = DIRTY_ENTRY as usize;

    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn decode(raw: &[u8]) -> NodeId {
        NodeId::from_le_bytes(raw.try_into().unwrap())
    }
}

/// A size-table entry: representative, four zero bytes, component size.
impl SectionRecord for (NodeId, u64) {
    const LEN: usize = SIZE_ENTRY as usize;

    fn encode(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.0.to_le_bytes());
        out[4..8].fill(0);
        out[8..16].copy_from_slice(&self.1.to_le_bytes());
    }

    fn decode(raw: &[u8]) -> (NodeId, u64) {
        (
            NodeId::from_le_bytes(raw[0..4].try_into().unwrap()),
            u64::from_le_bytes(raw[8..16].try_into().unwrap()),
        )
    }
}

/// A condensation edge: source, destination and multiplicity.
impl SectionRecord for CountedEdge {
    const LEN: usize = DAG_ENTRY as usize;

    fn encode(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.src.to_le_bytes());
        out[4..8].copy_from_slice(&self.dst.to_le_bytes());
        out[8..12].copy_from_slice(&self.count.to_le_bytes());
    }

    fn decode(raw: &[u8]) -> CountedEdge {
        let word = |i: usize| u32::from_le_bytes(raw[4 * i..4 * i + 4].try_into().unwrap());
        CountedEdge::new(word(0), word(1), word(2))
    }
}

/// The section writer of the build and the checkpoint alike: writes
/// `records` as one section from `start`, a page at a time through the
/// counted file with the last page zero-padded (an empty section writes
/// nothing), and folds every page's hash into the section checksum.
/// Returns the record count and the checksum.
fn write_section<R: SectionRecord>(
    file: &mut CountedFile,
    page: u64,
    start: u64,
    records: impl Iterator<Item = io::Result<R>>,
) -> io::Result<(u64, u64)> {
    let (mut count, mut xor, mut at) = (0u64, 0u64, start);
    let mut flush = |bytes: &[u8]| -> io::Result<()> {
        file.write_at(at, bytes)?;
        xor ^= page_hash((at - start) / page, bytes);
        at += page;
        Ok(())
    };
    let len = page as usize;
    let mut buf = Vec::with_capacity(len + R::LEN);
    for record in records {
        let end = buf.len();
        buf.resize(end + R::LEN, 0);
        record?.encode(&mut buf[end..]);
        count += 1;
        while buf.len() >= len {
            flush(&buf[..len])?;
            buf.drain(..len);
        }
    }
    if !buf.is_empty() {
        buf.resize(len, 0);
        flush(&buf)?;
    }
    Ok((count, xor))
}

/// The common tail of [`SccIndex::build`] and
/// [`SccIndexReader::write_checkpoint`]: writes the size table (unless
/// `sizes` is `None`, when `hdr` already holds the kept table's count and
/// checksum), the DAG section (when given) and the dirty section where
/// [`layout`] places them, then `hdr` at offset 0, pads the file to the
/// length the header implies and syncs it.
fn write_tail(
    file: &mut CountedFile,
    mut hdr: Header,
    sizes: Option<impl Iterator<Item = io::Result<(NodeId, u64)>>>,
    dag: Option<impl ExactSizeIterator<Item = io::Result<CountedEdge>>>,
    dirty: impl ExactSizeIterator<Item = NodeId>,
) -> io::Result<Header> {
    let page = hdr.page_size;
    if let Some(sizes) = sizes {
        (hdr.n_sccs, hdr.sizes_xor) = write_section(file, page, hdr.sizes_off, sizes)?;
    }
    let n_dag_edges = dag.as_ref().map(|d| d.len() as u64);
    let at = layout(page, hdr.n_nodes, hdr.n_sccs, n_dag_edges, dirty.len() as u64);
    (hdr.dag_off, hdr.dirty_off) = (at.dag.start, at.dirty.start);
    if let Some(dag) = dag {
        (hdr.n_dag_edges, hdr.dag_xor) = write_section(file, page, at.dag.start, dag)?;
    }
    (hdr.n_dirty, hdr.dirty_xor) = write_section(file, page, at.dirty.start, dirty.map(Ok))?;
    file.write_at(0, &hdr.encode())?;
    // An all-empty payload leaves the file shorter than the padded header
    // page; extend so the length always matches the header.
    let have = file.len_bytes()?;
    if have < at.dirty.end {
        file.write_at(have, &vec![0u8; (at.dirty.end - have) as usize])?;
    }
    file.sync()?;
    Ok(hdr)
}

/// Reads exactly `buf.len()` bytes at `offset` or fails with a truncation
/// error naming `what`.
fn read_exact_at(file: &SharedFile, offset: u64, buf: &mut [u8], what: &str) -> io::Result<()> {
    if file.read_at(offset, buf)? != buf.len() {
        return Err(bad(&format!("{what} truncated")));
    }
    Ok(())
}

/// Reads the header and validates magic, version, geometry and every
/// section checksum — the whole open-time protocol behind both
/// [`SccIndex::open`] and [`SccIndex::open_shared`].
fn open_checked(file: SharedFile) -> io::Result<SccIndexReader> {
    let mut buf = [0u8; HEADER_LEN];
    if file.read_at(0, &mut buf)? != HEADER_LEN {
        return Err(bad("file too short for a header"));
    }
    let hdr = Header::decode(&buf)?;
    let page = hdr.page_size;
    // Bound every header count before any arithmetic on it: the header
    // checksum is unkeyed, so a hostile file can carry any bytes — the
    // geometry math below must not overflow (panic in debug, wrap in
    // release) on fields like `n_nodes = 2^62`. Within these bounds all
    // section arithmetic stays far below u64::MAX.
    if page == 0
        || page > MAX_PAGE
        || hdr.n_nodes > MAX_NODES
        || hdr.n_sccs > hdr.n_nodes
        || hdr.n_dag_edges > MAX_DAG_EDGES
        || hdr.n_dirty > hdr.n_sccs
    {
        return Err(bad("implausible header geometry"));
    }
    let at = hdr.layout();
    if [hdr.labels_off, hdr.sizes_off, hdr.dag_off, hdr.dirty_off]
        != [at.labels.start, at.sizes.start, at.dag.start, at.dirty.start]
        || (hdr.dag_off == 0 && hdr.n_dag_edges != 0)
    {
        return Err(bad("inconsistent section geometry"));
    }
    let want_len = at.dirty.end;
    if file.len_bytes() != want_len {
        return Err(bad(&format!(
            "file is {} bytes, header implies {want_len}",
            file.len_bytes()
        )));
    }
    // Every section: XOR of per-page hashes over whole pages, padding
    // included (an absent DAG section is empty). The labels go last, so a
    // reader's fresh pool ends up holding label pages — the pages its
    // first queries read.
    let mut chunk = vec![0u8; page as usize];
    for (range, want, what) in [
        (at.sizes, hdr.sizes_xor, "size table"),
        (at.dag, hdr.dag_xor, "dag section"),
        (at.dirty, hdr.dirty_xor, "dirty section"),
        (at.labels, hdr.labels_xor, "labels section"),
    ] {
        let mut xor = 0u64;
        for p in 0..(range.end - range.start) / page {
            read_exact_at(&file, range.start + p * page, &mut chunk, what)?;
            xor ^= page_hash(p, &chunk);
        }
        if xor != want {
            return Err(bad(&format!("{what} checksum mismatch")));
        }
    }
    Ok(SccIndexReader { file, hdr })
}

fn check_node(hdr: &Header, u: NodeId) -> io::Result<()> {
    if u as u64 >= hdr.n_nodes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("node {u} out of range (index covers {} nodes)", hdr.n_nodes),
        ));
    }
    Ok(())
}

/// Label page (block of the labels section) holding node `u`'s entry.
fn label_page(hdr: &Header, u: NodeId) -> u64 {
    (4 * u as u64) / hdr.page_size
}

/// Sniffs the page size of an artifact with one raw, **uncounted** header
/// peek (magic, version and header checksum are validated; nothing else
/// is). Callers that must match an environment's block size to an existing
/// artifact — `scc index apply` / `scc index compact` — use this before
/// constructing the environment.
pub fn sniff_page_size(path: &Path) -> io::Result<u64> {
    let mut raw = [0u8; HEADER_LEN];
    {
        let mut f = std::fs::File::open(path)?;
        let mut done = 0;
        while done < HEADER_LEN {
            match f.read(&mut raw[done..]) {
                Ok(0) => return Err(bad("file too short for a header")),
                Ok(k) => done += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    let page = Header::decode(&raw)?.page_size;
    if page == 0 || page > MAX_PAGE {
        return Err(bad("implausible header geometry"));
    }
    Ok(page)
}

/// The artifact's constructors: [`SccIndex::build`] writes one,
/// [`SccIndex::open`] and [`SccIndex::open_shared`] return the
/// [`SccIndexReader`] that queries it. See the module docs for the format.
pub enum SccIndex {}

impl SccIndex {
    /// Builds the on-disk artifact at `path` from a label file that is
    /// dense and sorted by node (one record per node `0..n_nodes`, as every
    /// [`crate::algo::SccAlgorithm`] writes) and, optionally, a counted
    /// condensation DAG edge file (as produced by
    /// [`crate::labels::condense_counted`]). A component's representative
    /// may be any of its members; the index stores whichever the labels
    /// name. Returns the number of distinct components written. The
    /// artifact starts at generation 0 with empty dirty and journal
    /// sections.
    ///
    /// The file at `path` is created as a persistent file the environment
    /// never deletes, truncating any previous artifact (and any stale
    /// journal sidecar next to it); all bytes flow through the
    /// environment's pager and logical I/O counters. One external sort of
    /// the label file (by representative) derives the component-size table.
    pub fn build(
        env: &DiskEnv,
        path: &Path,
        labels: &ExtFile<SccLabel>,
        n_nodes: u64,
        dag: Option<&ExtFile<CountedEdge>>,
    ) -> io::Result<u64> {
        if labels.len() != n_nodes {
            return Err(bad(&format!(
                "label file covers {} nodes, graph has {n_nodes}",
                labels.len()
            )));
        }
        let _sp = ce_extmem::io_span!(env, "index_build", nodes = n_nodes);
        let page = env.config().block_size as u64;
        let mut file = CountedFile::create_persistent(env, path)?;
        // The labels and the size table start where they do whatever the
        // counts behind them turn out to be.
        let head = layout(page, n_nodes, 0, None, 0);

        // Section 1: node -> representative, u32 per node in node order.
        // (Page-aligned; multiple header pages when the block size is
        // smaller than the header.)
        let mut r = labels.reader()?;
        let reps = (0..n_nodes).map(|u| match r.next()? {
            Some(l) if l.node as u64 == u => Ok(l.scc),
            l => Err(bad(&format!(
                "label file not dense/sorted at node {}",
                l.map_or(u, |l| l.node as u64)
            ))),
        });
        let (_, labels_xor) = write_section(&mut file, page, head.labels.start, reps)?;

        // Section 2: (rep, size) per component, sorted by rep — the
        // external sort of the labels streams its final merge straight into
        // the run-length scan (no by-rep file is written).
        let mut by_rep = sort_streaming_by_key(env, labels, "idx-by-rep", |l: &SccLabel| l.scc)?
            .into_stream()?;
        let mut run: Option<(NodeId, u64)> = None;
        let sizes = std::iter::from_fn(|| loop {
            match by_rep.next() {
                Err(e) => return Some(Err(e)),
                Ok(Some(l)) => match &mut run {
                    Some((rep, size)) if *rep == l.scc => *size += 1,
                    _ => {
                        if let Some(done) = run.replace((l.scc, 1)) {
                            return Some(Ok(done));
                        }
                    }
                },
                Ok(None) => return run.take().map(Ok),
            }
        });

        // Section 3 (optional): counted condensation DAG edges. Section 4,
        // the dirty components, is empty at build.
        let dag = match dag {
            Some(edges) => {
                let mut r = edges.reader()?;
                let records = (0..edges.len() as usize).map(move |_| {
                    r.next()?
                        .ok_or_else(|| bad("condensation file ended early"))
                });
                Some(records)
            }
            None => None,
        };

        // Generation 0 with an empty journal; `write_tail` fills in the rest
        // of the header and writes it last.
        let hdr = Header {
            page_size: page,
            n_nodes,
            labels_off: head.labels.start,
            sizes_off: head.sizes.start,
            labels_xor,
            journal_fnv: Fnv::new().finish(),
            ..Header::default()
        };
        let hdr = write_tail(&mut file, hdr, Some(sizes), dag, std::iter::empty())?;
        // A journal sidecar from an earlier artifact at this path would be
        // misattributed to the fresh generation-0 index: drop it.
        match std::fs::remove_file(journal_path(path)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(hdr.n_sccs)
    }

    /// Reopens an artifact in `O(1)` memory: reads the header, validates
    /// magic/version/geometry, and streams one checksum pass over the
    /// payload sections (the labels last). A file that was truncated, extended or had any
    /// record byte flipped is rejected here with an
    /// [`io::ErrorKind::InvalidData`] checksum/geometry error — corruption
    /// never reaches query answers.
    ///
    /// The returned reader prices its open and every query in `env`'s
    /// logical [`IoStats`](ce_extmem::IoStats) at `env`'s block size, and
    /// reads the file without a pool.
    pub fn open(env: &DiskEnv, path: &Path) -> io::Result<SccIndexReader> {
        let _sp = ce_extmem::io_span!(env, "index_open");
        open_checked(SharedFile::open_in(env, path)?)
    }

    /// Opens the artifact for **concurrent** reads: the returned reader's
    /// clones share one read-only block pool of `cache_blocks` frames (0 =
    /// no caching). Performs the same validation protocol as
    /// [`SccIndex::open`] at the same logical I/O cost, counted in the
    /// reader's own per-handle stats instead of an environment's, which is
    /// what keeps per-query costs deterministic under concurrency.
    pub fn open_shared(path: &Path, cache_blocks: usize) -> io::Result<SccIndexReader> {
        // Sniff the page size with one raw, *uncounted* header peek: the
        // pool's block size must equal the artifact's page size before the
        // first counted read, so that one page read is one logical I/O.
        let page = sniff_page_size(path)?;
        open_checked(SharedFile::open(path, page as usize, cache_blocks)?)
    }
}

/// What one delta checkpoint changes, decided by the delta engine.
pub(crate) struct Checkpoint<'a, D, R> {
    /// `(node, stored label)` to the node's new label; `None`: no label
    /// changes, and the labels are copied without being read.
    pub(crate) relabel: Option<&'a dyn Fn(NodeId, NodeId) -> NodeId>,
    /// The new size table, ascending; `None` keeps the stored one.
    pub(crate) sizes: Option<&'a [(NodeId, u64)]>,
    /// The live condensation edges, ascending by `(src, dst)`.
    pub(crate) dag: D,
    /// The dirty representatives, ascending.
    pub(crate) dirty: R,
    pub(crate) generation: u64,
    /// Journal records (all kinds) the header authenticates, and the
    /// running FNV-1a of their bytes.
    pub(crate) n_journal: u64,
    pub(crate) journal_fnv: u64,
}

/// A checkpoint written and synced to its temporary file.
pub(crate) struct WrittenCheckpoint {
    hdr: Header,
    pub(crate) label_pages: u64,
}

impl WrittenCheckpoint {
    /// The checkpoint's reader once it is renamed to `path`, priced in
    /// `env`'s ledger. It trusts the header just written instead of
    /// validating the file again.
    pub(crate) fn open(&self, env: &DiskEnv, path: &Path) -> io::Result<SccIndexReader> {
        let file = SharedFile::open_in(env, path)?;
        Ok(SccIndexReader {
            file,
            hdr: self.hdr,
        })
    }
}

/// The query handle on one open artifact, from [`SccIndex::open`] or
/// [`SccIndex::open_shared`]. `Send + Sync`; queries take `&self`. See the
/// module docs for the format and the I/O cost of each query.
///
/// Cloning is the unit of concurrency: every clone shares the same
/// read-only block pool (one hot page, cached once, hit by all threads;
/// physical counters aggregated atomically, [`SccIndexReader::phys`]) but
/// carries **fresh per-handle logical counters and sequential/random
/// cursor** ([`SccIndexReader::stats`]), so per-query logical I/O does not
/// depend on what other readers are doing. Hand one clone to each worker
/// thread.
#[derive(Clone)]
pub struct SccIndexReader {
    file: SharedFile,
    hdr: Header,
}

impl std::fmt::Debug for SccIndexReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SccIndexReader")
            .field("n_nodes", &self.hdr.n_nodes)
            .field("n_sccs", &self.hdr.n_sccs)
            .field("n_dag_edges", &self.hdr.n_dag_edges)
            .field("page_size", &self.hdr.page_size)
            .field("generation", &self.hdr.generation)
            .finish()
    }
}

impl SccIndexReader {
    /// Number of nodes the index covers (the universe `0..n_nodes`).
    pub fn n_nodes(&self) -> u64 {
        self.hdr.n_nodes
    }

    /// Number of distinct strongly connected components.
    pub fn n_sccs(&self) -> u64 {
        self.hdr.n_sccs
    }

    /// True if the artifact embeds the condensation DAG.
    pub fn has_condensation(&self) -> bool {
        self.hdr.dag_off != 0
    }

    /// Number of condensation edges stored (0 when absent) — the last
    /// checkpoint's; see [`SccIndexReader::condensation_edges`].
    pub fn n_dag_edges(&self) -> u64 {
        self.hdr.n_dag_edges
    }

    /// Page size the artifact was built with (the builder's block size).
    pub fn page_size(&self) -> u64 {
        self.hdr.page_size
    }

    /// Index generation of the checkpoint this handle opened: 0 at build,
    /// then the delta engine's generation when it wrote the checkpoint (see
    /// the module docs). Journal-only commits since then advance the
    /// engine's generation but not this one; their labels and sizes, and
    /// so every query answer, are already current here. Clones keep
    /// serving this checkpoint even after a delta update renames a newer
    /// one over the path — swap in a freshly opened reader to advance.
    pub fn generation(&self) -> u64 {
        self.hdr.generation
    }

    /// Number of dirty components awaiting delta-engine re-verification,
    /// as of the last checkpoint (see
    /// [`SccIndexReader::dirty_components`]).
    pub fn n_dirty(&self) -> u64 {
        self.hdr.n_dirty
    }

    /// Total artifact size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.hdr.file_len()
    }

    /// The journal prefix this checkpoint folded in: its record count (all
    /// kinds) and the running FNV-1a of its bytes.
    pub(crate) fn journal_prefix(&self) -> (u64, u64) {
        (self.hdr.n_journal, self.hdr.journal_fnv)
    }

    /// This handle's logical I/O counters — the environment's ledger for a
    /// reader from [`SccIndex::open`], zeroed at open otherwise and at every
    /// clone. Diff snapshots around a query for its exact model cost.
    pub fn stats(&self) -> ce_extmem::IoSnapshot {
        self.file.stats()
    }

    /// The pool's physical counters, aggregated across all clones.
    pub fn phys(&self) -> ce_extmem::PhysSnapshot {
        self.file.phys()
    }

    /// The representative of `u`'s component — one 4-byte read, one block.
    pub fn component_of(&self, u: NodeId) -> io::Result<NodeId> {
        check_node(&self.hdr, u)?;
        let mut buf = [0u8; 4];
        let off = self.hdr.labels_off + 4 * u as u64;
        read_exact_at(&self.file, off, &mut buf, "labels section")?;
        Ok(NodeId::from_le_bytes(buf))
    }

    /// Representatives for a whole batch, in input order — one block read
    /// per **distinct** label page the batch touches (the batch is answered
    /// in ascending node order so same-page probes coalesce). Everything is
    /// bounds-checked before any I/O is spent.
    pub fn component_of_many(&self, nodes: &[NodeId]) -> io::Result<Vec<NodeId>> {
        let hdr = &self.hdr;
        for &u in nodes {
            check_node(hdr, u)?;
        }
        let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
        order.sort_unstable_by_key(|&i| nodes[i as usize]);
        let mut out = vec![0 as NodeId; nodes.len()];
        let mut page = vec![0u8; hdr.page_size as usize];
        let mut loaded = u64::MAX;
        for &i in &order {
            let u = nodes[i as usize];
            let p = label_page(hdr, u);
            if p != loaded {
                let off = hdr.labels_off + p * hdr.page_size;
                read_exact_at(&self.file, off, &mut page, "labels section")?;
                loaded = p;
            }
            let at = ((4 * u as u64) % hdr.page_size) as usize;
            out[i as usize] = NodeId::from_le_bytes(page[at..at + 4].try_into().unwrap());
        }
        Ok(out)
    }

    /// True iff `u` and `v` are strongly connected — at most two block
    /// reads, no recomputation: zero reads when `u == v` (one bounds
    /// check answers it), one page read when both labels live on the same
    /// page.
    pub fn same_component(&self, u: NodeId, v: NodeId) -> io::Result<bool> {
        let hdr = &self.hdr;
        check_node(hdr, u)?;
        if u == v {
            return Ok(true);
        }
        check_node(hdr, v)?;
        if label_page(hdr, u) == label_page(hdr, v) {
            let mut page = vec![0u8; hdr.page_size as usize];
            let off = hdr.labels_off + label_page(hdr, u) * hdr.page_size;
            read_exact_at(&self.file, off, &mut page, "labels section")?;
            let slot = |x: NodeId| ((4 * x as u64) % hdr.page_size) as usize;
            let rep = |at: usize| NodeId::from_le_bytes(page[at..at + 4].try_into().unwrap());
            return Ok(rep(slot(u)) == rep(slot(v)));
        }
        Ok(self.component_of(u)? == self.component_of(v)?)
    }

    /// Size of `u`'s component — one block read plus an `O(log n_sccs)`
    /// binary search over the on-disk size table.
    pub fn component_size(&self, u: NodeId) -> io::Result<u64> {
        let rep = self.component_of(u)?;
        let (mut lo, mut hi) = (0u64, self.hdr.n_sccs);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut buf = [0u8; SIZE_ENTRY as usize];
            let off = self.hdr.sizes_off + SIZE_ENTRY * mid;
            read_exact_at(&self.file, off, &mut buf, "size table")?;
            match NodeId::from_le_bytes(buf[0..4].try_into().unwrap()).cmp(&rep) {
                std::cmp::Ordering::Equal => {
                    return Ok(u64::from_le_bytes(buf[8..16].try_into().unwrap()))
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(bad(&format!(
            "representative {rep} missing from the size table"
        )))
    }

    /// Streams `(representative, size)` for every component, ascending by
    /// representative — `O(n_sccs / B)` sequential block reads.
    pub fn components(&self) -> impl Iterator<Item = io::Result<(NodeId, u64)>> + '_ {
        let h = &self.hdr;
        SectionCursor::new(&self.file, h.page_size, h.sizes_off, h.n_sccs)
    }

    /// Streams the stored condensation DAG edges (component representatives
    /// as endpoints, multiplicities dropped), sorted by `(src, dst)`. Empty
    /// when the artifact was built without a DAG; check
    /// [`SccIndexReader::has_condensation`] to distinguish. After delta
    /// updates this is the last checkpoint's DAG: journal-only commits
    /// since then (DAG appends, reinforcements, weakenings, drops) show up
    /// once the delta engine writes the next checkpoint — `compact` forces
    /// one — and the engine's own `condensation_edges` is always live.
    pub fn condensation_edges(&self) -> impl Iterator<Item = io::Result<Edge>> + '_ {
        self.counted_dag_edges()
            .map(|e| e.map(|e| Edge::new(e.src, e.dst)))
    }

    /// Streams the representatives of dirty components (ascending) — the
    /// components whose labels are a conservative coarsening until the
    /// delta engine re-verifies them — as of the last checkpoint. Dirty
    /// marks committed to the journal alone since then are reported by
    /// the delta engine and land here at its next checkpoint.
    pub fn dirty_components(&self) -> impl Iterator<Item = io::Result<NodeId>> + '_ {
        let h = &self.hdr;
        SectionCursor::new(&self.file, h.page_size, h.dirty_off, h.n_dirty)
    }

    /// Every node's stored label, in node order, read a whole page at a
    /// time (padding included).
    pub(crate) fn labels(&self) -> impl Iterator<Item = io::Result<NodeId>> + '_ {
        let h = &self.hdr;
        let slots = (h.sizes_off - h.labels_off) / NodeId::LEN as u64;
        SectionCursor::new(&self.file, h.page_size, h.labels_off, slots).take(h.n_nodes as usize)
    }

    /// The stored condensation edges with their multiplicities, sorted by
    /// `(src, dst)`.
    pub(crate) fn counted_dag_edges(&self) -> impl Iterator<Item = io::Result<CountedEdge>> + '_ {
        let h = &self.hdr;
        let total = if h.dag_off == 0 { 0 } else { h.n_dag_edges };
        SectionCursor::new(&self.file, h.page_size, h.dag_off, total)
    }

    /// Writes the next checkpoint of this artifact, which lives at `live`,
    /// to `tmp` and syncs it. Copies only the bytes the checkpoint keeps —
    /// the header page and the labels, plus the size table when
    /// `cp.sizes` is `None` — with an OS-level ranged copy
    /// (`copy_file_range` on Linux) outside the I/O model. Then rewrites,
    /// through `env`'s pager, the label pages whose labels `cp.relabel`
    /// changes, and writes the rest through the build's section writer and
    /// header assembly.
    pub(crate) fn write_checkpoint<D, R>(
        &self,
        env: &DiskEnv,
        live: &Path,
        tmp: &Path,
        cp: Checkpoint<'_, D, R>,
    ) -> io::Result<WrittenCheckpoint>
    where
        D: ExactSizeIterator<Item = CountedEdge>,
        R: ExactSizeIterator<Item = NodeId>,
    {
        let hdr = &self.hdr;
        let page = hdr.page_size;
        let keep = if cp.sizes.is_some() {
            hdr.sizes_off
        } else {
            hdr.dag_off
        };
        io::copy(
            &mut std::fs::File::open(live)?.take(keep),
            &mut std::fs::File::create(tmp)?,
        )?;
        let mut file = CountedFile::open_rw(env, tmp)?;

        // Labels: a sequential scan that writes only the pages whose bytes
        // change, each an O(1) checksum update.
        let mut labels_xor = hdr.labels_xor;
        let mut label_pages = 0u64;
        if let Some(relabel) = cp.relabel {
            let per = page / NodeId::LEN as u64;
            let mut old = vec![0u8; page as usize];
            let mut new = vec![0u8; page as usize];
            for p in 0..(hdr.sizes_off - hdr.labels_off) / page {
                let off = hdr.labels_off + p * page;
                if file.read_at(off, &mut old)? != old.len() {
                    return Err(bad("labels section truncated"));
                }
                new.copy_from_slice(&old);
                let slots = new.chunks_exact_mut(NodeId::LEN);
                for (node, raw) in (p * per..hdr.n_nodes).zip(slots) {
                    relabel(node as NodeId, NodeId::decode(raw)).encode(raw);
                }
                if new != old {
                    file.write_at(off, &new)?;
                    labels_xor ^= page_hash(p, &old) ^ page_hash(p, &new);
                    label_pages += 1;
                }
            }
        }

        let hdr = Header {
            labels_xor,
            generation: cp.generation,
            n_journal: cp.n_journal,
            journal_fnv: cp.journal_fnv,
            ..*hdr
        };
        let sizes = cp.sizes.map(|s| s.iter().map(|&e| Ok(e)));
        let dag = Some(cp.dag.map(Ok));
        let hdr = write_tail(&mut file, hdr, sizes, dag, cp.dirty)?;
        Ok(WrittenCheckpoint { hdr, label_pages })
    }
}

/// Buffered sequential cursor over the records of one section.
struct SectionCursor<'a, R> {
    file: &'a SharedFile,
    page_size: u64,
    start: u64,
    total: u64,
    next: u64,
    buf: Vec<u8>,
    buf_first: u64,
    record: PhantomData<fn() -> R>,
}

impl<'a, R: SectionRecord> SectionCursor<'a, R> {
    fn new(file: &'a SharedFile, page_size: u64, start: u64, total: u64) -> Self {
        SectionCursor {
            file,
            page_size,
            start,
            total,
            next: 0,
            buf: Vec::with_capacity(page_size as usize),
            buf_first: u64::MAX,
            record: PhantomData,
        }
    }
}

impl<R: SectionRecord> Iterator for SectionCursor<'_, R> {
    type Item = io::Result<R>;

    fn next(&mut self) -> Option<io::Result<R>> {
        if self.next >= self.total {
            return None;
        }
        let record = R::LEN as u64;
        let per_buf = (self.page_size / record).max(1);
        if self.buf_first == u64::MAX || self.next >= self.buf_first + per_buf {
            let first = (self.next / per_buf) * per_buf;
            let want = ((self.total - first).min(per_buf) * record) as usize;
            self.buf.resize(want, 0);
            let off = self.start + first * record;
            match self.file.read_at(off, &mut self.buf) {
                Ok(got) if got == want => {}
                Ok(_) => return Some(Err(bad("section truncated mid-iteration"))),
                Err(e) => return Some(Err(e)),
            }
            self.buf_first = first;
        }
        let at = ((self.next - self.buf_first) * record) as usize;
        self.next += 1;
        Some(Ok(R::decode(&self.buf[at..at + R::LEN])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_extmem::IoConfig;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap()
    }

    fn idx_path(env: &DiskEnv, name: &str) -> std::path::PathBuf {
        env.root().join(format!("{name}.sccidx"))
    }

    /// Labels for {0,1} ∪ {2} ∪ {3,4,5}: reps 0, 2, 3.
    fn sample_labels(env: &DiskEnv) -> ExtFile<SccLabel> {
        env.file_from_slice(
            "labs",
            &[
                SccLabel::new(0, 0),
                SccLabel::new(1, 0),
                SccLabel::new(2, 2),
                SccLabel::new(3, 3),
                SccLabel::new(4, 3),
                SccLabel::new(5, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_open_query_roundtrip() {
        let env = env();
        let labels = sample_labels(&env);
        let path = idx_path(&env, "rt");
        let n_sccs = SccIndex::build(&env, &path, &labels, 6, None).unwrap();
        assert_eq!(n_sccs, 3);

        let idx = SccIndex::open(&env, &path).unwrap();
        assert_eq!(idx.n_nodes(), 6);
        assert_eq!(idx.n_sccs(), 3);
        assert_eq!(idx.generation(), 0);
        assert_eq!(idx.n_dirty(), 0);
        assert!(!idx.has_condensation());
        for (v, rep) in [(0, 0), (1, 0), (2, 2), (3, 3), (4, 3), (5, 3)] {
            assert_eq!(idx.component_of(v).unwrap(), rep, "component_of({v})");
        }
        assert!(idx.same_component(3, 5).unwrap());
        assert!(!idx.same_component(1, 2).unwrap());
        assert_eq!(idx.component_size(4).unwrap(), 3);
        assert_eq!(idx.component_size(2).unwrap(), 1);
        let comps: Vec<(u32, u64)> = idx.components().map(|c| c.unwrap()).collect();
        assert_eq!(comps, vec![(0, 2), (2, 1), (3, 3)]);
        assert_eq!(idx.dirty_components().count(), 0);
        assert!(idx.component_of(6).is_err(), "out of range");
    }

    /// Dense labels over 20 nodes: node `v` belongs to component `v / 4`
    /// (reps 0, 4, 8, 12, 16). With 64-byte pages (16 labels each) the
    /// labels span two pages, so cross-page query costs are exercised.
    fn two_page_labels(env: &DiskEnv) -> ExtFile<SccLabel> {
        let labels: Vec<SccLabel> =
            (0u32..20).map(|v| SccLabel::new(v, v / 4 * 4)).collect();
        env.file_from_slice("labs20", &labels).unwrap()
    }

    #[test]
    fn queries_are_counted_and_block_budgeted() {
        let env = env();
        let labels = sample_labels(&env);
        let path = idx_path(&env, "ctr");
        SccIndex::build(&env, &path, &labels, 6, None).unwrap();
        let idx = SccIndex::open(&env, &path).unwrap();
        let before = env.stats().snapshot();
        idx.component_of(4).unwrap();
        let one = env.stats().snapshot().since(&before);
        assert_eq!(one.total_ios(), 1, "component_of is one block read");
        // Nodes 0 and 5 share the single 64-byte label page: one read.
        let before = env.stats().snapshot();
        idx.same_component(0, 5).unwrap();
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 1);
    }

    #[test]
    fn same_component_block_budget_is_zero_one_or_two() {
        let env = env();
        let labels = two_page_labels(&env);
        let path = idx_path(&env, "same");
        SccIndex::build(&env, &path, &labels, 20, None).unwrap();
        let idx = SccIndex::open(&env, &path).unwrap();

        // u == v: answered by the bounds check alone, zero reads.
        let before = env.stats().snapshot();
        assert!(idx.same_component(7, 7).unwrap());
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 0);
        assert!(idx.same_component(19, 19).is_ok());
        assert!(idx.same_component(20, 20).is_err(), "bounds still checked");

        // Same page (both labels in bytes 0..64): one page read.
        let before = env.stats().snapshot();
        assert!(idx.same_component(1, 2).unwrap());
        assert!(!idx.same_component(1, 14).unwrap());
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 2);

        // Cross-page (node 1 on page 0, node 17 on page 1): two reads.
        let before = env.stats().snapshot();
        assert!(!idx.same_component(1, 17).unwrap());
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 2);
        assert!(idx.same_component(16, 19).unwrap(), "answers stay correct");
    }

    #[test]
    fn component_of_many_pays_one_read_per_distinct_page() {
        let env = env();
        let labels = two_page_labels(&env);
        let path = idx_path(&env, "many");
        SccIndex::build(&env, &path, &labels, 20, None).unwrap();
        let idx = SccIndex::open(&env, &path).unwrap();

        // k probes on one page => one logical read, results in input order.
        let before = env.stats().snapshot();
        let reps = idx.component_of_many(&[15, 0, 7, 0, 3]).unwrap();
        assert_eq!(reps, vec![12, 0, 4, 0, 0]);
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 1);

        // A batch spanning both pages: exactly two reads.
        let before = env.stats().snapshot();
        let reps = idx.component_of_many(&[19, 2, 16, 3]).unwrap();
        assert_eq!(reps, vec![16, 0, 16, 0]);
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 2);

        // Empty batch: no I/O. Out-of-range anywhere: error before any I/O.
        let before = env.stats().snapshot();
        assert!(idx.component_of_many(&[]).unwrap().is_empty());
        let err = idx.component_of_many(&[1, 99, 2]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(env.stats().snapshot().since(&before).total_ios(), 0);
    }

    #[test]
    fn env_priced_reader_charges_its_environment_and_clones_charge_themselves() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "ledger");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();

        let fresh = env();
        let idx = SccIndex::open(&fresh, &path).unwrap();
        let opened = fresh.stats().snapshot();
        assert!(
            opened.total_ios() > 0,
            "the validation scan is charged to the env"
        );
        idx.component_of(4).unwrap();
        let one = fresh.stats().snapshot().since(&opened);
        assert_eq!(one.total_ios(), 1, "component_of is one block read");
        assert_eq!(
            idx.stats(),
            fresh.stats().snapshot(),
            "the env's ledger is the reader's"
        );

        let clone = idx.clone();
        let before = fresh.stats().snapshot();
        assert_eq!(
            clone.stats().total_ios(),
            0,
            "clones start with fresh counters"
        );
        clone.component_of(4).unwrap();
        assert_eq!(clone.stats().total_ios(), 1);
        assert_eq!(
            fresh.stats().snapshot(),
            before,
            "a clone charges only itself"
        );
    }

    #[test]
    fn env_priced_and_shared_readers_price_identically() {
        let build_env = env();
        let labels = two_page_labels(&build_env);
        let path = idx_path(&build_env, "shared");
        SccIndex::build(&build_env, &path, &labels, 20, None).unwrap();

        // Fresh env so the env-priced open's logical cost is isolated.
        let fresh = env();
        let priced = SccIndex::open(&fresh, &path).unwrap();
        let reader = SccIndex::open_shared(&path, 8).unwrap();
        assert_eq!(
            reader.stats(),
            priced.stats(),
            "open protocols priced identically"
        );
        assert_eq!(reader.n_nodes(), 20);
        assert_eq!(reader.n_sccs(), 5);
        assert_eq!(reader.page_size(), 64);
        assert_eq!(reader.generation(), 0);

        // Every query kind: identical answers and identical logical deltas.
        let handle = reader.clone(); // fresh counters
        let mut last = (priced.stats(), handle.stats());
        let mut check = |tag: &str, a: io::Result<Vec<NodeId>>, b: io::Result<Vec<NodeId>>| {
            assert_eq!(a.unwrap(), b.unwrap(), "{tag}: answers");
            let now = (priced.stats(), handle.stats());
            assert_eq!(
                now.0.since(&last.0),
                now.1.since(&last.1),
                "{tag}: logical I/O"
            );
            last = now;
        };
        for u in [0u32, 7, 16, 19] {
            check(
                "component_of",
                priced.component_of(u).map(|r| vec![r]),
                handle.component_of(u).map(|r| vec![r]),
            );
        }
        for (u, v) in [(3, 3), (1, 2), (1, 14), (1, 17), (16, 19)] {
            check(
                "same_component",
                priced.same_component(u, v).map(|b| vec![b as u32]),
                handle.same_component(u, v).map(|b| vec![b as u32]),
            );
        }
        check(
            "component_of_many",
            priced.component_of_many(&[19, 2, 16, 3, 2]),
            handle.component_of_many(&[19, 2, 16, 3, 2]),
        );
        for u in [0u32, 13, 19] {
            check(
                "component_size",
                priced.component_size(u).map(|s| vec![s as u32]),
                handle.component_size(u).map(|s| vec![s as u32]),
            );
        }
        // Section iterators: identical streams and identical logical cost.
        check(
            "components",
            Ok(priced.components().map(|c| c.unwrap().0).collect()),
            Ok(handle.components().map(|c| c.unwrap().0).collect()),
        );
        check(
            "condensation_edges",
            Ok(priced.condensation_edges().map(|e| e.unwrap().src).collect()),
            Ok(handle.condensation_edges().map(|e| e.unwrap().src).collect()),
        );

        // Errors carry the same message either way.
        let e1 = priced.component_of(77).unwrap_err();
        let e2 = handle.component_of(77).unwrap_err();
        assert_eq!(e1.to_string(), e2.to_string());

        // The pool is genuinely shared: a second clone hitting the same
        // pages performs zero physical reads.
        let warm = reader.clone();
        let phys0 = warm.phys();
        warm.component_of(5).unwrap();
        let d = warm.phys().since(&phys0);
        assert_eq!(d.reads, 0, "page already resident");
        assert_eq!(d.hits, 1);
    }

    #[test]
    fn shared_open_rejects_corruption_like_owned_open() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "sharedbad");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Last byte of the final size-table record (not padding).
        let hdr = {
            let mut raw = [0u8; HEADER_LEN];
            raw.copy_from_slice(&pristine[..HEADER_LEN]);
            Header::decode(&raw).unwrap()
        };
        let mut flipped = pristine.clone();
        let at = (hdr.sizes_off + SIZE_ENTRY * hdr.n_sccs - 1) as usize;
        flipped[at] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let err = SccIndex::open_shared(&path, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        std::fs::write(&path, &pristine[..HEADER_LEN / 2]).unwrap();
        assert!(SccIndex::open_shared(&path, 4).is_err(), "short header");

        std::fs::write(&path, &pristine).unwrap();
        assert!(SccIndex::open_shared(&path, 4).is_ok());
    }

    #[test]
    fn dag_section_roundtrips_on_both_handles() {
        let env = env();
        let labels = sample_labels(&env);
        let dag = env
            .file_from_slice(
                "dag",
                &[CountedEdge::new(0, 2, 1), CountedEdge::new(2, 3, 4)],
            )
            .unwrap();
        let path = idx_path(&env, "dag");
        SccIndex::build(&env, &path, &labels, 6, Some(&dag)).unwrap();
        let idx = SccIndex::open(&env, &path).unwrap();
        assert!(idx.has_condensation());
        assert_eq!(idx.n_dag_edges(), 2);
        let edges: Vec<Edge> = idx.condensation_edges().map(|e| e.unwrap()).collect();
        assert_eq!(edges, vec![Edge::new(0, 2), Edge::new(2, 3)]);
        // The shared open streams the same DAG.
        let reader = SccIndex::open_shared(&path, 4).unwrap();
        assert!(reader.has_condensation());
        let shared: Vec<Edge> = reader.condensation_edges().map(|e| e.unwrap()).collect();
        assert_eq!(shared, edges);
        let comps: Vec<(u32, u64)> = reader.components().map(|c| c.unwrap()).collect();
        assert_eq!(comps, vec![(0, 2), (2, 1), (3, 3)]);
        assert_eq!(reader.dirty_components().count(), 0);
    }

    #[test]
    fn empty_graph_has_an_empty_but_valid_index() {
        let env = env();
        let labels = env.file_from_slice::<SccLabel>("none", &[]).unwrap();
        let path = idx_path(&env, "empty");
        assert_eq!(SccIndex::build(&env, &path, &labels, 0, None).unwrap(), 0);
        let idx = SccIndex::open(&env, &path).unwrap();
        assert_eq!(idx.n_nodes(), 0);
        assert_eq!(idx.components().count(), 0);
        assert!(idx.component_of(0).is_err());
    }

    #[test]
    fn build_rejects_sparse_or_short_labels() {
        let env = env();
        let short = env.file_from_slice("s", &[SccLabel::new(0, 0)]).unwrap();
        assert!(SccIndex::build(&env, &env.root().join("s.i"), &short, 2, None).is_err());
        let gap = env
            .file_from_slice("g", &[SccLabel::new(0, 0), SccLabel::new(2, 2)])
            .unwrap();
        let err = SccIndex::build(&env, &env.root().join("g.i"), &gap, 2, None).unwrap_err();
        assert!(err.to_string().contains("dense"), "{err}");
    }

    #[test]
    fn every_meaningful_corruption_is_rejected_at_open() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        let dag = build_env
            .file_from_slice("dag", &[CountedEdge::new(0, 3, 2)])
            .unwrap();
        let path = idx_path(&build_env, "corrupt");
        SccIndex::build(&build_env, &path, &labels, 6, Some(&dag)).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        assert_eq!(pristine.len() % 64, 0, "whole pages");
        let hdr = {
            let mut raw = [0u8; HEADER_LEN];
            raw.copy_from_slice(&pristine[..HEADER_LEN]);
            Header::decode(&raw).unwrap()
        };

        // Flip every byte the format validates, in turn: the header and
        // every byte of every section page — labels, sizes and dag, padding
        // included (header-page padding is never read). Open must fail
        // each time.
        let meaningful = (0..HEADER_LEN).chain(hdr.labels_off as usize..pristine.len());
        let mut rejected = 0usize;
        for at in meaningful {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            // Fresh environment: nothing cached from the build.
            let fresh = env();
            let err = SccIndex::open(&fresh, &path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}: {err}");
            rejected += 1;
        }
        assert!(rejected > 128, "swept header, labels and records");

        // Truncation and extension are geometry errors, not garbage.
        std::fs::write(&path, &pristine[..pristine.len() - 64]).unwrap();
        assert!(SccIndex::open(&env(), &path).is_err());
        let mut longer = pristine.clone();
        longer.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &longer).unwrap();
        assert!(SccIndex::open(&env(), &path).is_err());

        // And the pristine bytes still open.
        std::fs::write(&path, &pristine).unwrap();
        assert!(SccIndex::open(&env(), &path).is_ok());
    }

    #[test]
    fn hostile_header_with_valid_checksum_is_rejected_not_overflowed() {
        // The header checksum is unkeyed FNV: anyone can craft a header
        // whose checksum validates but whose counts would overflow the
        // geometry arithmetic. Open must answer InvalidData, never panic.
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "hostile");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // (header word index, hostile value): n_nodes = 2^62, huge page
        // size, huge dag edge count, n_sccs > n_nodes, n_dirty > n_sccs.
        for (word, value) in [
            (1u64, 1u64 << 62),   // n_nodes
            (0, u64::MAX / 2),    // page_size
            (6, 1 << 62),         // n_dag_edges
            (2, 7),               // n_sccs > n_nodes (6)
            (11, 5),              // n_dirty > n_sccs (3)
        ] {
            let mut bytes = pristine.clone();
            let at = 8 + 8 * word as usize;
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            // Recompute the header checksum so only geometry can reject it.
            let mut fnv = Fnv::new();
            fnv.update(&bytes[..HEADER_LEN - 8]);
            bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fnv.finish().to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = SccIndex::open(&env(), &path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "word {word}: {err}");
        }
    }

    #[test]
    fn page_hash_changes_when_any_single_byte_flips() {
        // 64 is a whole number of 32-byte strides; 100 leaves a 4-byte
        // tail that is hashed byte by byte.
        for len in [64usize, 100] {
            let page: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let h = page_hash(3, &page);
            for at in 0..len {
                for bit in [0x01u8, 0x80] {
                    let mut flipped = page.clone();
                    flipped[at] ^= bit;
                    assert_ne!(
                        page_hash(3, &flipped),
                        h,
                        "len {len}, byte {at}, bit {bit:#x}"
                    );
                }
            }
            assert_ne!(page_hash(4, &page), h, "the page index is hashed");
        }
    }

    #[test]
    fn page_hash_catches_two_pages_swapping_indices() {
        for len in [64usize, 100] {
            let a: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(7) ^ 0x5a).collect();
            assert_ne!(
                page_hash(0, &a) ^ page_hash(1, &b),
                page_hash(0, &b) ^ page_hash(1, &a),
                "len {len}"
            );
        }
    }

    #[test]
    fn page_hash_changes_when_two_bytes_flip_together() {
        // A lane that only moves a difference upward lets two flips in its
        // top bytes cancel, such as bit 0x80 of bytes 7 and 39 (bit 63 of
        // words 0 and 4). Sweep every pair of single-bit flips in a page.
        let page: Vec<u8> = (0..64).map(|i| (i * 37 % 256) as u8).collect();
        let h = page_hash(3, &page);
        let mut flipped = page.clone();
        flipped[7] ^= 0x80;
        flipped[39] ^= 0x80;
        assert_ne!(page_hash(3, &flipped), h, "bit 63 of words 0 and 4");
        for i in 0..page.len() {
            for j in i + 1..page.len() {
                for (bi, bj) in [(0x80u8, 0x80u8), (0x01, 0x01), (0x80, 0x01), (0x01, 0x80)] {
                    let mut flipped = page.clone();
                    flipped[i] ^= bi;
                    flipped[j] ^= bj;
                    assert_ne!(
                        page_hash(3, &flipped),
                        h,
                        "bytes {i}/{j}, bits {bi:#x}/{bj:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_same_flip_in_two_pages_changes_the_section_xor() {
        // If top bits never mix down, bit 0x80 of byte 7 flipped in two
        // pages flips bit 63 of both page hashes and the XOR cancels it.
        let a: Vec<u8> = (0..64).map(|i| (i * 37 % 256) as u8).collect();
        let b: Vec<u8> = (0..64).map(|i| (i as u8).wrapping_mul(7) ^ 0x5a).collect();
        let xor = page_hash(0, &a) ^ page_hash(1, &b);
        for at in 0..a.len() {
            for bit in [0x01u8, 0x80] {
                let (mut a2, mut b2) = (a.clone(), b.clone());
                a2[at] ^= bit;
                b2[at] ^= bit;
                assert_ne!(
                    page_hash(0, &a2) ^ page_hash(1, &b2),
                    xor,
                    "byte {at}, bit {bit:#x}"
                );
            }
        }

        // End to end: twenty labels on two 64-byte pages; bit 31 of the
        // labels of nodes 1 and 17 (byte 7 of each page) is rejected.
        let build_env = env();
        let labels = two_page_labels(&build_env);
        let path = idx_path(&build_env, "twoflips");
        SccIndex::build(&build_env, &path, &labels, 20, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let hdr = {
            let mut raw = [0u8; HEADER_LEN];
            raw.copy_from_slice(&bytes[..HEADER_LEN]);
            Header::decode(&raw).unwrap()
        };
        for page in 0..2 {
            bytes[(hdr.labels_off + 64 * page + 7) as usize] ^= 0x80;
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = SccIndex::open(&env(), &path).unwrap_err();
        assert!(
            err.to_string().contains("labels section checksum mismatch"),
            "{err}"
        );
    }

    #[test]
    fn pages_of_one_constant_label_hash_apart() {
        // Four equal words per stride must not give four equal lanes that a
        // symmetric fold maps onto few values (a rotate-and-xor fold takes
        // only 2^16, so 70,000 labels would collide). A stale page of label
        // r where label l belongs must change the hash.
        let mut seen = std::collections::HashSet::new();
        for label in 0u32..70_000 {
            let page: Vec<u8> = (0..16).flat_map(|_| label.to_le_bytes()).collect();
            assert!(seen.insert(page_hash(2, &page)), "label {label} collides");
        }
    }

    #[test]
    fn a_flipped_byte_in_the_size_table_padding_is_rejected() {
        // Version 2 checksummed only the size table's record bytes; version
        // 3 hashes its whole pages.
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "sizepad");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let hdr = {
            let mut raw = [0u8; HEADER_LEN];
            raw.copy_from_slice(&pristine[..HEADER_LEN]);
            Header::decode(&raw).unwrap()
        };
        let padding = hdr.sizes_off + SIZE_ENTRY * hdr.n_sccs;
        assert!(
            padding < align_up(padding, 64),
            "the size table has padding"
        );
        let mut flipped = pristine.clone();
        flipped[padding as usize] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let err = SccIndex::open(&env(), &path).unwrap_err();
        assert!(
            err.to_string().contains("size table checksum mismatch"),
            "{err}"
        );
        std::fs::write(&path, &pristine).unwrap();
        assert!(SccIndex::open(&env(), &path).is_ok());
    }

    #[test]
    fn version_2_and_3_headers_are_rejected_with_the_rebuild_message() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        for version in [2u32, 3] {
            let path = idx_path(&build_env, &format!("v{version}"));
            SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            // A well-formed older header: its own checksum recomputed.
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let mut fnv = Fnv::new();
            fnv.update(&bytes[..HEADER_LEN - 8]);
            bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fnv.finish().to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = SccIndex::open(&env(), &path).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unsupported index version {version}")),
                "{err}"
            );
            assert!(err.to_string().contains("rebuild"), "{err}");
        }
    }

    #[test]
    fn version_1_artifacts_are_rejected_with_a_clear_error() {
        let build_env = env();
        let labels = sample_labels(&build_env);
        let path = idx_path(&build_env, "v1");
        SccIndex::build(&build_env, &path, &labels, 6, None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = SccIndex::open(&env(), &path).unwrap_err();
        assert!(
            err.to_string().contains("unsupported index version 1"),
            "{err}"
        );
        assert!(err.to_string().contains("rebuild"), "{err}");
    }

    #[test]
    fn rebuild_at_the_same_path_truncates_the_old_artifact() {
        let env = env();
        let labels = sample_labels(&env);
        let path = idx_path(&env, "re");
        let dag = env.file_from_slice("dag", &[CountedEdge::new(0, 2, 1)]).unwrap();
        SccIndex::build(&env, &path, &labels, 6, Some(&dag)).unwrap();
        // A stale journal sidecar is dropped by the rebuild too.
        std::fs::write(journal_path(&path), b"stale").unwrap();
        let small = env
            .file_from_slice("l2", &[SccLabel::new(0, 0), SccLabel::new(1, 0)])
            .unwrap();
        SccIndex::build(&env, &path, &small, 2, None).unwrap();
        let idx = SccIndex::open(&env, &path).unwrap();
        assert_eq!(idx.n_nodes(), 2);
        assert!(!idx.has_condensation());
        assert!(idx.same_component(0, 1).unwrap());
        assert!(!journal_path(&path).exists(), "stale sidecar removed");
    }
}
