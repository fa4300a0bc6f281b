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
//! artifact is always backed by a real on-disk file (even under in-memory
//! environments — see [`CountedFile::create_persistent`]), so it survives
//! the environment that built it and reopens in `O(1)` memory:
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
//! The header additionally records the length and running checksum of the
//! **journal sidecar** (`<artifact>.dlog`, see [`crate::delta`]): the
//! append-only write-ahead log of delta operations since the build, in
//! 12-byte records `(tag, u, v)`. Tag 0 inserts the edge `(u, v)`, tag 1
//! deletes one instance of it, and tag 2 is a **commit record**: its two
//! id words hold the running FNV-1a of every journal byte before it. The
//! sidecar is *not* read by plain query handles — only the delta engine
//! needs it (to replay journal-only commits at open and to reconstruct the
//! current edge multiset when lazily re-verifying a dirty component). The
//! header's `(n_journal, journal_fnv)` pair — `n_journal` counts records
//! of every tag — authenticates the prefix the checkpoint folded in. Past
//! it lies the **committed tail**: batches of operation records, each
//! closed by a commit record whose checksum matches. The tail ends at the
//! first record that is short, carries an unknown tag or fails its
//! checksum, so bytes a crashed update appended past it are ignored on
//! reopen.
//!
//! The header checksum (144 bytes) and the journal's resumable running
//! checksum (12-byte appends) stay byte-wise FNV-1a. A flipped byte in the
//! header or in any page of any section is rejected at [`SccIndex::open`]
//! with a checksum or geometry error instead of producing garbage.

use std::io;
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
pub(crate) const HEADER_LEN: usize = 144;
/// Bytes per entry of the component-size table.
pub(crate) const SIZE_ENTRY: u64 = 16;
/// Bytes per stored condensation edge (src, dst, count).
pub(crate) const DAG_ENTRY: u64 = 12;
/// Bytes per dirty-component entry (one representative id).
pub(crate) const DIRTY_ENTRY: u64 = 4;
/// Bytes per journal sidecar record (tag, src, dst).
pub(crate) const JOURNAL_ENTRY: u64 = 12;
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
pub(crate) fn page_hash(page_idx: u64, bytes: &[u8]) -> u64 {
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
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub(crate) page_size: u64,
    pub(crate) n_nodes: u64,
    pub(crate) n_sccs: u64,
    pub(crate) labels_off: u64,
    pub(crate) sizes_off: u64,
    pub(crate) dag_off: u64,
    pub(crate) n_dag_edges: u64,
    pub(crate) labels_xor: u64,
    pub(crate) sizes_xor: u64,
    pub(crate) dag_xor: u64,
    pub(crate) dirty_off: u64,
    pub(crate) n_dirty: u64,
    pub(crate) dirty_xor: u64,
    pub(crate) generation: u64,
    pub(crate) n_journal: u64,
    pub(crate) journal_fnv: u64,
}

impl Header {
    pub(crate) fn encode(&self) -> [u8; HEADER_LEN] {
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

    pub(crate) fn decode(buf: &[u8; HEADER_LEN]) -> io::Result<Header> {
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

    /// Total file length implied by the header (every section page-padded).
    pub(crate) fn file_len(&self) -> u64 {
        align_up(self.dirty_off + DIRTY_ENTRY * self.n_dirty, self.page_size)
    }

    /// Number of pages in the labels section.
    pub(crate) fn label_pages(&self) -> u64 {
        (self.sizes_off - self.labels_off) / self.page_size
    }
}

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("scc index: {msg}"))
}

pub(crate) fn align_up(v: u64, page: u64) -> u64 {
    v.div_ceil(page) * page
}

/// What [`SectionWriter::finish`] hands back: the offset just past the
/// padded section and the XOR of its per-page hashes (padding included).
struct SectionDigest {
    end: u64,
    xor: u64,
}

/// Section writer: buffers records into page-sized chunks, writes them
/// sequentially through the [`CountedFile`], and folds each page's hash
/// into the section checksum.
struct SectionWriter<'a> {
    file: &'a mut CountedFile,
    page: usize,
    start: u64,
    at: u64,
    buf: Vec<u8>,
    xor: u64,
}

impl<'a> SectionWriter<'a> {
    fn new(file: &'a mut CountedFile, page: usize, start: u64) -> Self {
        SectionWriter {
            file,
            page,
            start,
            at: start,
            buf: Vec::with_capacity(page),
            xor: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) -> io::Result<()> {
        debug_assert!(bytes.len() <= self.page, "records never span two flushes");
        self.buf.extend_from_slice(bytes);
        while self.buf.len() >= self.page {
            let page_idx = (self.at - self.start) / self.page as u64;
            self.file.write_at(self.at, &self.buf[..self.page])?;
            self.xor ^= page_hash(page_idx, &self.buf[..self.page]);
            self.at += self.page as u64;
            self.buf.drain(..self.page);
        }
        Ok(())
    }

    /// Pads the tail to a page boundary and flushes it.
    fn finish(mut self) -> io::Result<SectionDigest> {
        if !self.buf.is_empty() {
            self.buf.resize(self.page, 0);
            let page_idx = (self.at - self.start) / self.page as u64;
            self.file.write_at(self.at, &self.buf)?;
            self.xor ^= page_hash(page_idx, &self.buf);
            self.at += self.page as u64;
        }
        Ok(SectionDigest {
            end: self.at,
            xor: self.xor,
        })
    }
}

/// Reads exactly `buf.len()` bytes at `offset` or fails with a truncation
/// error naming `what`.
pub(crate) fn read_exact_at(
    file: &SharedFile,
    offset: u64,
    buf: &mut [u8],
    what: &str,
) -> io::Result<()> {
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
    let sizes_end = hdr.sizes_off + SIZE_ENTRY * hdr.n_sccs;
    let dag_end = hdr.dag_off + DAG_ENTRY * hdr.n_dag_edges;
    let dirty_expect = if hdr.dag_off != 0 {
        align_up(dag_end, page)
    } else {
        align_up(sizes_end, page)
    };
    if hdr.labels_off != align_up(HEADER_LEN as u64, page)
        || hdr.sizes_off != align_up(hdr.labels_off + 4 * hdr.n_nodes, page)
        || (hdr.dag_off == 0 && hdr.n_dag_edges != 0)
        || (hdr.dag_off != 0 && hdr.dag_off != align_up(sizes_end, page))
        || hdr.dirty_off != dirty_expect
    {
        return Err(bad("inconsistent section geometry"));
    }
    let want_len = hdr.file_len();
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
    let dirty_end = hdr.dirty_off + DIRTY_ENTRY * hdr.n_dirty;
    let labels_end = hdr.labels_off + 4 * hdr.n_nodes;
    let mut chunk = vec![0u8; page as usize];
    for (start, end, want, what) in [
        (hdr.sizes_off, sizes_end, hdr.sizes_xor, "size table"),
        (hdr.dag_off, dag_end, hdr.dag_xor, "dag section"),
        (hdr.dirty_off, dirty_end, hdr.dirty_xor, "dirty section"),
        (hdr.labels_off, labels_end, hdr.labels_xor, "labels section"),
    ] {
        let mut xor = 0u64;
        for p in 0..(align_up(end, page) - start) / page {
            read_exact_at(&file, start + p * page, &mut chunk, what)?;
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
        use std::io::Read as _;
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
    /// The file at `path` is created on the real filesystem regardless of
    /// the environment's backend, truncating any previous artifact (and any
    /// stale journal sidecar next to it); all bytes flow through the
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

        // Section 1: node -> representative, u32 per node in node order.
        // (Page-aligned; multiple header pages when the block size is
        // smaller than the header.)
        let labels_off = align_up(HEADER_LEN as u64, page);
        let mut w = SectionWriter::new(&mut file, page as usize, labels_off);
        let mut r = labels.reader()?;
        let mut expected = 0u64;
        while let Some(l) = r.next()? {
            if l.node as u64 != expected {
                return Err(bad(&format!("label file not dense/sorted at node {}", l.node)));
            }
            w.push(&l.scc.to_le_bytes())?;
            expected += 1;
        }
        let labels_digest = w.finish()?;
        let sizes_off = labels_digest.end;

        // Section 2: (rep, size) per component, sorted by rep — the
        // external sort of the labels streams its final merge straight into
        // the run-length scan (no by-rep file is written).
        let mut by_rep = sort_streaming_by_key(env, labels, "idx-by-rep", |l: &SccLabel| l.scc)?
            .into_stream()?;
        let mut w = SectionWriter::new(&mut file, page as usize, sizes_off);
        let mut n_sccs = 0u64;
        let entry = |w: &mut SectionWriter<'_>, rep: NodeId, size: u64| -> io::Result<()> {
            let mut e = [0u8; SIZE_ENTRY as usize];
            e[0..4].copy_from_slice(&rep.to_le_bytes());
            e[8..16].copy_from_slice(&size.to_le_bytes());
            w.push(&e)
        };
        let mut current: Option<(NodeId, u64)> = None;
        while let Some(l) = by_rep.next()? {
            match current {
                Some((rep, size)) if rep == l.scc => current = Some((rep, size + 1)),
                Some((rep, size)) => {
                    entry(&mut w, rep, size)?;
                    n_sccs += 1;
                    current = Some((l.scc, 1));
                }
                None => current = Some((l.scc, 1)),
            }
        }
        if let Some((rep, size)) = current {
            entry(&mut w, rep, size)?;
            n_sccs += 1;
        }
        let sizes_digest = w.finish()?;

        // Section 3 (optional): counted condensation DAG edges.
        let (dag_off, n_dag_edges, dag_xor, after_dag) = match dag {
            Some(edges) => {
                let mut w = SectionWriter::new(&mut file, page as usize, sizes_digest.end);
                let mut r = edges.reader()?;
                while let Some(e) = r.next()? {
                    let mut buf = [0u8; DAG_ENTRY as usize];
                    buf[0..4].copy_from_slice(&e.src.to_le_bytes());
                    buf[4..8].copy_from_slice(&e.dst.to_le_bytes());
                    buf[8..12].copy_from_slice(&e.count.to_le_bytes());
                    w.push(&buf)?;
                }
                let d = w.finish()?;
                (sizes_digest.end, edges.len(), d.xor, d.end)
            }
            None => (0, 0, 0, sizes_digest.end),
        };

        // Section 4: dirty components — empty at build.
        let dirty_off = after_dag;

        // Header last, now that every digest is known.
        let hdr = Header {
            page_size: page,
            n_nodes,
            n_sccs,
            labels_off,
            sizes_off,
            dag_off,
            n_dag_edges,
            labels_xor: labels_digest.xor,
            sizes_xor: sizes_digest.xor,
            dag_xor,
            dirty_off,
            n_dirty: 0,
            dirty_xor: 0,
            generation: 0,
            n_journal: 0,
            journal_fnv: Fnv::new().finish(),
        };
        file.write_at(0, &hdr.encode())?;
        // An all-empty payload leaves the file shorter than the padded
        // header page; extend so the length always matches the header.
        let want = hdr.file_len();
        let have = file.len_bytes()?;
        if have < want {
            file.write_at(have, &vec![0u8; (want - have) as usize])?;
        }
        file.sync()?;
        // A journal sidecar from an earlier artifact at this path would be
        // misattributed to the fresh generation-0 index: drop it.
        match std::fs::remove_file(journal_path(path)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(n_sccs)
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
    pub(crate) file: SharedFile,
    pub(crate) hdr: Header,
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
    pub fn components(&self) -> ComponentsIter<'_> {
        let h = &self.hdr;
        ComponentsIter {
            cursor: SectionCursor::new(&self.file, h.page_size, h.sizes_off, SIZE_ENTRY, h.n_sccs),
        }
    }

    /// Streams the stored condensation DAG edges (component representatives
    /// as endpoints, multiplicities dropped), sorted by `(src, dst)`. Empty
    /// when the artifact was built without a DAG; check
    /// [`SccIndexReader::has_condensation`] to distinguish. After delta
    /// updates this is the last checkpoint's DAG: journal-only commits
    /// since then (DAG appends, reinforcements, weakenings, drops) show up
    /// once the delta engine writes the next checkpoint — `compact` forces
    /// one — and the engine's own `condensation_edges` is always live.
    pub fn condensation_edges(&self) -> DagEdgesIter<'_> {
        let h = &self.hdr;
        let total = if h.dag_off == 0 { 0 } else { h.n_dag_edges };
        DagEdgesIter {
            cursor: SectionCursor::new(&self.file, h.page_size, h.dag_off, DAG_ENTRY, total),
        }
    }

    /// Streams the representatives of dirty components (ascending) — the
    /// components whose labels are a conservative coarsening until the
    /// delta engine re-verifies them — as of the last checkpoint. Dirty
    /// marks committed to the journal alone since then are reported by
    /// the delta engine and land here at its next checkpoint.
    pub fn dirty_components(&self) -> DirtyIter<'_> {
        let h = &self.hdr;
        DirtyIter {
            cursor: SectionCursor::new(
                &self.file,
                h.page_size,
                h.dirty_off,
                DIRTY_ENTRY,
                h.n_dirty,
            ),
        }
    }
}

/// Buffered sequential cursor over one fixed-record section.
struct SectionCursor<'a> {
    file: &'a SharedFile,
    page_size: u64,
    record: u64,
    start: u64,
    total: u64,
    next: u64,
    buf: Vec<u8>,
    buf_first: u64,
}

impl<'a> SectionCursor<'a> {
    fn new(file: &'a SharedFile, page_size: u64, start: u64, record: u64, total: u64) -> Self {
        SectionCursor {
            file,
            page_size,
            record,
            start,
            total,
            next: 0,
            buf: Vec::with_capacity(page_size as usize),
            buf_first: u64::MAX,
        }
    }

    fn next_record(&mut self) -> io::Result<Option<&[u8]>> {
        if self.next >= self.total {
            return Ok(None);
        }
        let per_buf = (self.page_size / self.record).max(1);
        if self.buf_first == u64::MAX || self.next >= self.buf_first + per_buf {
            let first = (self.next / per_buf) * per_buf;
            let want = ((self.total - first).min(per_buf) * self.record) as usize;
            self.buf.resize(want, 0);
            let off = self.start + first * self.record;
            if self.file.read_at(off, &mut self.buf)? != want {
                return Err(bad("section truncated mid-iteration"));
            }
            self.buf_first = first;
        }
        let at = ((self.next - self.buf_first) * self.record) as usize;
        self.next += 1;
        Ok(Some(&self.buf[at..at + self.record as usize]))
    }
}

/// Iterator over `(representative, component size)` pairs.
/// See [`SccIndexReader::components`].
pub struct ComponentsIter<'a> {
    cursor: SectionCursor<'a>,
}

impl Iterator for ComponentsIter<'_> {
    type Item = io::Result<(NodeId, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.cursor.next_record() {
            Err(e) => Some(Err(e)),
            Ok(None) => None,
            Ok(Some(raw)) => Some(Ok((
                NodeId::from_le_bytes(raw[0..4].try_into().unwrap()),
                u64::from_le_bytes(raw[8..16].try_into().unwrap()),
            ))),
        }
    }
}

/// Iterator over stored condensation edges.
/// See [`SccIndexReader::condensation_edges`].
pub struct DagEdgesIter<'a> {
    cursor: SectionCursor<'a>,
}

impl Iterator for DagEdgesIter<'_> {
    type Item = io::Result<Edge>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.cursor.next_record() {
            Err(e) => Some(Err(e)),
            Ok(None) => None,
            Ok(Some(raw)) => Some(Ok(Edge::new(
                NodeId::from_le_bytes(raw[0..4].try_into().unwrap()),
                NodeId::from_le_bytes(raw[4..8].try_into().unwrap()),
            ))),
        }
    }
}

/// Iterator over dirty component representatives.
/// See [`SccIndexReader::dirty_components`].
pub struct DirtyIter<'a> {
    cursor: SectionCursor<'a>,
}

impl Iterator for DirtyIter<'_> {
    type Item = io::Result<NodeId>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.cursor.next_record() {
            Err(e) => Some(Err(e)),
            Ok(None) => None,
            Ok(Some(raw)) => Some(Ok(NodeId::from_le_bytes(raw[0..4].try_into().unwrap()))),
        }
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
