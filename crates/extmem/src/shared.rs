//! Counted concurrent reads over one immutable file.
//!
//! [`SharedFile`] is to [`SharedPager`] what
//! [`CountedFile`](crate::file::CountedFile) is to the owned pager: the
//! accounting layer that prices every access in the **logical**
//! Aggarwal–Vitter model — `ceil(len / B)` block transfers, classified
//! sequential (continuing this handle's previous read, forward or backward)
//! or random — before the pool decides whether any bytes physically move.
//! Both handles price through the one rule in `IoStats`, so a read costs
//! the same logical I/O whichever handle performs it.
//!
//! The concurrency contract is the whole point:
//!
//! * the *pool* (frames, physical counters) is shared by every clone, so a
//!   page faulted in by one reader is a cache hit for all of them;
//! * the *logical counters and the sequential/random cursor* are
//!   **per-handle**: [`SharedFile::clone`] hands back fresh zeroed
//!   [`IoStats`] and a reset cursor. A query measured on one handle is
//!   therefore priced identically whether zero or a thousand other readers
//!   are hammering the same pool — logical I/O stays deterministic per
//!   query.
//!
//! [`SharedFile::open_in`] is the single-reader form: no pool, and the
//! logical counters are a [`DiskEnv`]'s own ledger, so the reads show up
//! in [`DiskEnv::stats`] beside everything else the environment did.
//!
//! A handle is meant to be used by one thread at a time (one clone per
//! worker). The methods still take `&self` and are safe to share, but the
//! sequential/random cursor is then racy *between* that handle's readers —
//! totals stay exact, classification of interleaved reads does not.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ce_pager::{PhysSnapshot, SharedPager};

use crate::env::DiskEnv;
use crate::stats::{IoSnapshot, IoStats};

/// A cloneable read-only file handle with per-handle logical accounting
/// over a shared block pool.
pub struct SharedFile {
    pager: Arc<SharedPager>,
    stats: Arc<IoStats>,
    block: u64,
    /// `[start, end)` of this handle's previous read.
    last_read: [AtomicU64; 2],
}

impl std::fmt::Debug for SharedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFile")
            .field("len", &self.pager.len_bytes())
            .field("block", &self.block)
            .finish()
    }
}

impl Clone for SharedFile {
    /// Clones the handle: the pool (and its physical counters) is shared,
    /// the logical counters and the sequential/random cursor are fresh.
    fn clone(&self) -> SharedFile {
        SharedFile {
            pager: Arc::clone(&self.pager),
            stats: Arc::new(IoStats::new()),
            block: self.block,
            last_read: unread(),
        }
    }
}

/// The previous-read range of a fresh handle: its first read counts as random.
fn unread() -> [AtomicU64; 2] {
    [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)]
}

impl SharedFile {
    /// Opens `path` read-only behind a fresh [`SharedPager`] of
    /// `cache_blocks` frames of `block_size` bytes (0 = pass-through).
    pub fn open(path: &Path, block_size: usize, cache_blocks: usize) -> io::Result<SharedFile> {
        let pager = SharedPager::open(path, block_size, cache_blocks)?;
        Ok(SharedFile::wrap(pager, Arc::new(IoStats::new())))
    }

    /// Opens `path` read-only without a pool, priced at `env`'s block size
    /// in `env`'s logical ledger ([`DiskEnv::stats`]). Clones of the handle
    /// still start with fresh counters of their own.
    pub fn open_in(env: &DiskEnv, path: &Path) -> io::Result<SharedFile> {
        let pager = SharedPager::open(path, env.config().block_size, 0)?;
        Ok(SharedFile::wrap(pager, env.ledger()))
    }

    fn wrap(pager: SharedPager, stats: Arc<IoStats>) -> SharedFile {
        SharedFile {
            block: pager.block_size() as u64,
            pager: Arc::new(pager),
            stats,
            last_read: unread(),
        }
    }

    /// Reads exactly `buf.len()` bytes at `offset` unless EOF truncates the
    /// read; returns the number of bytes read. Priced exactly like
    /// [`CountedFile::read_at`](crate::file::CountedFile::read_at).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let done = self.pager.read_at(offset, buf)?;
        let [start, end] = &self.last_read;
        let prev = (start.load(Ordering::Relaxed), end.load(Ordering::Relaxed));
        let (s, e) = self.stats.charge_read(self.block, prev, offset, done);
        start.store(s, Ordering::Relaxed);
        end.store(e, Ordering::Relaxed);
        Ok(done)
    }

    /// This handle's logical counters (zeroed at open/clone; the
    /// environment's ledger for a handle from [`SharedFile::open_in`]).
    pub fn stats(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// The pool's physical counters, aggregated across every clone.
    pub fn phys(&self) -> PhysSnapshot {
        self.pager.phys()
    }

    /// File length in bytes (captured at open; the file is immutable by
    /// contract).
    pub fn len_bytes(&self) -> u64 {
        self.pager.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::CountedFile;
    use crate::IoConfig;

    /// Writes `bytes` to a real file inside a temp env and returns its path.
    fn artifact(env: &DiskEnv, bytes: &[u8]) -> std::path::PathBuf {
        let path = env.root().join("artifact.bin");
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn logical_accounting_matches_counted_file_exactly() {
        let env = DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap();
        let bytes: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let path = artifact(&env, &bytes);

        let mut owned = CountedFile::open_read(&env, &path).unwrap();
        let shared = SharedFile::open(&path, 64, 4).unwrap();
        let base = env.stats().snapshot();

        // Same access pattern on both handles: multi-block, sequential
        // continuation, rewind, short read at EOF, past-EOF read.
        let mut buf = [0u8; 200];
        for &(off, len) in &[(0u64, 200usize), (200, 64), (0, 100), (990, 64), (2000, 8)] {
            let a = owned.read_at(off, &mut buf[..len]).unwrap();
            let b = shared.read_at(off, &mut buf[..len]).unwrap();
            assert_eq!(a, b, "bytes returned at {off}+{len}");
        }
        assert_eq!(env.stats().snapshot().since(&base), shared.stats());
    }

    #[test]
    fn clones_share_the_pool_but_not_the_counters() {
        let env = DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap();
        let path = artifact(&env, &[7u8; 256]);
        let a = SharedFile::open(&path, 64, 4).unwrap();
        let mut buf = [0u8; 8];
        a.read_at(0, &mut buf).unwrap();
        assert_eq!(a.stats().total_ios(), 1);
        assert_eq!(a.phys().misses, 1);

        let b = a.clone();
        assert_eq!(b.stats().total_ios(), 0, "clone starts with fresh counters");
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(b.stats().total_ios(), 1);
        // First read on the clone is random by convention even though the
        // pool already holds the block.
        assert_eq!(b.stats().rand_reads, 1);
        assert_eq!(b.phys().hits, 1, "...and a physical cache hit");
        assert_eq!(a.stats().total_ios(), 1, "the original is unaffected");
    }

    #[test]
    fn per_handle_classification_is_independent_of_other_readers() {
        let env = DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap();
        let path = artifact(&env, &[1u8; 640]);
        let root = SharedFile::open(&path, 64, 8).unwrap();
        let a = root.clone();
        let b = root.clone();
        let mut buf = [0u8; 64];
        // Interleave: a reads 0,64 (random, seq); b reads 512 in between.
        a.read_at(0, &mut buf).unwrap();
        b.read_at(512, &mut buf).unwrap();
        a.read_at(64, &mut buf).unwrap();
        assert_eq!((a.stats().rand_reads, a.stats().seq_reads), (1, 1));
        assert_eq!((b.stats().rand_reads, b.stats().seq_reads), (1, 0));
    }
}
