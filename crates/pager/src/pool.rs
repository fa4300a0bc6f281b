//! The pager: every scratch file of one environment multiplexed over one
//! fixed-capacity buffer pool.
//!
//! * Frames are block-sized; a frame is keyed by `(file, block_no)`.
//! * Lookups are LRU: every access stamps the frame with a monotone tick and
//!   eviction picks the frame with the smallest stamp.
//! * Writes are write-back: a dirty frame reaches its file only on
//!   eviction, [`Pager::sync`], or drop. Write-back clips the tail block to
//!   the file's logical length so flushed files are byte-exact (never
//!   zero-padded past it).
//! * A sync (and the final flush on drop) writes a file's dirty frames back
//!   in block order, not frame order: each run of consecutive dirty blocks
//!   goes out in `pwrite`s of at most 256 KiB, staged in one buffer that
//!   lives as long as the sync. The accounting stays per block: each block
//!   counts one write and one write-back in [`PhysStats`].
//! * With `cache_frames == 0` the pager is a pass-through: every block of
//!   every request is a physical transfer (the unpooled, seed-faithful
//!   mode).
//!
//! Fault injection counts **physical operations**: miss fills, pass-through
//! block accesses, eviction and sync write-backs, and the fsync of every
//! [`Pager::sync`] consume the countdown; cache hits do not (nothing
//! reached the file). A coalesced write-back consumes one step per block it
//! writes: when the countdown fires at the `k`-th block of a run, the
//! run's first `k - 1` blocks are written and marked clean and the rest
//! stay dirty, exactly as if each block had been written back on its own.

use std::collections::{BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::{PhysSnapshot, PhysStats};

/// Handle to one file inside a [`Pager`]. Plain index; cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(u32);

/// Largest write of a coalesced write-back run, in bytes.
const WRITE_RUN: usize = 256 << 10;

/// Sentinel owner for frames whose file has been removed; such frames are
/// clean and stamped older than any live frame, so they are recycled first.
const NO_FILE: u32 = u32::MAX;

struct FileState {
    file: File,
    /// Logical length in bytes (the write-back cache may run ahead of the
    /// file's own length).
    len: u64,
    /// Set when this pager created the file as scratch and therefore
    /// deletes it on [`Pager::remove`].
    owned: bool,
}

impl FileState {
    /// Reads up to `buf.len()` bytes at `offset`; returns how many the file
    /// holds there (short at its end).
    fn read_block(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut done = 0;
        while done < buf.len() {
            let n = self.file.read_at(&mut buf[done..], offset + done as u64)?;
            if n == 0 {
                break;
            }
            done += n;
        }
        Ok(done)
    }
}

struct Frame {
    file: u32,
    block: u64,
    data: Box<[u8]>,
    dirty: bool,
    last_used: u64,
}

struct PagerInner {
    block_size: usize,
    capacity: usize,
    files: Vec<Option<FileState>>,
    ids: HashMap<PathBuf, u32>,
    frames: Vec<Frame>,
    map: HashMap<(u32, u64), usize>,
    /// `(last_used, frame index)` for every frame — the eviction order.
    /// Kept in lockstep with `Frame::last_used` so eviction takes the front
    /// entry instead of an O(capacity) min-search per miss.
    lru: BTreeSet<(u64, usize)>,
    tick: u64,
    scratch: Vec<u8>,
    stats: Arc<PhysStats>,
    fault: Arc<AtomicI64>,
}

/// Block-granular files behind a counted buffer pool. See the module docs.
pub struct Pager {
    inner: Mutex<PagerInner>,
    stats: Arc<PhysStats>,
    fault: Arc<AtomicI64>,
    block_size: usize,
    capacity: usize,
}

fn fault_fire(fault: &AtomicI64) -> io::Result<()> {
    let prev = fault.load(Ordering::Relaxed);
    if prev < 0 {
        return Ok(());
    }
    let now = fault.fetch_sub(1, Ordering::SeqCst);
    if now <= 1 {
        // Stay failed (at zero) until `clear_fault` re-arms or disables.
        fault.store(0, Ordering::SeqCst);
        return Err(io::Error::other("injected I/O fault"));
    }
    Ok(())
}

fn file_mut(files: &mut [Option<FileState>], id: FileId) -> io::Result<&mut FileState> {
    files
        .get_mut(id.0 as usize)
        .and_then(|s| s.as_mut())
        .ok_or_else(|| io::Error::other("pager: file handle is stale (file removed)"))
}

impl PagerInner {
    fn state(&mut self, id: FileId) -> io::Result<&mut FileState> {
        file_mut(&mut self.files, id)
    }

    /// One physical block read into `self.scratch[..want]`; zero-fills past
    /// the file's end.
    fn phys_read(&mut self, id: FileId, block_start: u64, want: usize) -> io::Result<()> {
        fault_fire(&self.fault)?;
        self.stats.record_read();
        let st = file_mut(&mut self.files, id)?;
        let avail = st.read_block(block_start, &mut self.scratch[..want])?;
        self.scratch[avail..want].fill(0);
        Ok(())
    }

    /// One physical block write from `self.scratch[..len]`.
    fn phys_write(&mut self, id: FileId, block_start: u64, len: usize) -> io::Result<()> {
        fault_fire(&self.fault)?;
        self.stats.record_write();
        let st = file_mut(&mut self.files, id)?;
        st.file.write_all_at(&self.scratch[..len], block_start)
    }

    /// Writes `run` back to file `id` with one `pwrite` and marks it clean:
    /// `run` is `(block, frame)` for dirty frames of `id` holding consecutive
    /// blocks, ascending, clipped to the file's logical length. A run of
    /// several blocks is staged in `buf`; a single block goes out straight
    /// from its frame. Every block that holds live bytes consumes one step
    /// of the fault countdown and counts one write and one write-back. When
    /// the countdown fires at a block, the blocks before it are still
    /// written and marked clean and the rest stay dirty, as if each block
    /// had been written back on its own.
    fn write_run(&mut self, id: FileId, run: &[(u64, usize)], buf: &mut Vec<u8>) -> io::Result<()> {
        let bs = self.block_size as u64;
        let len = file_mut(&mut self.files, id)?.len;
        let valid = |block: u64| len.saturating_sub(block * bs).min(bs) as usize;
        // Blocks are ascending, so only the last live block can be short
        // and every block past it holds nothing to write.
        let mut fault = Ok(());
        let mut live = 0;
        for &(block, _) in run {
            if valid(block) == 0 {
                break;
            }
            if let Err(e) = fault_fire(&self.fault) {
                fault = Err(e);
                break;
            }
            live += 1;
        }
        if live > 0 {
            self.stats.record_writebacks(live as u64);
            ce_obs::metrics::counter_add("pager.writebacks", live as u64);
            let bytes = if live == 1 {
                let (block, fi) = run[0];
                &self.frames[fi].data[..valid(block)]
            } else {
                buf.clear();
                for &(block, fi) in &run[..live] {
                    buf.extend_from_slice(&self.frames[fi].data[..valid(block)]);
                }
                &buf[..]
            };
            let st = file_mut(&mut self.files, id)?;
            st.file.write_all_at(bytes, run[0].0 * bs)?;
        }
        let written = if fault.is_ok() { run.len() } else { live };
        for &(_, fi) in &run[..written] {
            self.frames[fi].dirty = false;
        }
        fault
    }

    /// Writes every dirty frame of the files `keep` selects back in
    /// `(file, block)` order, coalescing consecutive blocks of one file into
    /// writes of at most [`WRITE_RUN`] bytes (see [`PagerInner::write_run`]
    /// for the per-block accounting). Stops at the first error.
    fn flush(&mut self, keep: impl Fn(u32) -> bool) -> io::Result<()> {
        let mut dirty: Vec<(u32, u64, usize)> = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.dirty && f.file != NO_FILE && keep(f.file))
            .map(|(fi, f)| (f.file, f.block, fi))
            .collect();
        dirty.sort_unstable();
        let per_write = (WRITE_RUN / self.block_size).max(1);
        let mut run = Vec::with_capacity(per_write.min(dirty.len()));
        let mut buf = Vec::new();
        for (i, &(file, block, fi)) in dirty.iter().enumerate() {
            run.push((block, fi));
            let extends = |&(f, b, _): &(u32, u64, usize)| (f, b) == (file, block + 1);
            if run.len() == per_write || !dirty.get(i + 1).is_some_and(extends) {
                self.write_run(FileId(file), &run, &mut buf)?;
                run.clear();
            }
        }
        Ok(())
    }

    /// Re-stamps frame `fi` as most recently used.
    fn touch(&mut self, fi: usize) {
        self.lru.remove(&(self.frames[fi].last_used, fi));
        self.tick += 1;
        self.frames[fi].last_used = self.tick;
        self.lru.insert((self.tick, fi));
    }

    /// Resets frame `fi` to the free state (oldest possible stamp, so free
    /// frames are recycled before any live one).
    fn free_frame(&mut self, fi: usize) {
        self.lru.remove(&(self.frames[fi].last_used, fi));
        self.frames[fi].file = NO_FILE;
        self.frames[fi].dirty = false;
        self.frames[fi].last_used = 0;
        self.lru.insert((0, fi));
    }

    /// Finds a free frame, growing the pool up to capacity or evicting the
    /// least-recently-used frame (writing it back first if dirty).
    ///
    /// The returned frame is always in the detached `NO_FILE` state: callers
    /// claim it only *after* their fallible fill succeeded, so an error can
    /// never leave stale `(file, block)` metadata behind that would later
    /// shadow a live map entry.
    fn obtain_frame(&mut self) -> io::Result<usize> {
        if self.frames.len() < self.capacity {
            let fi = self.frames.len();
            self.frames.push(Frame {
                file: NO_FILE,
                block: 0,
                data: vec![0u8; self.block_size].into_boxed_slice(),
                dirty: false,
                last_used: 0,
            });
            self.lru.insert((0, fi));
            return Ok(fi);
        }
        // The pool is full and has capacity > 0, so the LRU set is non-empty.
        let &(_, victim) = self.lru.first().expect("a full pool has a frame");
        let (file, block) = (self.frames[victim].file, self.frames[victim].block);
        if self.frames[victim].dirty {
            self.write_run(FileId(file), &[(block, victim)], &mut Vec::new())?;
        }
        if file != NO_FILE {
            self.stats.record_eviction();
            ce_obs::metrics::counter_add("pager.evictions", 1);
            self.map.remove(&(file, block));
        }
        self.free_frame(victim);
        Ok(victim)
    }

    /// Returns the frame index of `(id, block)`, filling it on a miss.
    ///
    /// `live` is the number of bytes of the block that currently hold data
    /// **as seen by the caller** — derived from the length *before* the
    /// caller grew it, so a first-touch write never pays a spurious physical
    /// read. `overwrite` is `Some((intra, take))` when the caller is about
    /// to overwrite that range; if the overwrite covers every live byte, the
    /// miss fill skips the physical read entirely.
    fn frame_for(
        &mut self,
        id: FileId,
        block: u64,
        live: usize,
        overwrite: Option<(usize, usize)>,
    ) -> io::Result<usize> {
        if let Some(&fi) = self.map.get(&(id.0, block)) {
            self.stats.record_hit();
            self.touch(fi);
            return Ok(fi);
        }
        self.stats.record_miss();
        let fi = self.obtain_frame()?;
        let bs = self.block_size;
        let block_start = block * bs as u64;
        let need_read = match overwrite {
            // Read only if the block holds live bytes the write won't cover.
            Some((intra, take)) => live > 0 && !(intra == 0 && take >= live),
            None => live > 0,
        };
        if need_read {
            self.phys_read(id, block_start, bs)?;
            self.frames[fi].data.copy_from_slice(&self.scratch[..bs]);
        } else {
            self.frames[fi].data.fill(0);
        }
        self.frames[fi].file = id.0;
        self.frames[fi].block = block;
        self.frames[fi].dirty = false;
        self.touch(fi);
        self.map.insert((id.0, block), fi);
        Ok(fi)
    }

    /// Drops every frame belonging to `id` without write-back.
    fn discard_frames_of(&mut self, id: u32) {
        for fi in 0..self.frames.len() {
            if self.frames[fi].file == id {
                self.map.remove(&(self.frames[fi].file, self.frames[fi].block));
                self.free_frame(fi);
            }
        }
    }
}

impl Pager {
    /// Creates a pager with `cache_frames` block-sized frames (0 =
    /// pass-through).
    pub fn new(block_size: usize, cache_frames: usize) -> Pager {
        assert!(block_size > 0, "block size must be positive");
        let stats = Arc::new(PhysStats::new());
        let fault = Arc::new(AtomicI64::new(-1));
        Pager {
            inner: Mutex::new(PagerInner {
                block_size,
                capacity: cache_frames,
                files: Vec::new(),
                ids: HashMap::new(),
                frames: Vec::new(),
                map: HashMap::new(),
                lru: BTreeSet::new(),
                tick: 0,
                scratch: vec![0u8; block_size],
                stats: Arc::clone(&stats),
                fault: Arc::clone(&fault),
            }),
            stats,
            fault,
            block_size,
            capacity: cache_frames,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PagerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block size of every frame and transfer.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of frames in the pool (0 = pass-through).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Physical-transfer counters.
    pub fn phys(&self) -> PhysSnapshot {
        self.stats.snapshot()
    }

    /// Arranges for the `n`-th physical operation from now (1-based) — a
    /// block transfer or the fsync of a [`Pager::sync`] — to fail with an
    /// injected error; subsequent operations keep failing until
    /// [`Pager::clear_fault`].
    pub fn inject_fault_after(&self, n: u64) {
        self.fault.store(n as i64, Ordering::SeqCst);
    }

    /// Disables fault injection.
    pub fn clear_fault(&self) {
        self.fault.store(-1, Ordering::SeqCst);
    }

    fn intern(&self, inner: &mut PagerInner, path: &Path, st: FileState) -> FileId {
        if let Some(&id) = inner.ids.get(path) {
            inner.discard_frames_of(id);
            inner.files[id as usize] = Some(st);
            return FileId(id);
        }
        let id = inner.files.len() as u32;
        inner.files.push(Some(st));
        inner.ids.insert(path.to_path_buf(), id);
        FileId(id)
    }

    fn create_file(&self, path: &Path, owned: bool) -> io::Result<FileId> {
        let mut inner = self.lock();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let st = FileState {
            file,
            len: 0,
            owned,
        };
        Ok(self.intern(&mut inner, path, st))
    }

    /// Creates (truncating) a scratch file at `path`; [`Pager::remove`]
    /// deletes it.
    pub fn create(&self, path: &Path) -> io::Result<FileId> {
        self.create_file(path, true)
    }

    /// Creates (truncating) a file at `path` that the pager never deletes —
    /// for artifacts (e.g. a queryable index) that must outlive the
    /// environment whose pool writes them. All block traffic still flows
    /// through the buffer pool and the physical counters.
    pub fn create_persistent(&self, path: &Path) -> io::Result<FileId> {
        self.create_file(path, false)
    }

    fn open_existing(&self, path: &Path, rw: bool) -> io::Result<FileId> {
        let mut inner = self.lock();
        if let Some(&id) = inner.ids.get(path) {
            return Ok(FileId(id));
        }
        let file = OpenOptions::new().read(true).write(rw).open(path)?;
        let len = file.metadata()?.len();
        let st = FileState {
            file,
            len,
            owned: false,
        };
        Ok(self.intern(&mut inner, path, st))
    }

    /// Opens `path` for reading (a file this pager already holds, or an
    /// existing file, which it will not delete).
    pub fn open_read(&self, path: &Path) -> io::Result<FileId> {
        self.open_existing(path, false)
    }

    /// Opens `path` for reading and writing without truncation.
    pub fn open_rw(&self, path: &Path) -> io::Result<FileId> {
        self.open_existing(path, true)
    }

    /// Logical length of the file in bytes.
    pub fn len(&self, id: FileId) -> io::Result<u64> {
        Ok(self.lock().state(id)?.len)
    }

    /// Reads up to `buf.len()` bytes at `offset` (short at end of file);
    /// returns the number of bytes read.
    pub fn read_at(&self, id: FileId, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut inner = self.lock();
        let flen = inner.state(id)?.len;
        if buf.is_empty() || offset >= flen {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(flen - offset) as usize;
        let bs = self.block_size;
        let mut done = 0usize;
        while done < n {
            let pos = offset + done as u64;
            let block = pos / bs as u64;
            let intra = (pos % bs as u64) as usize;
            let take = (bs - intra).min(n - done);
            let block_start = block * bs as u64;
            if self.capacity == 0 {
                inner.phys_read(id, block_start, bs)?;
                buf[done..done + take].copy_from_slice(&inner.scratch[intra..intra + take]);
            } else {
                let live = flen.saturating_sub(block_start).min(bs as u64) as usize;
                let fi = inner.frame_for(id, block, live, None)?;
                buf[done..done + take]
                    .copy_from_slice(&inner.frames[fi].data[intra..intra + take]);
            }
            done += take;
        }
        Ok(n)
    }

    /// Writes all of `buf` at `offset`, growing the file as needed (gaps
    /// read back as zeroes).
    pub fn write_at(&self, id: FileId, offset: u64, buf: &[u8]) -> io::Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let mut inner = self.lock();
        let old_len = inner.state(id)?.len;
        // Grow the logical length up front: a mid-write eviction write-back
        // must not clip blocks of this very write against the old length.
        {
            let st = inner.state(id)?;
            st.len = st.len.max(offset + buf.len() as u64);
        }
        let bs = self.block_size;
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let block = pos / bs as u64;
            let intra = (pos % bs as u64) as usize;
            let take = (bs - intra).min(buf.len() - done);
            let block_start = block * bs as u64;
            let pre = old_len.saturating_sub(block_start).min(bs as u64) as usize;
            if self.capacity == 0 {
                if intra == 0 && take >= pre {
                    // The write covers every live byte of the block.
                    inner.scratch[..take].copy_from_slice(&buf[done..done + take]);
                    inner.phys_write(id, block_start, take)?;
                } else {
                    // Read-modify-write to preserve bytes around the range.
                    inner.scratch.fill(0);
                    if pre > 0 {
                        inner.phys_read(id, block_start, bs)?;
                    }
                    inner.scratch[intra..intra + take].copy_from_slice(&buf[done..done + take]);
                    let valid = pre.max(intra + take);
                    inner.phys_write(id, block_start, valid)?;
                }
            } else {
                let fi = inner.frame_for(id, block, pre, Some((intra, take)))?;
                inner.frames[fi].data[intra..intra + take]
                    .copy_from_slice(&buf[done..done + take]);
                inner.frames[fi].dirty = true;
            }
            done += take;
        }
        Ok(())
    }

    /// Writes every dirty frame of `id` back in block order, consecutive
    /// blocks coalesced (see the module docs), then fsyncs the file. The
    /// fsync is one physical operation of the fault countdown (but no
    /// transfer in [`PhysStats`]), so an armed fault fails a sync even when
    /// no frame is dirty.
    pub fn sync(&self, id: FileId) -> io::Result<()> {
        let mut inner = self.lock();
        inner.flush(|file| file == id.0)?;
        fault_fire(&inner.fault)?;
        inner.state(id)?.file.sync_data()
    }

    /// Removes `path`: its frames are discarded (without write-back), its
    /// file is closed, and — for scratch files this pager created — deleted.
    pub fn remove(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        if let Some(id) = inner.ids.remove(path) {
            inner.discard_frames_of(id);
            let st = inner.files[id as usize].take();
            drop(inner);
            if st.is_some_and(|s| s.owned) {
                let _ = std::fs::remove_file(path);
            }
        } else {
            // Unknown to the pager (e.g. created before a pager restart):
            // preserve the old direct-unlink semantics, best effort.
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Forgets `path` without touching the filesystem: the interned id is
    /// dropped, its frames discarded (no write-back), its file closed.
    /// Unknown paths are a no-op. This is the hook for files that are
    /// replaced *behind* the pager — e.g. an atomic artifact swap done with
    /// a tmp copy + `rename(2)` — where the interned id would otherwise
    /// keep serving the pre-swap inode to every later open of the same
    /// path. Callers must have synced any frames they still need.
    pub fn forget(&self, path: &Path) {
        let mut inner = self.lock();
        if let Some(id) = inner.ids.remove(path) {
            inner.discard_frames_of(id);
            inner.files[id as usize] = None;
        }
    }

    /// Drops every frame and file, writing back only the dirty frames of
    /// files this pager does not own (persistent artifacts, files opened
    /// from outside), best effort: the write-back stops at its first error.
    /// Used for fast teardown of scratch directories that are about to be
    /// deleted wholesale, which need not hold the persistent files their
    /// environment wrote.
    pub fn discard_scratch(&self) {
        let mut inner = self.lock();
        let kept: Vec<bool> = inner
            .files
            .iter()
            .map(|st| st.as_ref().is_some_and(|st| !st.owned))
            .collect();
        let _ = inner.flush(|file| kept.get(file as usize) == Some(&true));
        inner.map.clear();
        inner.frames.clear();
        inner.lru.clear();
        inner.files.clear();
        inner.ids.clear();
    }

    /// Number of live blocks currently resident in the pool.
    pub fn resident_blocks(&self) -> usize {
        self.lock().map.len()
    }

    /// Block numbers of resident frames in least-recently-used order
    /// (exposed for eviction-order tests).
    pub fn lru_order(&self) -> Vec<(u64, u64)> {
        let inner = self.lock();
        let mut live: Vec<&Frame> = inner.frames.iter().filter(|f| f.file != NO_FILE).collect();
        live.sort_by_key(|f| f.last_used);
        live.iter().map(|f| (f.file as u64, f.block)).collect()
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        // Best-effort durability for environments that keep their directory.
        let _ = self.lock().flush(|_| true);
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("block_size", &self.block_size)
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test scratch directory, removed on drop (declare it before the
    /// pager, so the pager's final write-back runs first).
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(test: &str) -> TestDir {
            let dir = std::env::temp_dir().join(format!("ce-pager-{test}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn roundtrip_pass_through_and_pooled() {
        let dir = TestDir::new("roundtrip");
        for frames in [0usize, 2, 16] {
            let p = Pager::new(64, frames);
            let f = p.create(&dir.path("a")).unwrap();
            p.write_at(f, 0, b"hello world").unwrap();
            p.write_at(f, 200, b"far").unwrap();
            let mut buf = [0u8; 11];
            assert_eq!(p.read_at(f, 0, &mut buf).unwrap(), 11);
            assert_eq!(&buf, b"hello world");
            let mut buf = [0xAAu8; 8];
            assert_eq!(p.read_at(f, 198, &mut buf).unwrap(), 5);
            assert_eq!(&buf[..5], &[0, 0, b'f', b'a', b'r']);
            assert_eq!(p.len(f).unwrap(), 203);
        }
    }

    #[test]
    fn pooled_rereads_hit_the_cache() {
        let dir = TestDir::new("rereads");
        let p = Pager::new(64, 4);
        let f = p.create(&dir.path("a")).unwrap();
        p.write_at(f, 0, &[7u8; 64]).unwrap();
        let before = p.phys();
        let mut buf = [0u8; 64];
        for _ in 0..10 {
            p.read_at(f, 0, &mut buf).unwrap();
        }
        let d = p.phys().since(&before);
        assert_eq!(d.hits, 10);
        assert_eq!(d.reads, 0, "all reads served from the dirty frame");
    }

    #[test]
    fn lru_eviction_order_is_least_recent_first() {
        let dir = TestDir::new("lru");
        let p = Pager::new(64, 3);
        let f = p.create(&dir.path("a")).unwrap();
        // Touch blocks 0, 1, 2, then re-touch 0: LRU order is 1, 2, 0.
        for b in [0u64, 1, 2, 0] {
            p.write_at(f, b * 64, &[b as u8; 64]).unwrap();
        }
        assert_eq!(
            p.lru_order().iter().map(|&(_, b)| b).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
        // A fourth block evicts block 1 (the least recently used).
        let before = p.phys();
        p.write_at(f, 3 * 64, &[3u8; 64]).unwrap();
        let d = p.phys().since(&before);
        assert_eq!(d.evictions, 1);
        assert_eq!(d.writebacks, 1, "victim was dirty");
        assert_eq!(
            p.lru_order().iter().map(|&(_, b)| b).collect::<Vec<_>>(),
            vec![2, 0, 3]
        );
        // Contents of the evicted block survive in the file.
        let mut buf = [0u8; 64];
        p.read_at(f, 64, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn dirty_write_back_on_sync_and_drop() {
        let dir = TestDir::new("write-back");
        let fpath = dir.path("wb.bin");
        {
            let p = Pager::new(64, 8);
            let f = p.create(&fpath).unwrap();
            p.write_at(f, 0, &[9u8; 100]).unwrap();
            // Dirty data is cached, not yet in the file.
            assert_eq!(std::fs::metadata(&fpath).unwrap().len(), 0);
            p.sync(f).unwrap();
            assert_eq!(std::fs::metadata(&fpath).unwrap().len(), 100);
            assert_eq!(std::fs::read(&fpath).unwrap(), vec![9u8; 100]);
            // Dirty again, then rely on drop.
            p.write_at(f, 100, &[5u8; 28]).unwrap();
        }
        let bytes = std::fs::read(&fpath).unwrap();
        assert_eq!(bytes.len(), 128, "drop flushed the tail");
        assert_eq!(&bytes[100..], &[5u8; 28][..]);
    }

    #[test]
    fn faults_fire_on_physical_transfers_not_hits() {
        let dir = TestDir::new("fault-hits");
        let p = Pager::new(64, 4);
        let f = p.create(&dir.path("a")).unwrap();
        p.write_at(f, 0, &[1u8; 64]).unwrap(); // cached, no physical I/O
        p.inject_fault_after(1);
        let mut buf = [0u8; 64];
        // Hits do not consume the countdown.
        for _ in 0..5 {
            p.read_at(f, 0, &mut buf).unwrap();
        }
        // The first physical transfer (miss fill of block 7, which needs no
        // read because it holds no live bytes... so use the eviction path):
        // force write-backs by filling the pool with dirty blocks.
        for b in 1u64..4 {
            p.write_at(f, b * 64, &[b as u8; 64]).unwrap(); // misses, no read
        }
        // Pool full of dirty frames; the next miss must write back a victim,
        // which is a physical transfer and must fire the injected fault.
        let err = p.write_at(f, 4 * 64, &[4u8; 64]).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        p.clear_fault();
        assert!(p.write_at(f, 4 * 64, &[4u8; 64]).is_ok());
    }

    #[test]
    fn fault_fires_on_sync_write_back() {
        let dir = TestDir::new("fault-wb");
        let p = Pager::new(64, 4);
        let f = p.create(&dir.path("a")).unwrap();
        p.write_at(f, 0, &[1u8; 64]).unwrap();
        p.inject_fault_after(1);
        assert!(p.sync(f).is_err());
        p.clear_fault();
        assert!(p.sync(f).is_ok());
    }

    #[test]
    fn fault_fires_on_the_fsync_of_a_clean_sync() {
        // Pass-through writes leave no dirty frame, and a pooled file is
        // clean right after a sync: the fsync is then a sync's only
        // physical operation, and an armed fault must fail it.
        let dir = TestDir::new("fault-fsync");
        for frames in [0usize, 4] {
            let p = Pager::new(64, frames);
            let f = p.create(&dir.path("a")).unwrap();
            p.write_at(f, 0, &[1u8; 64]).unwrap();
            p.sync(f).unwrap();
            let before = p.phys();
            p.inject_fault_after(1);
            let err = p.sync(f).unwrap_err();
            assert!(
                err.to_string().contains("injected"),
                "frames={frames}: {err}"
            );
            assert_eq!(p.phys(), before, "an fsync is no block transfer");
            p.clear_fault();
            p.sync(f).unwrap();
        }
        // With a dirty frame the write-back comes first: the second
        // operation of the sync is its fsync.
        let p = Pager::new(64, 4);
        let f = p.create(&dir.path("b")).unwrap();
        p.write_at(f, 0, &[2u8; 64]).unwrap();
        p.inject_fault_after(2);
        assert!(p.sync(f).is_err());
        assert_eq!(
            p.phys().writebacks,
            1,
            "the write-back ran before the fsync failed"
        );
        p.clear_fault();
    }

    /// 64 bytes of block `b` as written in round `round`.
    fn block_bytes(b: u64, round: u8) -> [u8; 64] {
        [(b as u8) * 16 + round; 64]
    }

    #[test]
    fn sync_writes_back_in_block_order() {
        let dir = TestDir::new("ordered-sync");
        let fpath = dir.path("a");
        let p = Pager::new(64, 16);
        let f = p.create(&fpath).unwrap();
        // First touches fill frames in this order, so frame order is not
        // block order; the tail block 7 is short.
        let mut want = vec![0u8; 7 * 64 + 30];
        for b in [5u64, 3, 7, 0, 1, 2, 6, 4] {
            let at = (b * 64) as usize;
            let end = (at + 64).min(want.len());
            want[at..end].copy_from_slice(&block_bytes(b, 1)[..end - at]);
            p.write_at(f, b * 64, &want[at..end]).unwrap();
        }
        let before = p.phys();
        p.sync(f).unwrap();
        assert_eq!(std::fs::read(&fpath).unwrap(), want);
        let d = p.phys().since(&before);
        assert_eq!(
            (d.writes, d.writebacks, d.reads),
            (8, 8, 0),
            "one per block"
        );
        // Runs with gaps: blocks 0..=2, 4 and 6 dirty, 3, 5 and 7 clean.
        for b in [6u64, 1, 0, 4, 2] {
            let at = (b * 64) as usize;
            want[at..at + 64].copy_from_slice(&block_bytes(b, 2));
            p.write_at(f, b * 64, &want[at..at + 64]).unwrap();
        }
        let before = p.phys();
        p.sync(f).unwrap();
        assert_eq!(std::fs::read(&fpath).unwrap(), want);
        let d = p.phys().since(&before);
        assert_eq!((d.writes, d.writebacks), (5, 5));
        // A run longer than one write still counts per block.
        let q = Pager::new(64, 5000);
        let g = q.create(&dir.path("long")).unwrap();
        let long: Vec<u8> = (0..4500 * 64).map(|i| (i % 253) as u8).collect();
        q.write_at(g, 0, &long).unwrap();
        q.sync(g).unwrap();
        assert_eq!(std::fs::read(dir.path("long")).unwrap(), long);
        assert_eq!((q.phys().writes, q.phys().writebacks), (4500, 4500));
    }

    #[test]
    fn a_fault_mid_run_leaves_the_blocks_before_it_written() {
        // Dirty blocks 0, 1, 2, 4, 5 and 7 in scrambled frame order; 3 and 6
        // are holes. Block order is the order of the fault countdown.
        let dirty = [0u64, 1, 2, 4, 5, 7];
        let dir = TestDir::new("fault-run");
        for k in 1..=dirty.len() {
            let fpath = dir.path(&format!("k{k}"));
            let p = Pager::new(64, 8);
            let f = p.create(&fpath).unwrap();
            for b in [4u64, 0, 7, 2, 5, 1] {
                p.write_at(f, b * 64, &block_bytes(b, 1)).unwrap();
            }
            p.inject_fault_after(k as u64);
            let err = p.sync(f).unwrap_err();
            assert!(err.to_string().contains("injected"), "k={k}: {err}");
            // Exactly the first k - 1 blocks in block order reached the file.
            let mut want = Vec::new();
            for &b in &dirty[..k - 1] {
                want.resize(b as usize * 64, 0);
                want.extend_from_slice(&block_bytes(b, 1));
            }
            assert_eq!(std::fs::read(&fpath).unwrap(), want, "k={k}");
            assert_eq!(p.phys().writebacks, k as u64 - 1, "k={k}");
            // A retried sync writes the rest, each block once.
            p.clear_fault();
            p.sync(f).unwrap();
            let mut want = vec![0u8; 8 * 64];
            for &b in &dirty {
                want[b as usize * 64..][..64].copy_from_slice(&block_bytes(b, 1));
            }
            assert_eq!(std::fs::read(&fpath).unwrap(), want, "k={k}");
            assert_eq!(p.phys().writebacks, dirty.len() as u64, "k={k}");
        }
    }

    #[test]
    fn create_resets_an_existing_path() {
        let dir = TestDir::new("recreate");
        let p = Pager::new(64, 4);
        let f1 = p.create(&dir.path("a")).unwrap();
        p.write_at(f1, 0, &[1u8; 64]).unwrap();
        let f2 = p.create(&dir.path("a")).unwrap();
        assert_eq!(p.len(f2).unwrap(), 0);
        let mut buf = [7u8; 64];
        assert_eq!(p.read_at(f2, 0, &mut buf).unwrap(), 0, "truncated");
    }

    #[test]
    fn remove_discards_frames_and_cached_state() {
        let dir = TestDir::new("remove");
        let p = Pager::new(64, 2);
        let f = p.create(&dir.path("a")).unwrap();
        p.write_at(f, 0, &[1u8; 64]).unwrap();
        assert_eq!(p.resident_blocks(), 1);
        p.remove(&dir.path("a")).unwrap();
        assert_eq!(p.resident_blocks(), 0);
        assert!(p.len(f).is_err(), "stale handle is rejected");
        assert!(!dir.path("a").exists(), "a removed scratch file is deleted");
    }

    #[test]
    fn first_touch_unaligned_write_reads_nothing() {
        // `frame_for` must judge "live bytes to preserve" against the length
        // BEFORE this write grew it: a hole/first-touch write has nothing to
        // preserve, in pooled and pass-through mode alike.
        let dir = TestDir::new("first-touch");
        for frames in [0usize, 4] {
            let p = Pager::new(64, frames);
            let f = p.create(&dir.path("a")).unwrap();
            p.write_at(f, 5, &[9u8; 10]).unwrap(); // unaligned first touch
            p.write_at(f, 200, &[7u8; 3]).unwrap(); // hole write, later block
            let d = p.phys();
            assert_eq!(d.reads, 0, "spurious physical read (frames={frames}): {d}");
            let mut buf = [0xFFu8; 16];
            assert_eq!(p.read_at(f, 0, &mut buf).unwrap(), 16);
            assert_eq!(&buf[..5], &[0u8; 5]);
            assert_eq!(&buf[5..15], &[9u8; 10]);
        }
    }

    #[test]
    fn failed_miss_fill_leaves_no_stale_frame_metadata() {
        // Regression: an error during a miss fill used to leave the evicted
        // victim frame carrying its old (file, block) key outside the map; a
        // later eviction of that frame would then remove the *live* map
        // entry for the same key, orphaning dirty data.
        let dir = TestDir::new("failed-fill");
        let p = Pager::new(64, 2);
        let f = p.create(&dir.path("a")).unwrap();
        p.write_at(f, 0, &[1u8; 256]).unwrap(); // blocks 0..4; 2 and 3 resident
        p.sync(f).unwrap(); // the file holds [1u8; 256], frames clean
        // Fail the physical read of a miss fill: the victim frame must come
        // out of it detached, not still claiming its old block.
        p.inject_fault_after(1);
        let mut buf = [0u8; 64];
        assert!(p.read_at(f, 0, &mut buf).unwrap_err().to_string().contains("injected"));
        p.clear_fault();
        // Redirty the blocks the failed fill's victim may have held.
        for b in [2u64, 3] {
            p.write_at(f, b * 64, &[9u8; 64]).unwrap();
        }
        // Force evictions through the whole pool; the dirty 9-blocks must
        // survive (write-back, then clean reload), never revert to 1s.
        for b in [0u64, 1, 0, 1] {
            p.read_at(f, b * 64, &mut buf).unwrap();
        }
        for b in [2u64, 3] {
            p.read_at(f, b * 64, &mut buf).unwrap();
            assert_eq!(buf, [9u8; 64], "block {b} lost its dirty data");
        }
        assert_eq!(p.resident_blocks(), 2, "map and frames out of sync");
    }

    #[test]
    fn evictions_and_writebacks_reach_the_metrics_registry() {
        let dir = TestDir::new("metrics");
        use std::rc::Rc;
        let _g = ce_obs::install(Rc::new(ce_obs::MemSink::new()));
        ce_obs::metrics::reset();
        // 1-frame pool: alternating dirty writes force an eviction (and a
        // write-back of the dirty victim) on every block switch.
        let p = Pager::new(64, 1);
        let f = p.create(&dir.path("a")).unwrap();
        for b in [0u64, 1, 0, 1] {
            p.write_at(f, b * 64, &[7u8; 64]).unwrap();
        }
        let snap = ce_obs::metrics::snapshot();
        let phys = p.phys();
        assert_eq!(
            snap.iter().find(|(n, _)| *n == "pager.evictions"),
            Some(&("pager.evictions", ce_obs::metrics::Metric::Counter(phys.evictions)))
        );
        assert_eq!(
            snap.iter().find(|(n, _)| *n == "pager.writebacks"),
            Some(&("pager.writebacks", ce_obs::metrics::Metric::Counter(phys.writebacks)))
        );
        assert!(phys.evictions >= 3, "expected repeated evictions: {phys}");
        ce_obs::metrics::reset();
    }

    #[test]
    fn partial_overwrite_preserves_surrounding_bytes() {
        let dir = TestDir::new("partial");
        for frames in [0usize, 1, 4] {
            let p = Pager::new(64, frames);
            let f = p.create(&dir.path("a")).unwrap();
            p.write_at(f, 0, &[0xAB; 130]).unwrap();
            p.write_at(f, 40, &[0xCD; 10]).unwrap();
            let mut buf = [0u8; 130];
            assert_eq!(p.read_at(f, 0, &mut buf).unwrap(), 130);
            assert!(buf[..40].iter().all(|&b| b == 0xAB));
            assert!(buf[40..50].iter().all(|&b| b == 0xCD));
            assert!(buf[50..].iter().all(|&b| b == 0xAB), "frames={frames}");
        }
    }
}
