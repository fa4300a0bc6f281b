//! Counted block-granular file access.
//!
//! [`CountedFile`] is the accounting layer between record streams and the
//! environment's pager. Every read/write is priced in the environment's
//! [`crate::stats::IoStats`] as `ceil(len / B)` **logical** block transfers
//! and classified as sequential (continuing exactly where the previous access
//! of the same kind on this handle ended) or random — regardless of whether
//! the bytes were served from the buffer pool or from the backend. The
//! *physical* side of the same access (frame fills, write-backs, cache hits)
//! is counted by the pager itself; see [`crate::DiskEnv::phys`].

use std::io;
use std::path::Path;

use ce_pager::FileId;

use crate::env::DiskEnv;

/// A file whose logical block transfers are counted and classified.
pub struct CountedFile {
    id: FileId,
    env: DiskEnv,
    block: u64,
    last_read_end: u64,
    last_write_end: u64,
}

impl CountedFile {
    /// Creates (truncating) a file for writing and reading.
    pub fn create(env: &DiskEnv, path: &Path) -> io::Result<CountedFile> {
        let id = env.pager().create(path)?;
        Ok(Self::wrap(env, id))
    }

    /// Creates (truncating) an **on-disk** file at `path` regardless of the
    /// environment's backend kind — for persistent artifacts that must
    /// outlive in-memory environments. Bytes still flow through the buffer
    /// pool and are priced in the logical [`crate::stats::IoStats`].
    pub fn create_persistent(env: &DiskEnv, path: &Path) -> io::Result<CountedFile> {
        let id = env.pager().create_persistent(path)?;
        Ok(Self::wrap(env, id))
    }

    /// Opens an existing file read-only.
    pub fn open_read(env: &DiskEnv, path: &Path) -> io::Result<CountedFile> {
        let id = env.pager().open_read(path)?;
        Ok(Self::wrap(env, id))
    }

    /// Opens an existing file for reading and writing without truncation.
    pub fn open_rw(env: &DiskEnv, path: &Path) -> io::Result<CountedFile> {
        let id = env.pager().open_rw(path)?;
        Ok(Self::wrap(env, id))
    }

    fn wrap(env: &DiskEnv, id: FileId) -> CountedFile {
        CountedFile {
            id,
            env: env.clone(),
            block: env.config().block_size as u64,
            last_read_end: u64::MAX, // first access counts as random
            last_write_end: 0,       // writes usually start at 0: treat as sequential
        }
    }

    fn blocks(&self, len: usize) -> u64 {
        (len as u64).div_ceil(self.block)
    }

    /// Reads exactly `buf.len()` bytes at `offset` unless EOF truncates the
    /// read; returns the number of bytes read.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let done = self.env.pager().read_at(self.id, offset, buf)?;
        let sequential = offset == self.last_read_end;
        self.last_read_end = offset + done as u64;
        self.env
            .stats()
            .record_read(self.blocks(done.max(1)), done as u64, sequential);
        Ok(done)
    }

    /// Writes all of `buf` at `offset`.
    pub fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        self.env.pager().write_at(self.id, offset, buf)?;
        let sequential = offset == self.last_write_end;
        self.last_write_end = offset + buf.len() as u64;
        self.env
            .stats()
            .record_write(self.blocks(buf.len()), buf.len() as u64, sequential);
        Ok(())
    }

    /// Flushes dirty pool frames of this file and syncs its backend. Not
    /// counted as logical I/O (the model prices transfers, not barriers).
    pub fn sync(&mut self) -> io::Result<()> {
        self.env.pager().sync(self.id)
    }

    /// Current length of the file in bytes.
    pub fn len_bytes(&self) -> io::Result<u64> {
        self.env.pager().len(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IoConfig;
    use crate::env::EnvOptions;
    use ce_pager::BackendKind;

    fn env() -> DiskEnv {
        DiskEnv::new_temp(IoConfig::new(64, 4096)).unwrap()
    }

    #[test]
    fn read_write_roundtrip() {
        let env = env();
        let path = env.fresh_path("t");
        let mut f = CountedFile::create(&env, &path).unwrap();
        f.write_at(0, b"hello world").unwrap();
        let mut buf = [0u8; 11];
        let n = f.read_at(0, &mut buf).unwrap();
        assert_eq!(n, 11);
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn sequential_vs_random_classification() {
        let env = env();
        let path = env.fresh_path("t");
        let mut f = CountedFile::create(&env, &path).unwrap();
        let block = vec![7u8; 64];
        f.write_at(0, &block).unwrap(); // seq (starts at 0)
        f.write_at(64, &block).unwrap(); // seq
        f.write_at(0, &block).unwrap(); // random (rewind)
        let snap = env.stats().snapshot();
        assert_eq!(snap.seq_writes, 2);
        assert_eq!(snap.rand_writes, 1);

        let mut buf = vec![0u8; 64];
        f.read_at(0, &mut buf).unwrap(); // first read: random by convention
        f.read_at(64, &mut buf).unwrap(); // seq
        f.read_at(0, &mut buf).unwrap(); // random
        let snap = env.stats().snapshot();
        assert_eq!(snap.seq_reads, 1);
        assert_eq!(snap.rand_reads, 2);
    }

    #[test]
    fn multi_block_transfers_count_all_blocks() {
        let env = env(); // block = 64
        let path = env.fresh_path("t");
        let mut f = CountedFile::create(&env, &path).unwrap();
        f.write_at(0, &[1u8; 200]).unwrap(); // ceil(200/64) = 4 blocks
        assert_eq!(env.stats().snapshot().seq_writes, 4);
    }

    #[test]
    fn short_read_at_eof() {
        let env = env();
        let path = env.fresh_path("t");
        let mut f = CountedFile::create(&env, &path).unwrap();
        f.write_at(0, b"abc").unwrap();
        let mut buf = [0u8; 10];
        let n = f.read_at(0, &mut buf).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn injected_fault_surfaces_as_error() {
        let env = env();
        let path = env.fresh_path("t");
        let mut f = CountedFile::create(&env, &path).unwrap();
        env.inject_fault_after(1);
        let err = f.write_at(0, b"boom").unwrap_err();
        assert!(err.to_string().contains("injected"));
        env.clear_fault();
    }

    #[test]
    fn logical_counts_identical_across_backends_and_pooling() {
        // The same access pattern must be priced identically by the model no
        // matter where the blocks live or whether a pool intervenes.
        let cfg = IoConfig::new(64, 4096);
        let mut logical = Vec::new();
        for opts in [
            EnvOptions::unpooled(),
            EnvOptions::unpooled().with_cache_blocks(2),
            EnvOptions::mem(&cfg),
        ] {
            let env = DiskEnv::new_temp_with(cfg, opts).unwrap();
            let path = env.fresh_path("t");
            let mut f = CountedFile::create(&env, &path).unwrap();
            f.write_at(0, &[3u8; 200]).unwrap();
            f.write_at(64, &[4u8; 64]).unwrap();
            let mut buf = [0u8; 200];
            f.read_at(0, &mut buf).unwrap();
            f.read_at(100, &mut buf[..64]).unwrap();
            logical.push(env.stats().snapshot());
        }
        assert_eq!(logical[0], logical[1]);
        assert_eq!(logical[0], logical[2]);
    }

    #[test]
    fn mem_backend_roundtrips_without_files() {
        let cfg = IoConfig::new(64, 4096);
        let env = DiskEnv::new_temp_with(
            cfg,
            EnvOptions::default().with_backend(BackendKind::Mem).with_cache_blocks(4),
        )
        .unwrap();
        let path = env.fresh_path("t");
        let mut f = CountedFile::create(&env, &path).unwrap();
        f.write_at(0, &[9u8; 300]).unwrap();
        let mut buf = [0u8; 300];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 300);
        assert_eq!(buf, [9u8; 300]);
        assert!(!path.exists(), "no real file behind the mem backend");
    }
}
